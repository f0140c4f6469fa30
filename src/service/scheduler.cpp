#include "service/scheduler.h"

#include <map>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "service/checkpoint.h"

namespace wlansim::service {

namespace {

/// Jobs coalesce only when every knob that shapes evaluation matches:
/// axis, bin width, the full stopping rule, and store use. Exact double
/// comparison is deliberate — "almost the same rule" is a different
/// question and must not share results.
using GroupKey = std::tuple<int, double, bool, double, double, std::uint64_t,
                            std::uint64_t, std::uint64_t>;

GroupKey group_key(const JobRequest& req) {
  return {static_cast<int>(req.axis),
          req.bin_width_db,
          req.use_store,
          req.rule.target_rel_ci,
          req.rule.confidence_z,
          static_cast<std::uint64_t>(req.rule.min_errors),
          static_cast<std::uint64_t>(req.rule.min_packets),
          static_cast<std::uint64_t>(req.rule.max_packets)};
}

}  // namespace

Scheduler::Scheduler(Options opts)
    : opts_(std::move(opts)),
      store_dir_(opts_.store_dir.empty() ? core::default_calibration_dir()
                                         : opts_.store_dir),
      checkpoint_dir_(opts_.checkpoint_dir.empty() ? store_dir_
                                                   : opts_.checkpoint_dir),
      cache_(sim::CalibrationStore(store_dir_)),
      paused_(opts_.start_paused) {
  engine_ = std::thread([this] { engine_loop(); });
}

Scheduler::~Scheduler() { stop(); }

std::future<JobResult> Scheduler::submit(JobRequest req) {
  if (req.configs.empty())
    throw std::invalid_argument("Scheduler::submit: empty config list");
  Pending p;
  p.req = std::move(req);
  std::future<JobResult> fut = p.promise.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_)
      throw std::runtime_error("Scheduler::submit: scheduler is stopped");
    pending_.push_back(std::move(p));
    ++stats_.jobs;
  }
  cv_.notify_all();
  return fut;
}

void Scheduler::resume() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = false;
  }
  cv_.notify_all();
}

void Scheduler::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      // Second caller: the engine is already winding down; fall through to
      // the join so stop() only returns once the engine is gone.
    }
    stopping_ = true;
    paused_ = false;
  }
  stop_flag_.store(true);
  cv_.notify_all();
  if (engine_.joinable()) engine_.join();
}

std::future<scenario::DropSummary> Scheduler::submit_drop(
    scenario::DropConfig cfg) {
  PendingDrop p;
  p.cfg = std::move(cfg);
  std::future<scenario::DropSummary> fut = p.promise.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_)
      throw std::runtime_error("Scheduler::submit_drop: scheduler is stopped");
    pending_drops_.push_back(std::move(p));
    ++stats_.jobs;
  }
  cv_.notify_all();
  return fut;
}

SchedulerStats Scheduler::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

core::ColdPassFn Scheduler::cold_pass_hook() {
  return [this](std::span<const core::LinkConfig> cfgs,
                const sim::StoppingRule& rule,
                const core::SweepOptions& sopts) {
    return run_cold_pass_checkpointed(checkpoint_dir_, cfgs, rule, sopts,
                                      &stop_flag_,
                                      opts_.checkpoint_every_waves);
  };
}

void Scheduler::engine_loop() {
  for (;;) {
    std::vector<Pending> batch;
    std::vector<PendingDrop> drops;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] {
        return stopping_ ||
               (!paused_ && (!pending_.empty() || !pending_drops_.empty()));
      });
      if (stopping_) {
        batch = std::move(pending_);
        pending_.clear();
        drops = std::move(pending_drops_);
        pending_drops_.clear();
        stats_.preempted += batch.size() + drops.size();
        lock.unlock();
        const auto err = std::make_exception_ptr(PreemptedError(
            "job preempted: scheduler stopping before evaluation"));
        for (Pending& p : batch) p.promise.set_exception(err);
        for (PendingDrop& p : drops) p.promise.set_exception(err);
        return;
      }
      batch = std::move(pending_);
      pending_.clear();
      drops = std::move(pending_drops_);
      pending_drops_.clear();
      ++stats_.batches;
    }
    run_batch(batch);
    run_drops(drops);
  }
}

void Scheduler::run_drops(std::vector<PendingDrop>& drops) {
  for (PendingDrop& p : drops) {
    // The daemon owns the execution resources; the request owns only the
    // question. The shared in-memory cache stays out deliberately —
    // run_drop builds its own store view, and the store files are the
    // coherence point (exactly how the CLI behaves against the same dir).
    p.cfg.threads = opts_.threads;
    p.cfg.store_dir = store_dir_;
    p.cfg.cold_pass = cold_pass_hook();
    try {
      scenario::DropSummary summary = scenario::run_drop(p.cfg, nullptr);
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.drops;
        stats_.dedup += summary.totals;
      }
      p.promise.set_value(std::move(summary));
    } catch (...) {
      const std::exception_ptr err = std::current_exception();
      try {
        std::rethrow_exception(err);
      } catch (const PreemptedError&) {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.preempted;
      } catch (...) {
      }
      p.promise.set_exception(err);
    }
  }
}

void Scheduler::run_batch(std::vector<Pending>& batch) {
  // Group the whole drained queue by evaluation semantics; each group is
  // one pooled sweep_ber_deduped pass.
  std::map<GroupKey, std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < batch.size(); ++i)
    groups[group_key(batch[i].req)].push_back(i);

  for (const auto& [key, members] : groups) {
    const JobRequest& proto = batch[members.front()].req;

    // Concatenate in submission order: the dedup layer keys by first
    // appearance, so earlier submitters' configs define the
    // representatives — deterministic for a fixed queue content.
    std::vector<core::LinkConfig> all;
    std::vector<std::pair<std::size_t, std::size_t>> extents;  // offset, count
    for (const std::size_t i : members) {
      extents.emplace_back(all.size(), batch[i].req.configs.size());
      all.insert(all.end(), batch[i].req.configs.begin(),
                 batch[i].req.configs.end());
    }

    core::DedupOptions dopts;
    dopts.surrogate.store_dir = store_dir_;
    dopts.surrogate.axis = proto.axis;
    dopts.surrogate.rule = proto.rule;
    dopts.surrogate.threads = opts_.threads;
    dopts.surrogate.cache = proto.use_store ? &cache_ : nullptr;
    dopts.bin_width_db = proto.bin_width_db;
    dopts.use_store = proto.use_store;
    dopts.cold_pass = cold_pass_hook();

    try {
      core::DedupStats dstats;
      const std::vector<core::BerResult> results =
          core::sweep_ber_deduped(all, dopts, &dstats);
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.groups;
        stats_.dedup += dstats;
      }
      for (std::size_t m = 0; m < members.size(); ++m) {
        const auto [offset, count] = extents[m];
        JobResult jr;
        jr.results.assign(results.begin() + static_cast<std::ptrdiff_t>(offset),
                          results.begin() +
                              static_cast<std::ptrdiff_t>(offset + count));
        jr.stats = dstats;
        jr.stats.queries = count;  // group-level dedup, per-job query count
        batch[members[m]].promise.set_value(std::move(jr));
      }
    } catch (...) {
      const std::exception_ptr err = std::current_exception();
      bool preempted = false;
      try {
        std::rethrow_exception(err);
      } catch (const PreemptedError&) {
        preempted = true;
      } catch (...) {
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (preempted) stats_.preempted += members.size();
      }
      for (const std::size_t i : members)
        batch[i].promise.set_exception(err);
    }
  }
}

}  // namespace wlansim::service
