#include "core/parallel.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "core/fingerprint.h"
#include "core/packet_batch.h"
#include "core/thread_pool.h"

namespace wlansim::core {

namespace {

/// Packets per chunk: the longest run a work item holds (one full lane
/// wave) and the span of a worker's TX-scene cache. Deep waves hand out
/// whole chunks; shallow ones cut them into shorter runs.
constexpr std::size_t kPacketChunk = 8;

/// A worker holds one link per sweep point (keyed by the full config
/// fingerprint): the joint schedule alternates points within a chunk, and
/// rebuilding a link per item would dwarf the memoization win. The map
/// dies with its thread, so the dedicated pool of a `threads > 0` call
/// frees its links when it joins.
WlanLink& sweep_worker_link(const LinkConfig& cfg, const std::string& key) {
  thread_local std::unordered_map<std::string, std::unique_ptr<WlanLink>>
      links;
  auto it = links.find(key);
  if (it == links.end()) {
    if (links.size() >= 64) links.clear();  // bound long-lived growth
    it = links.emplace(key, std::make_unique<WlanLink>(cfg)).first;
  }
  return *it->second;
}

/// Per-worker TX scenes for the packet chunk the worker is currently
/// sweeping across points. Invalidated whenever the worker moves to a
/// different chunk (or a different sweep call).
struct SceneCache {
  std::uint64_t sweep_id = 0;
  std::size_t chunk = static_cast<std::size_t>(-1);
  std::vector<TxScene> scenes;
};

/// Run packets [begin, end) of one point as one lockstep lane wave, or
/// packet by packet on the graph for configs that need it. `scenes` (null =
/// unmemoized) and `out` are lane-indexed: slot p belongs to packet
/// begin + p. Both engines give the same bits, so callers never need to
/// know which one ran.
void run_chunk(WlanLink& link, std::size_t begin, std::size_t end,
               TxScene* scenes, PacketResult* out) {
  const std::size_t count = end - begin;
  thread_local PacketBatch batch;  // per-worker, reused across waves
  if (link.run_packet_wave(begin, count, batch, scenes, out)) return;
  for (std::size_t p = 0; p < count; ++p)
    out[p] = scenes != nullptr ? link.run_packet_memo(begin + p, scenes[p])
                               : link.run_packet(begin + p);
}

/// Stopping-rule boundaries are multiples of kStopQuantum (plus the cap),
/// so the stop index never depends on how waves happened to be sized.
/// Public as kAdaptiveStopQuantum: it is also the checkpoint/resume unit.
constexpr std::size_t kStopQuantum = kAdaptiveStopQuantum;
static_assert(kAdaptiveStopQuantum == kPacketChunk,
              "resume contract: checkpoint boundaries are packet chunks");

/// Wave sizing: geometric growth between kWaveMin and kWaveMax packets per
/// point, quantum-aligned. Purely a throughput knob — the stop index is
/// invariant to it (parallel.h determinism contract); larger waves only run
/// more speculative packets past the stop.
constexpr std::size_t kWaveMin = 2 * kPacketChunk;
constexpr std::size_t kWaveMax = 32 * kPacketChunk;

std::size_t round_up_quantum(std::size_t n) {
  return (n + kStopQuantum - 1) / kStopQuantum * kStopQuantum;
}

std::size_t next_wave_size(const sim::StoppingRule& rule,
                           std::size_t scheduled) {
  std::size_t w = std::clamp(scheduled, kWaveMin, kWaveMax);
  if (scheduled == 0) w = std::max(w, round_up_quantum(rule.min_packets));
  w = round_up_quantum(w);
  return std::min(w, rule.max_packets - scheduled);
}

/// Scheduler state of one sweep point. The reduction is streaming: the
/// stopping scan folds each quantum's packets into the accumulators in
/// packet order (the exact arithmetic of WlanLink::run_ber), so the
/// state at any quantum boundary is checkpointable as a SweepPointProgress
/// and the final BerResult needs no second pass over raw results.
struct AdaptivePoint {
  std::vector<PacketResult> results;  ///< per-packet slots, sized to `scheduled`
  std::size_t scheduled = 0;   ///< packets dispatched to workers so far
  std::size_t evaluated = 0;   ///< in-order prefix consumed by the rule scan
  std::size_t bits = 0;          ///< prefix bit count
  std::size_t bit_errors = 0;    ///< prefix bit-error count
  std::size_t packets_lost = 0;  ///< prefix header/sync failures
  std::size_t packet_errors = 0; ///< prefix lost-or-errored packets
  double evm_sum = 0.0;          ///< prefix EVM fold (decoded packets)
  std::size_t evm_packets = 0;
  bool stopped = false;
  bool converged = false;      ///< rule met (vs. ran into the cap)
  std::size_t stop_index = 0;  ///< valid once stopped
  double wall_seconds = 0.0;   ///< sweep start -> stopping decision

  SweepPointProgress progress() const {
    SweepPointProgress p;
    p.packets = stopped ? stop_index : evaluated;
    p.packets_lost = packets_lost;
    p.packet_errors = packet_errors;
    p.bits = bits;
    p.bit_errors = bit_errors;
    p.evm_sum = evm_sum;
    p.evm_packets = evm_packets;
    p.stopped = stopped;
    p.converged = converged;
    return p;
  }

  void restore(const SweepPointProgress& p) {
    scheduled = evaluated = static_cast<std::size_t>(p.packets);
    bits = static_cast<std::size_t>(p.bits);
    bit_errors = static_cast<std::size_t>(p.bit_errors);
    packets_lost = static_cast<std::size_t>(p.packets_lost);
    packet_errors = static_cast<std::size_t>(p.packet_errors);
    evm_sum = p.evm_sum;
    evm_packets = static_cast<std::size_t>(p.evm_packets);
    stopped = p.stopped;
    converged = p.converged;
    stop_index = stopped ? static_cast<std::size_t>(p.packets) : 0;
  }
};

/// A run of packets [begin, end) of one point, the unit workers claim from
/// the shared wave queue. A run never crosses an 8-packet chunk boundary.
struct WaveItem {
  std::size_t point = 0;
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// Runs of `len` packets the chunk items `chunks` cut into.
std::size_t count_runs(const std::vector<WaveItem>& chunks, std::size_t len) {
  std::size_t n = 0;
  for (const WaveItem& c : chunks) n += (c.end - c.begin + len - 1) / len;
  return n;
}

/// Cut a wave's chunk items into work for `workers` workers: 8-packet runs,
/// halved (8 -> 4 -> 2 -> 1) while the wave holds fewer runs than workers,
/// so a shallow wave still feeds the whole pool. Runs stay inside their
/// chunk, so the stop quantum, checkpoint boundaries and the per-chunk
/// scene cache see the same chunks at any pool size. The result is sorted
/// by (run begin, point): every point's copy of one run is adjacent, which
/// is what lets one worker build a TX scene once and replay it at the
/// points after it. For 8-packet runs this is chunk-major order.
void cut_wave(std::vector<WaveItem>& items, std::size_t workers) {
  std::size_t len = kPacketChunk;
  while (len > 1 && count_runs(items, len) < workers) len /= 2;
  if (len < kPacketChunk) {
    std::vector<WaveItem> runs;
    runs.reserve(count_runs(items, len));
    for (const WaveItem& c : items)
      for (std::size_t b = c.begin; b < c.end; b += len)
        runs.push_back({c.point, b, std::min(b + len, c.end)});
    items.swap(runs);
  }
  std::sort(items.begin(), items.end(),
            [](const WaveItem& a, const WaveItem& b) {
              return a.begin != b.begin ? a.begin < b.begin
                                        : a.point < b.point;
            });
}

}  // namespace

std::vector<BerResult> sweep_ber_adaptive_resumable(
    std::span<const LinkConfig> configs, const sim::StoppingRule& rule,
    const SweepOptions& opts, AdaptiveResume* resume) {
  const std::size_t npts = configs.size();
  if (npts == 0) return {};
  if (rule.max_packets == 0)
    throw std::invalid_argument(
        "sweep_ber_adaptive: StoppingRule::max_packets must be > 0");
  if (resume != nullptr && !resume->progress.empty() &&
      resume->progress.size() != npts)
    throw std::invalid_argument(
        "sweep_ber_adaptive_resumable: resume progress must be empty or have "
        "one entry per config");

  const auto t0 = std::chrono::steady_clock::now();
  const auto elapsed = [&t0] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  };

  static std::atomic<std::uint64_t> adaptive_serial{0};
  const std::uint64_t sweep_id = ++adaptive_serial;

  // Worker link-cache keys; a non-fingerprintable config gets a call-unique
  // key (fresh links for this call, shared by all its packets) and disables
  // TX memoization.
  std::vector<std::string> keys(npts);
  bool memo = opts.memoize_tx && npts > 1;
  for (std::size_t k = 0; k < npts; ++k) {
    keys[k] = link_fingerprint(configs[k]);
    if (keys[k].empty()) {
      keys[k] = "#adaptive-" + std::to_string(sweep_id) + "-" +
                std::to_string(k);
      memo = false;
    }
  }
  if (memo) {
    const std::string tx0 = tx_scene_fingerprint(configs[0]);
    if (tx0.empty()) memo = false;
    for (std::size_t k = 1; memo && k < npts; ++k)
      if (tx_scene_fingerprint(configs[k]) != tx0) memo = false;
  }

  std::vector<AdaptivePoint> pts(npts);
  if (resume != nullptr && !resume->progress.empty()) {
    for (std::size_t k = 0; k < npts; ++k) {
      const SweepPointProgress& p = resume->progress[k];
      if (p.packets > rule.max_packets ||
          (!p.stopped && (p.packets >= rule.max_packets ||
                          p.packets % kStopQuantum != 0)))
        throw std::invalid_argument(
            "sweep_ber_adaptive_resumable: resume progress for point " +
            std::to_string(k) +
            " is not a valid quantum-boundary state under this rule");
      pts[k].restore(p);
      // Slots [0, scheduled) are never touched again — the prefix already
      // lives in the accumulators; only packets from `scheduled` on run.
      pts[k].results.resize(pts[k].scheduled);
    }
  }
  if (resume != nullptr) resume->preempted = false;

  // A fixed budget with no hook to serve runs as one wave (parallel.h,
  // "Cutting waves"): no point can stop before its cap.
  const bool one_wave = rule.target_rel_ci <= 0.0 &&
                        (resume == nullptr || !resume->on_wave);

  // The pool that runs every wave, and its size: the shared pool, or a
  // dedicated one no larger than the packets this call can still run
  // (1 = inline on the caller).
  std::optional<ThreadPool> dedicated;
  std::size_t workers = 1;
  if (opts.threads == 0) {
    workers = ThreadPool::shared().size();
  } else if (opts.threads > 1) {
    std::size_t runnable = 0;  // saturates at opts.threads
    for (const AdaptivePoint& P : pts)
      if (!P.stopped)
        runnable += std::min(opts.threads - runnable,
                             rule.max_packets - P.scheduled);
    if (runnable > 1) {
      dedicated.emplace(runnable);
      workers = runnable;
    }
  }

  std::vector<WaveItem> items;
  const auto body = [&](std::size_t /*worker*/, std::size_t i) {
    const WaveItem& it = items[i];
    WlanLink& link = sweep_worker_link(configs[it.point], keys[it.point]);
    TxScene* scenes = nullptr;
    if (memo) {
      // A worker draining consecutive items runs one packet run across the
      // points of its claim, building each packet's TX scene at the first
      // and replaying it at the rest. The cache spans the run's chunk, so
      // the chunk's other runs find their slots too.
      thread_local SceneCache cache;
      const std::size_t chunk = it.begin / kPacketChunk;
      if (cache.sweep_id != sweep_id || cache.chunk != chunk) {
        cache.sweep_id = sweep_id;
        cache.chunk = chunk;
        cache.scenes.assign(kPacketChunk, TxScene());
      }
      scenes = cache.scenes.data() + (it.begin - chunk * kPacketChunk);
    }
    run_chunk(link, it.begin, it.end, scenes,
              &pts[it.point].results[it.begin]);
  };

  while (true) {
    // --- Schedule the next wave over every still-active point -------------
    items.clear();
    std::size_t active = 0;
    for (std::size_t k = 0; k < npts; ++k) {
      AdaptivePoint& P = pts[k];
      if (P.stopped) continue;
      const std::size_t wave = one_wave ? rule.max_packets - P.scheduled
                                        : next_wave_size(rule, P.scheduled);
      if (wave == 0) continue;  // at the cap; the scan below retires it
      ++active;
      const std::size_t begin = P.scheduled;
      P.scheduled += wave;
      P.results.resize(P.scheduled);
      for (std::size_t b = begin; b < P.scheduled; b += kPacketChunk)
        items.push_back(
            {k, b, std::min(b + kPacketChunk, P.scheduled)});
    }
    if (items.empty()) break;
    cut_wave(items, workers);

    // One shared queue per wave = cross-point work stealing: a worker done
    // with a converged point's run immediately claims whatever straggler
    // runs remain. A memoized claim takes up to one run across every
    // active point (no scene is built twice) but never more than an even
    // share of the wave, so a shallow wave still reaches every worker;
    // deep waves keep whole-run claims.
    const std::size_t claim =
        memo ? std::clamp<std::size_t>(items.size() / workers, 1, active) : 1;
    if (dedicated) {
      dedicated->parallel_for(items.size(), claim, body);
    } else if (opts.threads == 0) {
      ThreadPool::shared().parallel_for(items.size(), claim, body);
    } else {
      for (std::size_t i = 0; i < items.size(); ++i) body(0, i);
    }

    // --- Deterministic stopping scan on the in-order prefix ---------------
    // The stop index is the earliest quantum boundary whose prefix meets the
    // rule (or the cap), regardless of how far the wave overshot; the
    // speculative packets past it are discarded. The fold mirrors
    // WlanLink::run_ber term for term, so the accumulated state at any
    // boundary is the bit-exact streaming reduction of the prefix.
    for (std::size_t k = 0; k < npts; ++k) {
      AdaptivePoint& P = pts[k];
      if (P.stopped) continue;
      while (P.evaluated < P.scheduled) {
        const std::size_t b =
            std::min(P.evaluated + kStopQuantum, P.scheduled);
        for (std::size_t p = P.evaluated; p < b; ++p) {
          const PacketResult& r = P.results[p];
          P.bits += r.bits;
          P.bit_errors += r.bit_errors;
          if (r.bit_errors > 0 || !r.decoded) ++P.packet_errors;
          if (!r.decoded) {
            ++P.packets_lost;
          } else {
            P.evm_sum += r.evm_rms;
            ++P.evm_packets;
          }
        }
        P.evaluated = b;
        if (sim::stopping_rule_met(rule, b, P.bit_errors, P.bits)) {
          P.stopped = true;
          P.converged = true;
          P.stop_index = b;
          P.wall_seconds = elapsed();
          break;
        }
        if (b >= rule.max_packets) {
          P.stopped = true;
          P.converged = false;
          P.stop_index = rule.max_packets;
          P.wall_seconds = elapsed();
          break;
        }
      }
    }

    // --- Checkpoint hook / preemption --------------------------------------
    // Every point now sits at a quantum boundary, so the progress vector is
    // a complete resume state. A false return preempts: scheduling stops,
    // partial points keep their prefix statistics for a later resume.
    if (resume != nullptr && resume->on_wave) {
      resume->progress.resize(npts);
      for (std::size_t k = 0; k < npts; ++k)
        resume->progress[k] = pts[k].progress();
      if (!resume->on_wave(resume->progress)) {
        resume->preempted = true;
        break;
      }
    }
  }

  if (resume != nullptr) {
    resume->progress.resize(npts);
    for (std::size_t k = 0; k < npts; ++k)
      resume->progress[k] = pts[k].progress();
  }

  std::vector<BerResult> out;
  out.reserve(npts);
  for (std::size_t k = 0; k < npts; ++k) {
    const AdaptivePoint& P = pts[k];
    BerResult r;
    r.packets = P.stopped ? P.stop_index : P.evaluated;
    r.packets_lost = P.packets_lost;
    r.packet_errors = P.packet_errors;
    r.bits = P.bits;
    r.bit_errors = P.bit_errors;
    r.evm_rms_avg = P.evm_packets != 0
                        ? P.evm_sum / static_cast<double>(P.evm_packets)
                        : 0.0;
    r.ber_ci_rel =
        sim::wilson_rel_halfwidth(r.bit_errors, r.bits, rule.confidence_z);
    r.wall_seconds = P.wall_seconds;
    r.converged = P.converged;
    out.push_back(r);
  }
  return out;
}

std::vector<BerResult> sweep_ber_adaptive(std::span<const LinkConfig> configs,
                                          const sim::StoppingRule& rule,
                                          const SweepOptions& opts) {
  return sweep_ber_adaptive_resumable(configs, rule, opts, nullptr);
}

BerResult run_ber_adaptive(const LinkConfig& cfg, const sim::StoppingRule& rule,
                           std::size_t threads) {
  SweepOptions opts;
  opts.threads = threads;
  opts.memoize_tx = false;  // one point: no scene to share across points
  const auto out =
      sweep_ber_adaptive(std::span<const LinkConfig>(&cfg, 1), rule, opts);
  return out.empty() ? BerResult{} : out.front();
}

}  // namespace wlansim::core
