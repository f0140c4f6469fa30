#include "core/parallel.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
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

/// Packets per scheduling chunk: large enough that chunk handoff is noise
/// next to a packet's cost, small enough to balance tail latency.
constexpr std::size_t kPacketChunk = 8;

/// The calling worker's cached link, rebuilt only when the key changes.
/// Lives on the pool's persistent threads, so repeated measurements of one
/// configuration construct each worker's link exactly once.
WlanLink& worker_link(const LinkConfig& cfg, const std::string& key) {
  thread_local std::string cached_key;
  thread_local std::unique_ptr<WlanLink> link;
  if (!link || cached_key != key) {
    link = std::make_unique<WlanLink>(cfg);
    cached_key = key;
  }
  return *link;
}

/// A sweep worker holds one link per sweep point (keyed by the full config
/// fingerprint), unlike worker_link's single slot: the joint schedule
/// alternates points within a chunk, and rebuilding a link per item would
/// dwarf the memoization win. The map dies with its thread, so the
/// dedicated pool of a `threads > 0` call frees its links when it joins.
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

BerResult reduce_in_packet_order(std::span<const PacketResult> results) {
  // Sequential fold in packet order — the exact arithmetic of
  // WlanLink::run_ber, so the parallel result matches bit for bit.
  BerResult agg;
  double evm_acc = 0.0;
  std::size_t evm_n = 0;
  for (const PacketResult& r : results) {
    ++agg.packets;
    agg.bits += r.bits;
    agg.bit_errors += r.bit_errors;
    if (r.bit_errors > 0 || !r.decoded) ++agg.packet_errors;
    if (!r.decoded) {
      ++agg.packets_lost;
    } else {
      evm_acc += r.evm_rms;
      ++evm_n;
    }
  }
  agg.evm_rms_avg = evm_n ? evm_acc / static_cast<double>(evm_n) : 0.0;
  agg.ber_ci_rel = sim::wilson_rel_halfwidth(agg.bit_errors, agg.bits,
                                             kDefaultConfidenceZ);
  return agg;
}

/// Run packets [begin, end) of one point as a lockstep lane wave when the
/// width and configuration allow it, else packet by packet on the scalar
/// path. `scenes` (null = unmemoized) and `out` are lane-indexed: slot p
/// belongs to packet begin + p. Both paths are bit-identical, so callers
/// never need to know which one ran.
void run_chunk(WlanLink& link, std::size_t begin, std::size_t end,
               TxScene* scenes, PacketResult* out, std::size_t batch_width) {
  const std::size_t count = end - begin;
  if (batch_width >= 2 && count >= 2 && count <= batch_width) {
    thread_local PacketBatch batch;  // per-worker, reused across waves
    if (link.run_packet_wave(begin, count, batch, scenes, out)) return;
  }
  for (std::size_t p = 0; p < count; ++p)
    out[p] = scenes != nullptr ? link.run_packet_memo(begin + p, scenes[p])
                               : link.run_packet(begin + p);
}

BerResult run_ber_parallel_impl(const LinkConfig& cfg, std::size_t num_packets,
                                std::size_t threads,
                                std::size_t batch_width) {
  if (num_packets == 0) return {};

  std::string key = link_fingerprint(cfg);
  if (key.empty()) {
    // Not fingerprintable: key the cache to this call so links are fresh
    // per call but still shared by all packets of the call.
    static std::atomic<std::uint64_t> serial{0};
    key = "#call-" + std::to_string(++serial);
  }

  // Work items are 8-packet chunks (not packets): each chunk runs as one
  // lockstep lane wave where the config supports it, scalar otherwise —
  // either way bit-identical to the per-packet loop.
  std::vector<PacketResult> results(num_packets);
  const std::size_t nchunks = (num_packets + kPacketChunk - 1) / kPacketChunk;
  const auto body = [&](std::size_t /*worker*/, std::size_t c) {
    const std::size_t begin = c * kPacketChunk;
    const std::size_t end = std::min(begin + kPacketChunk, num_packets);
    run_chunk(worker_link(cfg, key), begin, end, nullptr, &results[begin],
              batch_width);
  };

  // More threads than 8-packet chunks would only contend on the queue.
  const std::size_t max_useful = nchunks;
  if (threads == 0) {
    ThreadPool::shared().parallel_for(nchunks, 1, body);
  } else if (std::min(threads, max_useful) <= 1) {
    for (std::size_t c = 0; c < nchunks; ++c) body(0, c);
  } else {
    ThreadPool dedicated(std::min(threads, max_useful));
    dedicated.parallel_for(nchunks, 1, body);
  }
  return reduce_in_packet_order(results);
}

}  // namespace

BerResult run_ber_parallel(const LinkConfig& cfg, std::size_t num_packets,
                           std::size_t threads) {
  return run_ber_parallel_impl(cfg, num_packets, threads, kPacketChunk);
}

namespace {

/// Joint (point, packet-chunk) schedule with TX-scene memoization. Work
/// item i covers packet chunk i/npts at sweep point i%npts; the chunk-major
/// order means a worker draining consecutive items runs one chunk across
/// all points — building each packet's TX scene at the first point it
/// serves and replaying it (bit-identically) at the rest. Per-point results
/// still reduce in packet order, so the output matches the sequential
/// per-point sweep bit for bit.
std::vector<BerResult> sweep_ber_memoized(std::span<const LinkConfig> configs,
                                          std::size_t num_packets,
                                          std::size_t threads,
                                          std::size_t batch_width,
                                          std::span<const std::string> keys) {
  static std::atomic<std::uint64_t> sweep_serial{0};
  const std::uint64_t sweep_id = ++sweep_serial;
  const std::size_t npts = configs.size();
  const std::size_t nchunks =
      (num_packets + kPacketChunk - 1) / kPacketChunk;
  const std::size_t nitems = nchunks * npts;

  std::vector<std::vector<PacketResult>> results(npts);
  for (auto& r : results) r.resize(num_packets);

  const auto body = [&](std::size_t /*worker*/, std::size_t item) {
    const std::size_t k = item % npts;
    const std::size_t chunk = item / npts;
    thread_local SceneCache cache;
    if (cache.sweep_id != sweep_id || cache.chunk != chunk) {
      cache.sweep_id = sweep_id;
      cache.chunk = chunk;
      cache.scenes.assign(kPacketChunk, TxScene());
    }
    WlanLink& link = sweep_worker_link(configs[k], keys[k]);
    const std::size_t begin = chunk * kPacketChunk;
    const std::size_t end = std::min(begin + kPacketChunk, num_packets);
    run_chunk(link, begin, end, cache.scenes.data(), &results[k][begin],
              batch_width);
  };

  // Granularity npts: a worker claims one chunk's items across all points
  // contiguously, so it builds each scene once and replays it npts-1 times
  // — two workers never duplicate a chunk's scene builds.
  const std::size_t max_useful = nchunks;
  if (threads == 0) {
    ThreadPool::shared().parallel_for(nitems, npts, body);
  } else if (std::min(threads, max_useful) <= 1) {
    for (std::size_t i = 0; i < nitems; ++i) body(0, i);
  } else {
    ThreadPool dedicated(std::min(threads, max_useful));
    dedicated.parallel_for(nitems, npts, body);
  }

  std::vector<BerResult> out;
  out.reserve(npts);
  for (const auto& r : results) out.push_back(reduce_in_packet_order(r));
  return out;
}

}  // namespace

std::vector<BerResult> sweep_ber_parallel(std::span<const LinkConfig> configs,
                                          std::size_t num_packets,
                                          const SweepOptions& opts) {
  const std::size_t npts = configs.size();
  if (npts == 0) return {};

  // Memoize only when every point shares one TX-side fingerprint and every
  // full config is fingerprintable (the worker link-cache key).
  bool memo = opts.memoize_tx && npts > 1 && num_packets > 0;
  std::vector<std::string> keys;
  if (memo) {
    const std::string tx0 = tx_scene_fingerprint(configs[0]);
    if (tx0.empty()) memo = false;
    keys.reserve(npts);
    for (std::size_t k = 0; memo && k < npts; ++k) {
      if (k > 0 && tx_scene_fingerprint(configs[k]) != tx0) memo = false;
      keys.push_back(link_fingerprint(configs[k]));
      if (keys.back().empty()) memo = false;
    }
  }
  if (!memo) {
    std::vector<BerResult> out;
    out.reserve(npts);
    for (const LinkConfig& cfg : configs)
      out.push_back(run_ber_parallel_impl(cfg, num_packets, opts.threads,
                                          opts.batch_width));
    return out;
  }
  return sweep_ber_memoized(configs, num_packets, opts.threads,
                            opts.batch_width, keys);
}

std::vector<BerResult> sweep_ber_parallel(std::span<const LinkConfig> configs,
                                          std::size_t num_packets,
                                          std::size_t threads) {
  SweepOptions opts;
  opts.threads = threads;
  return sweep_ber_parallel(configs, num_packets, opts);
}

// ---------------------------------------------------------------------------
// Adaptive Monte-Carlo engine
// ---------------------------------------------------------------------------

namespace {

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
/// packet order (the exact arithmetic of reduce_in_packet_order), so the
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

/// One ≤8-packet chunk of one point, the unit workers claim from the shared
/// wave queue.
struct WaveItem {
  std::size_t point = 0;
  std::size_t begin = 0;
  std::size_t end = 0;
};

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
  // TX memoization, exactly like the fixed engines.
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
  std::vector<WaveItem> items;
  std::optional<ThreadPool> dedicated;

  const auto body = [&](std::size_t /*worker*/, std::size_t i) {
    const WaveItem& it = items[i];
    WlanLink& link = sweep_worker_link(configs[it.point], keys[it.point]);
    if (memo) {
      // Same per-chunk scene cache as the fixed memoized sweep: with the
      // queue ordered chunk-major, a worker draining consecutive items runs
      // one chunk across every point still active, building each packet's
      // TX scene once and replaying it at the rest.
      thread_local SceneCache cache;
      const std::size_t chunk = it.begin / kPacketChunk;
      if (cache.sweep_id != sweep_id || cache.chunk != chunk) {
        cache.sweep_id = sweep_id;
        cache.chunk = chunk;
        cache.scenes.assign(kPacketChunk, TxScene());
      }
      run_chunk(link, it.begin, it.end, cache.scenes.data(),
                &pts[it.point].results[it.begin], opts.batch_width);
    } else {
      run_chunk(link, it.begin, it.end, nullptr,
                &pts[it.point].results[it.begin], opts.batch_width);
    }
  };

  while (true) {
    // --- Schedule the next wave over every still-active point -------------
    items.clear();
    std::size_t active = 0;
    for (std::size_t k = 0; k < npts; ++k) {
      AdaptivePoint& P = pts[k];
      if (P.stopped) continue;
      const std::size_t wave = next_wave_size(rule, P.scheduled);
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

    // Chunk-major queue order: all points' copies of a chunk are adjacent,
    // which is what lets one worker reuse a TX scene across points. Points
    // at different depths simply have no queue neighbors to share with.
    std::sort(items.begin(), items.end(),
              [](const WaveItem& a, const WaveItem& b) {
                const std::size_t ca = a.begin / kPacketChunk;
                const std::size_t cb = b.begin / kPacketChunk;
                return ca != cb ? ca < cb : a.point < b.point;
              });

    // One shared queue per wave = cross-point work stealing: a worker done
    // with a converged-point chunk immediately claims whatever straggler
    // chunks remain.
    const std::size_t granularity = memo ? std::max<std::size_t>(active, 1) : 1;
    if (opts.threads == 0) {
      ThreadPool::shared().parallel_for(items.size(), granularity, body);
    } else if (opts.threads <= 1) {
      for (std::size_t i = 0; i < items.size(); ++i) body(0, i);
    } else {
      if (!dedicated) dedicated.emplace(opts.threads);
      dedicated->parallel_for(items.size(), granularity, body);
    }

    // --- Deterministic stopping scan on the in-order prefix ---------------
    // The stop index is the earliest quantum boundary whose prefix meets the
    // rule (or the cap), regardless of how far the wave overshot; the
    // speculative packets past it are discarded. The fold mirrors
    // reduce_in_packet_order term for term, so the accumulated state at any
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
