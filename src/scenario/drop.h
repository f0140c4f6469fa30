// The network-scale drop engine: N stations placed in an area around an
// AP, log-distance path loss + lognormal shadowing + random-walk mobility,
// co-channel / adjacent-channel interferer BSSs — every station-step
// evaluated through the REAL PHY/RF chain (what distinguishes this from an
// abstracted network simulator), at throughput scale.
//
// The perf core (layer 2): a drop's link evaluations collapse onto a few
// distinct (front-end fingerprint, quantized-SNR-bin) points, so each step
// routes its stations through core::sweep_ber_deduped — warm bins answered
// from the calibration store, all cold bins batched into ONE pooled
// adaptive Monte-Carlo pass, then backfilled so the next mobility step
// (and the next run) is warm.
//
// Determinism: geometry is a pure function of (seed, stream, entity, step)
// — see scenario/geometry.h — and the link evaluations inherit the
// adaptive engine's (configs, rule)-purity, so a drop's samples are
// byte-identical across thread counts. Wall-clock fields are excluded from
// samples for exactly that reason.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/surrogate.h"
#include "scenario/geometry.h"

namespace wlansim::scenario {

/// One interfering BSS (an always-transmitting AP).
struct InterfererBss {
  Vec2 position{};
  double tx_power_dbm = 16.0;
  /// 0 = co-channel: its received power adds to the noise floor
  /// (interference-as-noise), lowering the station's SINR. Non-zero =
  /// adjacent-channel: run through the real PHY interferer path
  /// (channel::InterfererConfig) at the geometry-derived level. All
  /// adjacent BSSs of a drop must share one offset; their powers sum.
  double offset_hz = 0.0;
};

struct DropConfig {
  // --- Geometry -----------------------------------------------------------
  std::size_t num_stations = 100;
  std::size_t num_steps = 1;
  /// Stations walk inside [-area_half_m, area_half_m]^2; the AP sits at
  /// `ap` (default: the center).
  double area_half_m = 50.0;
  Vec2 ap{};
  double tx_power_dbm = 16.0;
  double noise_figure_db = 7.0;
  double bandwidth_hz = 20e6;  ///< noise bandwidth for the floor
  PathLossConfig path_loss;
  MobilityConfig mobility;
  std::vector<InterfererBss> interferers;
  std::uint64_t seed = 1;

  // --- Link (layer below the geometry) ------------------------------------
  /// Base link every station runs: rate, PSDU size, RF front-end, receiver.
  /// snr_db and interferer are overwritten per station-step from the
  /// geometry; everything else is shared (and so is the surrogate
  /// fingerprint). The config seed stays — it is part of the key.
  core::LinkConfig link;

  // --- Dedup / evaluation (the perf contract) ------------------------------
  /// SNR quantization bin [dB] for deduplication (core::quantize_axis).
  double snr_bin_db = 0.5;
  /// Geometry SNRs clamp onto [snr_min_db, snr_max_db] before binning:
  /// beyond the span the BER curve is flat (error floor / error-free), so
  /// the clamp bounds the distinct-bin count without moving any result
  /// that matters.
  double snr_min_db = 0.0;
  double snr_max_db = 30.0;
  /// Adjacent-interferer level quantization bin [dB] (the level is part of
  /// the fingerprint, so binning it bounds the distinct-curve count).
  double adj_bin_db = 2.0;
  /// Adjacent interference below this level relative to the wanted signal
  /// is dropped entirely (negligible, and each distinct level is a whole
  /// calibration curve).
  double adj_floor_db = -10.0;
  /// Stopping rule for the pooled adaptive passes (and the store key).
  sim::StoppingRule rule;
  std::size_t threads = 0;
  /// false: pure dedup, no calibration store (cross-step warmth is lost).
  bool use_store = true;
  /// Calibration store directory; empty = core::default_calibration_dir().
  std::filesystem::path store_dir;
  /// Optional replacement for each step's pooled cold pass, forwarded into
  /// core::DedupOptions::cold_pass — the service layer routes this to its
  /// checkpointed executor so a drop served over the socket checkpoints and
  /// resumes exactly like a sweep job.
  /// Same bit-identity contract as core::ColdPassFn.
  core::ColdPassFn cold_pass;
};

/// One station at one mobility step, with its link evaluation.
struct StationSample {
  std::uint32_t step = 0;
  std::uint32_t station = 0;
  Vec2 pos{};
  double dist_m = 0.0;          ///< to the serving AP
  double path_loss_db = 0.0;    ///< deterministic part (no shadowing)
  double shadowing_db = 0.0;    ///< AP-link shadowing draw
  double snr_db = 0.0;          ///< geometry SINR, clamped onto the axis span
  double snr_bin_db = 0.0;      ///< quantized evaluation point
  /// Quantized adjacent-interferer level relative to the wanted signal
  /// [dB]; nullopt when no adjacent BSS is audible above the floor.
  std::optional<double> adj_level_db;
  core::BerResult result;       ///< link evaluation at the binned point
  double goodput_mbps = 0.0;    ///< rate * (1 - PER): PHY goodput
};

struct StepSummary {
  std::uint32_t step = 0;
  core::DedupStats dedup;
  double wall_seconds = 0.0;  ///< measurement wall clock (NOT in samples)
  double mean_snr_db = 0.0;
  double mean_ber = 0.0;
  double mean_goodput_mbps = 0.0;
};

struct DropSummary {
  std::vector<StepSummary> steps;
  core::DedupStats totals;
  double wall_seconds = 0.0;
};

/// Stream sink for samples, called in deterministic (step-major, station-
/// ascending) order — a million-station drop never needs to hold its
/// samples in memory.
using SampleSink = std::function<void(const StationSample&)>;

/// Run the drop: for each step, update mobility, derive every station's
/// SINR, evaluate all stations through core::sweep_ber_deduped, and emit
/// samples to `sink`.
DropSummary run_drop(const DropConfig& cfg, const SampleSink& sink);

/// Convenience wrapper collecting every sample (small drops / tests).
DropSummary run_drop_collect(const DropConfig& cfg,
                             std::vector<StationSample>& samples);

/// Render `summary` as the CLI's per-step table (header, one row per step,
/// totals line) — the exact bytes `wlansim drop` prints, shared with the
/// service path so `wlansim_client drop` output is byte-identical.
std::string drop_summary_table(const DropSummary& summary);

/// The exact LinkConfig the drop evaluated for `s` (base link + binned SNR
/// + quantized adjacent interferer): running core::run_ber_adaptive on it
/// under cfg.rule reproduces a cold sample's counters bit-for-bit — the
/// dedup-vs-direct identity contract, pinned by tests/scenario/.
core::LinkConfig sample_link_config(const DropConfig& cfg,
                                    const StationSample& s);

}  // namespace wlansim::scenario
