// Store-backed BER queries (core/surrogate.h) at bin width 0 — the plain
// surrogate query: fingerprint keying, the cold-path bit-identity contract
// (cold query == direct adaptive sweep), store backfill and warm replay,
// interpolation between stored knots, rule-matched warm hits, extending a
// stored curve, and the per-call store view that re-observes deleted files.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/experiments.h"
#include "core/fingerprint.h"
#include "core/parallel.h"
#include "core/surrogate.h"

namespace wlansim::core {
namespace {

namespace fs = std::filesystem;

fs::path test_store(const char* name) {
  fs::path dir = fs::path(::testing::TempDir()) / "wlansim-surrtest" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

LinkConfig cheap_config(double snr) {
  LinkConfig cfg = default_link_config();
  cfg.psdu_bytes = 60;
  cfg.snr_db = snr;
  return cfg;
}

std::vector<LinkConfig> waterfall(std::initializer_list<double> snrs) {
  std::vector<LinkConfig> points;
  for (const double snr : snrs) points.push_back(cheap_config(snr));
  return points;
}

sim::StoppingRule small_rule() {
  sim::StoppingRule rule;
  rule.target_rel_ci = 0.35;
  rule.min_errors = 25;
  rule.min_packets = 8;
  rule.max_packets = 40;
  return rule;
}

/// A plain surrogate query against `dir`: no axis quantization.
DedupOptions opts_with(const fs::path& dir) {
  DedupOptions opts;
  opts.surrogate.store_dir = dir;
  opts.surrogate.rule = small_rule();
  opts.bin_width_db = 0.0;
  return opts;
}

BerResult query(const LinkConfig& cfg, const DedupOptions& opts) {
  return sweep_ber_deduped(std::span<const LinkConfig>(&cfg, 1), opts)[0];
}

void expect_identical(const BerResult& a, const BerResult& b) {
  EXPECT_EQ(a.packets, b.packets);
  EXPECT_EQ(a.packet_errors, b.packet_errors);
  EXPECT_EQ(a.bits, b.bits);
  EXPECT_EQ(a.bit_errors, b.bit_errors);
  EXPECT_EQ(a.ber(), b.ber());
  EXPECT_EQ(a.per(), b.per());
  EXPECT_EQ(a.ber_ci_rel, b.ber_ci_rel);
  EXPECT_EQ(a.evm_rms_avg, b.evm_rms_avg);
}

// ---------------------------------------------------------------------------
// Fingerprints
// ---------------------------------------------------------------------------

TEST(SurrogateFingerprint, InvariantAlongAxisOnly) {
  const std::string key10 =
      surrogate_fingerprint(cheap_config(10.0), sim::SurrogateAxis::kSnrDb);
  const std::string key14 =
      surrogate_fingerprint(cheap_config(14.0), sim::SurrogateAxis::kSnrDb);
  ASSERT_FALSE(key10.empty());
  // The whole point of the curve key: sweep points share it.
  EXPECT_EQ(key10, key14);

  // Any front-end or framing field forces a different curve.
  LinkConfig hot = cheap_config(10.0);
  hot.rf.lna_p1db_in_dbm -= 10.0;
  EXPECT_NE(surrogate_fingerprint(hot, sim::SurrogateAxis::kSnrDb), key10);
  LinkConfig big = cheap_config(10.0);
  big.psdu_bytes = 61;
  EXPECT_NE(surrogate_fingerprint(big, sim::SurrogateAxis::kSnrDb), key10);

  // But the plain link fingerprint DOES see the axis value (sanity: the
  // canonicalization is specific to the surrogate key).
  EXPECT_NE(link_fingerprint(cheap_config(10.0)),
            link_fingerprint(cheap_config(14.0)));
}

TEST(SurrogateFingerprint, AxisTagSeparatesCurveFamilies) {
  LinkConfig cfg = cheap_config(10.0);
  cfg.rx_power_dbm = -60.0;
  const std::string snr_key =
      surrogate_fingerprint(cfg, sim::SurrogateAxis::kSnrDb);
  const std::string pwr_key =
      surrogate_fingerprint(cfg, sim::SurrogateAxis::kRxPowerDbm);
  ASSERT_FALSE(snr_key.empty());
  ASSERT_FALSE(pwr_key.empty());
  // Same config, different swept axis: different curve, even though the
  // canonicalized field values could coincide.
  EXPECT_NE(snr_key, pwr_key);

  // And the power-axis key is invariant along power.
  LinkConfig quieter = cfg;
  quieter.rx_power_dbm = -80.0;
  EXPECT_EQ(surrogate_fingerprint(quieter, sim::SurrogateAxis::kRxPowerDbm),
            pwr_key);
}

TEST(SurrogateFingerprint, UnsetAxisValueIsNotFingerprintable) {
  LinkConfig cfg = cheap_config(10.0);
  cfg.snr_db.reset();
  EXPECT_TRUE(surrogate_fingerprint(cfg, sim::SurrogateAxis::kSnrDb).empty());
}

TEST(SurrogateFingerprint, EveryLinkFieldIsKeyed) {
  // Perturb every LinkConfig field, nested ones included. link_fingerprint
  // must see each one except the bit-identical-by-contract list;
  // tx_scene_fingerprint exactly the TX-side fields of the memo contract
  // (docs/PERFORMANCE.md); surrogate_fingerprint everything but its own
  // axis. Every store-backed query is keyed by surrogate_fingerprint, so a
  // field missing here would serve one link's curve for another.
  LinkConfig base = cheap_config(10.0);
  base.fading = channel::FadingConfig{};  // reach the optional sub-fields
  base.interferer = channel::InterfererConfig{};
  base.tx_pa_backoff_db = 8.0;

  enum class Side { kTx, kRx, kContract };
  struct Field {
    const char* name;
    Side side;
    std::function<void(LinkConfig&)> perturb;
    std::optional<sim::SurrogateAxis> axis;  ///< set when an axis sweeps it
  };
#define FIELD(side, stmt) Field{#stmt, Side::side, [](LinkConfig& c) { stmt; }, {}}
  const std::vector<Field> fields = {
      FIELD(kTx, c.rate = phy::Rate::kMbps36),
      FIELD(kTx, c.psdu_bytes += 1),
      Field{"rx_power_dbm", Side::kTx,
            [](LinkConfig& c) { c.rx_power_dbm += 1.0; },
            sim::SurrogateAxis::kRxPowerDbm},
      Field{"snr_db", Side::kRx, [](LinkConfig& c) { *c.snr_db += 1.0; },
            sim::SurrogateAxis::kSnrDb},
      FIELD(kRx, c.antenna_noise_density_dbm_hz += 1.0),
      FIELD(kTx, c.fading.reset()),
      FIELD(kTx, c.fading->rms_delay_spread_s *= 2.0),
      FIELD(kTx, c.fading->sample_rate_hz *= 2.0),
      FIELD(kTx, c.fading->truncation *= 2.0),
      FIELD(kTx, c.fading->normalize = !c.fading->normalize),
      FIELD(kTx, c.interferer.reset()),
      FIELD(kTx, c.interferer->offset_hz = -c.interferer->offset_hz),
      FIELD(kTx, c.interferer->level_db += 1.0),
      FIELD(kTx, c.interferer->rate = phy::Rate::kMbps6),
      FIELD(kTx, c.interferer->psdu_bytes += 1),
      FIELD(kTx, c.sco_ppm += 1.0),
      FIELD(kTx, c.tx_pa_backoff_db.reset()),
      FIELD(kTx, *c.tx_pa_backoff_db += 1.0),
      FIELD(kTx, c.tx_pa_model = rf::NonlinearityModel::kClippedCubic),
      FIELD(kTx, c.tx_pa_am_pm_max_deg += 1.0),
      FIELD(kTx, c.tx_iq_gain_imbalance_db += 1.0),
      FIELD(kTx, c.tx_iq_phase_error_deg += 1.0),
      FIELD(kTx, c.tx_lo_leakage_rel += 0.01),
      FIELD(kTx, c.rf_engine = RfEngine::kCosim),
      FIELD(kTx, c.oversample = 8),
      FIELD(kRx, c.rf.sample_rate_hz *= 2.0),
      FIELD(kRx, c.rf.lna_gain_db += 1.0),
      FIELD(kRx, c.rf.lna_nf_db += 1.0),
      FIELD(kRx, c.rf.lna_p1db_in_dbm += 1.0),
      FIELD(kRx, c.rf.lna_model = rf::NonlinearityModel::kClippedCubic),
      FIELD(kRx, c.rf.lna_am_pm_max_deg += 1.0),
      FIELD(kRx, c.rf.mixer1_gain_db += 1.0),
      FIELD(kRx, c.rf.mixer2_gain_db += 1.0),
      FIELD(kRx, c.rf.lo_offset_hz += 1.0),
      FIELD(kRx, c.rf.lo_phase_noise.level_dbc_hz = -90.0),
      FIELD(kRx, c.rf.lo_phase_noise.offset_hz *= 2.0),
      FIELD(kRx, c.rf.mixer1_image_rejection_db += 1.0),
      FIELD(kRx, c.rf.mixer2_dc_offset.real(c.rf.mixer2_dc_offset.real() * 2)),
      FIELD(kRx, c.rf.mixer2_dc_offset.imag(c.rf.mixer2_dc_offset.imag() * 2)),
      FIELD(kRx, c.rf.mixer2_flicker_power_dbm += 1.0),
      FIELD(kRx, c.rf.flicker_corner_hz *= 2.0),
      FIELD(kRx, c.rf.hpf_order += 1),
      FIELD(kRx, c.rf.hpf_cutoff_hz *= 2.0),
      FIELD(kRx, c.rf.bb_filter_order += 1),
      FIELD(kRx, c.rf.bb_filter_ripple_db *= 2.0),
      FIELD(kRx, c.rf.bb_filter_edge_hz *= 1.1),
      FIELD(kRx, c.rf.bb_bandwidth_factor *= 1.1),
      FIELD(kRx, c.rf.agc.target_power_dbm += 1.0),
      FIELD(kRx, c.rf.agc.max_gain_db += 1.0),
      FIELD(kRx, c.rf.agc.min_gain_db += 1.0),
      FIELD(kRx, c.rf.agc.loop_gain *= 2.0),
      FIELD(kRx, c.rf.agc.attack_db_per_sample *= 2.0),
      FIELD(kRx, c.rf.agc.decay_db_per_sample *= 2.0),
      FIELD(kRx, c.rf.agc.detector_time_const *= 2.0),
      FIELD(kRx, c.rf.agc.initial_gain_db += 1.0),
      FIELD(kRx, c.rf.agc.lock_window_db += 1.0),
      FIELD(kRx, c.rf.agc.lock_count += 1),
      FIELD(kRx, c.rf.agc.unlock_window_db += 1.0),
      FIELD(kRx, c.rf.adc.bits += 1),
      FIELD(kRx, c.rf.adc.full_scale *= 2.0),
      FIELD(kRx, c.rf.adc.enabled = !c.rf.adc.enabled),
      FIELD(kRx, c.rf.noise_enabled = !c.rf.noise_enabled),
      FIELD(kRx, c.cosim.analog_oversample += 1),
      FIELD(kRx, c.cosim.supports_noise_functions =
                     !c.cosim.supports_noise_functions),
      FIELD(kRx, c.cosim.sync_overhead_ops += 1),
      FIELD(kRx, c.receiver.track_phase = !c.receiver.track_phase),
      FIELD(kRx, c.receiver.track_timing = !c.receiver.track_timing),
      FIELD(kRx, c.receiver.detect_threshold += 0.1),
      FIELD(kRx, c.receiver.chanest_smoothing += 2),
      FIELD(kTx, c.mode = sim::ExecutionMode::kInterpreted),
      FIELD(kTx, c.packet_path = PacketPath::kGraph),
      FIELD(kTx, c.lead_samples += 1),
      FIELD(kTx, c.tail_samples += 1),
      FIELD(kTx, c.seed += 1),
      FIELD(kContract, c.rf.agc.label = "renamed"),
      FIELD(kContract, c.rf.adc.label = "renamed"),
  };
#undef FIELD

  constexpr sim::SurrogateAxis kAxes[] = {sim::SurrogateAxis::kSnrDb,
                                          sim::SurrogateAxis::kRxPowerDbm};
  const std::string link0 = link_fingerprint(base);
  const std::string tx0 = tx_scene_fingerprint(base);
  ASSERT_FALSE(link0.empty());
  ASSERT_FALSE(tx0.empty());
  for (const Field& f : fields) {
    SCOPED_TRACE(f.name);
    LinkConfig c = base;
    f.perturb(c);
    const bool keyed = f.side != Side::kContract;
    EXPECT_EQ(link_fingerprint(c) != link0, keyed);
    EXPECT_EQ(tx_scene_fingerprint(c) != tx0, f.side == Side::kTx);
    for (const sim::SurrogateAxis axis : kAxes) {
      SCOPED_TRACE("axis " + std::string(sim::surrogate_axis_name(axis)));
      EXPECT_EQ(surrogate_fingerprint(c, axis) !=
                    surrogate_fingerprint(base, axis),
                keyed && f.axis != axis);
    }
  }

  // An unset SNR is keyed too (no excess noise is another link), and a
  // custom RF block makes a config unkeyable rather than mis-keyed.
  LinkConfig quiet = base;
  quiet.snr_db.reset();
  EXPECT_NE(link_fingerprint(quiet), link0);
  EXPECT_EQ(tx_scene_fingerprint(quiet), tx0);
  EXPECT_NE(surrogate_fingerprint(quiet, sim::SurrogateAxis::kRxPowerDbm),
            surrogate_fingerprint(base, sim::SurrogateAxis::kRxPowerDbm));
  LinkConfig custom = base;
  custom.custom_rf = [](dsp::Rng) { return std::unique_ptr<rf::RfBlock>(); };
  EXPECT_TRUE(link_fingerprint(custom).empty());
  EXPECT_TRUE(tx_scene_fingerprint(custom).empty());
  EXPECT_TRUE(
      surrogate_fingerprint(custom, sim::SurrogateAxis::kSnrDb).empty());
}

// ---------------------------------------------------------------------------
// Surrogate queries (sweep_ber_deduped at bin width 0)
// ---------------------------------------------------------------------------

TEST(SurrogateSweep, ColdFallbackBitIdenticalToAdaptiveSweep) {
  const DedupOptions opts = opts_with(test_store("cold"));
  const auto points = waterfall({10.0, 11.0, 12.0});

  const auto surr = sweep_ber_deduped(points, opts);
  const auto direct = sweep_ber_adaptive(points, opts.surrogate.rule);
  ASSERT_EQ(surr.size(), direct.size());
  for (std::size_t k = 0; k < surr.size(); ++k) {
    SCOPED_TRACE("point " + std::to_string(k));
    EXPECT_FALSE(surr[k].from_surrogate);  // store was cold: this IS the MC
    expect_identical(surr[k], direct[k]);
  }
}

TEST(SurrogateSweep, BackfillWarmsTheStore) {
  const DedupOptions opts = opts_with(test_store("warm"));
  const auto points = waterfall({10.0, 11.0, 12.0});

  const auto cold = sweep_ber_deduped(points, opts);
  DedupStats stats;
  const auto warm = sweep_ber_deduped(points, opts, &stats);
  EXPECT_EQ(stats.cold, 0u);
  ASSERT_EQ(warm.size(), cold.size());
  for (std::size_t k = 0; k < warm.size(); ++k) {
    SCOPED_TRACE("point " + std::to_string(k));
    EXPECT_TRUE(warm[k].from_surrogate);
    EXPECT_EQ(warm[k].packets, 0u);  // no packets were simulated
    // Knot queries return the stored measurement exactly, so the warm
    // answer equals the cold MC answer bit for bit.
    EXPECT_EQ(warm[k].ber(), cold[k].ber());
    EXPECT_EQ(warm[k].per(), cold[k].per());
    EXPECT_EQ(warm[k].ber_ci_rel, cold[k].ber_ci_rel);
    EXPECT_EQ(warm[k].evm_rms_avg, cold[k].evm_rms_avg);
  }
}

TEST(SurrogateSweep, InterpolatedPointRidesTheCurve) {
  const DedupOptions opts = opts_with(test_store("interp"));
  (void)sweep_ber_deduped(waterfall({10.0, 11.0}), opts);

  DedupStats stats;
  const auto res =
      sweep_ber_deduped(waterfall({10.5, 10.0, 11.0}), opts, &stats);
  EXPECT_EQ(stats.cold, 0u);  // the midpoint is interpolated, not measured
  const BerResult& mid = res[0];
  const BerResult& lo = res[1];
  const BerResult& hi = res[2];
  EXPECT_TRUE(mid.from_surrogate);
  // Monotone interpolation: the midpoint BER sits between its knots.
  EXPECT_LE(mid.ber(), std::max(lo.ber(), hi.ber()));
  EXPECT_GE(mid.ber(), std::min(lo.ber(), hi.ber()));
  // Conservative CI: no tighter than the looser bracketing knot.
  EXPECT_EQ(mid.ber_ci_rel, std::max(lo.ber_ci_rel, hi.ber_ci_rel));
}

TEST(SurrogateSweep, DeletedStoreIsObservedAndRefilledIdentically) {
  const fs::path dir = test_store("deleted");
  const DedupOptions opts = opts_with(dir);
  const auto points = waterfall({10.0, 11.0});

  const auto first = sweep_ber_deduped(points, opts);
  // Nuke the store mid-run (e.g. a cache janitor). The default per-call
  // store view must observe the deletion as a miss...
  fs::remove_all(dir);
  const auto refilled = sweep_ber_deduped(points, opts);
  ASSERT_EQ(refilled.size(), first.size());
  for (std::size_t k = 0; k < refilled.size(); ++k) {
    SCOPED_TRACE("point " + std::to_string(k));
    EXPECT_FALSE(refilled[k].from_surrogate);
    // ...and the re-measurement is a pure function of (config, rule), so
    // it is bit-identical to the original cold run.
    expect_identical(refilled[k], first[k]);
  }
  // And the backfill re-warmed the store.
  EXPECT_TRUE(query(points[0], opts).from_surrogate);
}

TEST(SurrogateSweep, PersistentCacheOptsOutOfPerCallView) {
  const fs::path dir = test_store("cached");
  DedupOptions opts = opts_with(dir);
  sim::BerSurrogate cache{sim::CalibrationStore(dir)};
  opts.surrogate.cache = &cache;

  const auto points = waterfall({10.0, 11.0});
  (void)sweep_ber_deduped(points, opts);
  fs::remove_all(dir);
  // The long-lived cache still answers from memory — the documented
  // trade-off of SurrogateOptions::cache.
  const auto res = sweep_ber_deduped(points, opts);
  for (const BerResult& r : res) EXPECT_TRUE(r.from_surrogate);
}

TEST(SurrogateSweep, RuleMismatchIsAMiss) {
  const fs::path dir = test_store("rulemiss");
  DedupOptions opts = opts_with(dir);
  (void)sweep_ber_deduped(waterfall({10.0}), opts);
  ASSERT_TRUE(query(cheap_config(10.0), opts).from_surrogate);

  // A different stopping rule makes different CI claims: the stored curve
  // must not answer for it.
  DedupOptions tighter = opts;
  tighter.surrogate.rule.target_rel_ci = 0.10;
  tighter.surrogate.rule.max_packets = 48;
  const BerResult r = query(cheap_config(10.0), tighter);
  EXPECT_FALSE(r.from_surrogate);
  expect_identical(r,
                   run_ber_adaptive(cheap_config(10.0), tighter.surrogate.rule));
}

TEST(Calibrate, ExtendsAnExistingCurveInsteadOfRemeasuring) {
  const fs::path dir = test_store("extend");
  const DedupOptions opts = opts_with(dir);
  const std::string fp =
      surrogate_fingerprint(cheap_config(10.0), sim::SurrogateAxis::kSnrDb);

  (void)sweep_ber_deduped(waterfall({10.0, 11.0}), opts);
  const auto first = sim::CalibrationStore(dir).load(fp);
  ASSERT_TRUE(first.has_value());
  ASSERT_EQ(first->points.size(), 2u);

  // A second call reaching past the curve measures only the new knots...
  DedupStats stats;
  (void)sweep_ber_deduped(waterfall({10.0, 11.0, 12.0, 13.0}), opts, &stats);
  EXPECT_EQ(stats.warm, 2u);
  EXPECT_EQ(stats.cold, 2u);
  const auto extended = sim::CalibrationStore(dir).load(fp);
  ASSERT_TRUE(extended.has_value());
  ASSERT_EQ(extended->points.size(), 4u);
  // ...and the stored knots keep their original measurements bit for bit.
  for (std::size_t k = 0; k < 2; ++k) {
    SCOPED_TRACE("knot " + std::to_string(k));
    EXPECT_EQ(extended->points[k].x, first->points[k].x);
    EXPECT_EQ(extended->points[k].ber, first->points[k].ber);
    EXPECT_EQ(extended->points[k].ber_ci_rel, first->points[k].ber_ci_rel);
    EXPECT_EQ(extended->points[k].bits, first->points[k].bits);
    EXPECT_EQ(extended->points[k].bit_errors, first->points[k].bit_errors);
  }
  EXPECT_EQ(extended->points[2].x, 12.0);
  EXPECT_EQ(extended->points[3].x, 13.0);
}

}  // namespace
}  // namespace wlansim::core
