// The lockstep packet-wave engine's bit-identity contract: every lane of
// WlanLink::run_packet_wave equals the dataflow-graph reference exactly, at
// any width, so the pooled sweeps EXPECT_EQ the same sweeps run packet by
// packet on the graph for any thread count, with and without TX-scene
// memoization.
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/experiments.h"
#include "core/packet_batch.h"
#include "core/parallel.h"
#include "dsp/kernels.h"
#include "rf/amplifier.h"
#include "rf/receiver_chain.h"

namespace wlansim::core {
namespace {

void expect_identical(const BerResult& a, const BerResult& b) {
  EXPECT_EQ(a.packets, b.packets);
  EXPECT_EQ(a.packets_lost, b.packets_lost);
  EXPECT_EQ(a.packet_errors, b.packet_errors);
  EXPECT_EQ(a.bits, b.bits);
  EXPECT_EQ(a.bit_errors, b.bit_errors);
  EXPECT_EQ(a.evm_rms_avg, b.evm_rms_avg);  // exact, not approximate
  EXPECT_EQ(a.ber_ci_rel, b.ber_ci_rel);
}

void expect_identical(const PacketResult& a, const PacketResult& b) {
  EXPECT_EQ(a.decoded, b.decoded);
  EXPECT_EQ(a.bits, b.bits);
  EXPECT_EQ(a.bit_errors, b.bit_errors);
  EXPECT_EQ(a.evm_rms, b.evm_rms);
  EXPECT_EQ(a.cfo_norm, b.cfo_norm);
}

/// The same config on the graph reference path.
LinkConfig on_graph(LinkConfig cfg) {
  cfg.packet_path = PacketPath::kGraph;
  return cfg;
}

std::vector<LinkConfig> on_graph(std::span<const LinkConfig> configs) {
  std::vector<LinkConfig> out;
  for (const LinkConfig& c : configs) out.push_back(on_graph(c));
  return out;
}

/// Co-simulation at a fine rate a test can afford (the default steps 128
/// times per system sample).
void set_cosim(LinkConfig& cfg) {
  cfg.rf_engine = RfEngine::kCosim;
  cfg.cosim.analog_oversample = 16;
}

std::vector<LinkConfig> waterfall(std::initializer_list<double> snrs) {
  LinkConfig base = default_link_config();
  base.psdu_bytes = 40;
  std::vector<LinkConfig> points;
  for (const double snr : snrs) {
    LinkConfig c = base;
    c.snr_db = snr;
    points.push_back(c);
  }
  return points;
}

}  // namespace

TEST(BatchWave, WaveLanesMatchScalarPackets) {
  // Direct engine-less check of run_packet_wave against graph packets, both
  // full width and a ragged tail width, unmemoized.
  LinkConfig cfg = default_link_config();
  cfg.psdu_bytes = 40;
  cfg.snr_db = 16.0;
  WlanLink graph(on_graph(cfg)), batched(cfg);

  PacketBatch batch;
  PacketResult out[8];
  ASSERT_TRUE(batched.run_packet_wave(0, 8, batch, nullptr, out));
  for (std::size_t p = 0; p < 8; ++p) {
    SCOPED_TRACE("packet " + std::to_string(p));
    expect_identical(out[p], graph.run_packet(p));
  }
  ASSERT_TRUE(batched.run_packet_wave(8, 3, batch, nullptr, out));
  for (std::size_t p = 0; p < 3; ++p) {
    SCOPED_TRACE("packet " + std::to_string(8 + p));
    expect_identical(out[p], graph.run_packet(8 + p));
  }
}

TEST(BatchWave, WaveMatchesScalarWithoutRfFrontend) {
  // RfEngine::kNone: the wave decimates through the lane FIR instead of
  // the raw ADC stride; still bit-identical to the graph's decimator.
  LinkConfig cfg = default_link_config();
  cfg.psdu_bytes = 40;
  cfg.snr_db = 10.0;
  cfg.rf_engine = RfEngine::kNone;
  WlanLink graph(on_graph(cfg)), batched(cfg);

  PacketBatch batch;
  PacketResult out[8];
  ASSERT_TRUE(batched.run_packet_wave(0, 8, batch, nullptr, out));
  for (std::size_t p = 0; p < 8; ++p) {
    SCOPED_TRACE("packet " + std::to_string(p));
    expect_identical(out[p], graph.run_packet(p));
  }
}

TEST(BatchWave, MemoizedWaveBuildsAndReplaysScenes) {
  // Build at one noise level, replay at another — the memoized wave's
  // scenes (and recorded front-end tapes) must reproduce what run_packet
  // (a width-1 wave) computes at each level from scratch.
  LinkConfig lo = default_link_config();
  lo.psdu_bytes = 40;
  lo.snr_db = 12.0;
  LinkConfig hi = lo;
  hi.snr_db = 22.0;

  WlanLink wave_lo(lo), wave_hi(hi);
  std::vector<TxScene> scenes(8);
  PacketBatch batch;
  PacketResult out_lo[8], out_hi[8];
  ASSERT_TRUE(wave_lo.run_packet_wave(0, 8, batch, scenes.data(), out_lo));
  for (const TxScene& sc : scenes) EXPECT_TRUE(sc.valid());
  ASSERT_TRUE(wave_hi.run_packet_wave(0, 8, batch, scenes.data(), out_hi));

  WlanLink single_lo(lo), single_hi(hi);
  for (std::size_t p = 0; p < 8; ++p) {
    SCOPED_TRACE("packet " + std::to_string(p));
    expect_identical(out_lo[p], single_lo.run_packet(p));
    expect_identical(out_hi[p], single_hi.run_packet(p));
  }
}

TEST(BatchWave, ScenesInterchangeWithScalarMemoPath) {
  // Scenes built by a width-8 wave replay through run_packet_memo (a
  // width-1 wave) and vice versa — one TxScene contract at every width,
  // each lane equal to the graph reference.
  LinkConfig lo = default_link_config();
  lo.psdu_bytes = 40;
  lo.snr_db = 12.0;
  LinkConfig hi = lo;
  hi.snr_db = 22.0;

  // Width 8 builds, width 1 replays.
  WlanLink wave_lo(lo), single_hi(hi);
  std::vector<TxScene> scenes(8);
  PacketBatch batch;
  PacketResult out[8];
  ASSERT_TRUE(wave_lo.run_packet_wave(0, 8, batch, scenes.data(), out));
  WlanLink ref_hi(on_graph(hi));
  for (std::size_t p = 0; p < 8; ++p) {
    SCOPED_TRACE("width 8 -> width 1, packet " + std::to_string(p));
    expect_identical(single_hi.run_packet_memo(p, scenes[p]),
                     ref_hi.run_packet(p));
  }

  // Width 1 builds, width 8 replays.
  std::vector<TxScene> scenes2(8);
  WlanLink single_lo(lo), wave_hi(hi);
  for (std::size_t p = 0; p < 8; ++p)
    (void)single_lo.run_packet_memo(p, scenes2[p]);
  ASSERT_TRUE(wave_hi.run_packet_wave(0, 8, batch, scenes2.data(), out));
  for (std::size_t p = 0; p < 8; ++p) {
    SCOPED_TRACE("width 1 -> width 8, packet " + std::to_string(p));
    expect_identical(out[p], ref_hi.run_packet(p));
  }
}

TEST(BatchWave, FlickerShapeChangeFallsBackBitIdentically) {
  // The wave tapes mixer 2's flicker noise after its shaping filter, keyed
  // by the flicker shape (power, corners, rate). Scenes built at one shape
  // and replayed at another must fall back to fresh draws, and a wave back
  // at the first shape must replay them: every lane equals run_packet (a
  // width-1 wave) at its own configuration.
  LinkConfig first = default_link_config();
  first.psdu_bytes = 40;
  first.snr_db = 14.0;
  LinkConfig other = first;
  other.rf.mixer2_flicker_power_dbm = -58.0;
  other.rf.flicker_corner_hz = 300e3;
  LinkConfig again = first;
  again.snr_db = 18.0;

  std::vector<TxScene> scenes(8);
  PacketBatch batch;
  for (const LinkConfig& cfg : {first, other, again}) {
    WlanLink wave(cfg), single(cfg);
    PacketResult out[8];
    ASSERT_TRUE(wave.run_packet_wave(0, 8, batch, scenes.data(), out));
    for (std::size_t p = 0; p < 8; ++p) {
      SCOPED_TRACE("flicker " +
                   std::to_string(cfg.rf.mixer2_flicker_power_dbm) +
                   " dBm, snr " + std::to_string(*cfg.snr_db) +
                   ", packet " + std::to_string(p));
      expect_identical(out[p], single.run_packet(p));
    }
  }

  // A memoized sweep over the flicker power shares one scene per packet
  // across all three shapes; it must equal the unmemoized sweep.
  std::vector<LinkConfig> points;
  for (const double dbm : {-70.0, -65.0, -60.0}) {
    LinkConfig c = first;
    c.rf.mixer2_flicker_power_dbm = dbm;
    points.push_back(c);
  }
  sim::StoppingRule rule;
  rule.target_rel_ci = 0.5;
  rule.min_errors = 10;
  rule.min_packets = 8;
  rule.max_packets = 24;
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SweepOptions memo;
    memo.threads = threads;
    SweepOptions fresh = memo;
    fresh.memoize_tx = false;
    const auto a = sweep_ber_adaptive(points, rule, memo);
    const auto b = sweep_ber_adaptive(points, rule, fresh);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t k = 0; k < a.size(); ++k) {
      SCOPED_TRACE("point " + std::to_string(k));
      expect_identical(a[k], b[k]);
      EXPECT_EQ(a[k].converged, b[k].converged);
    }
  }
}

TEST(BatchWave, GraphPathRefusesToWave) {
  LinkConfig cfg = default_link_config();
  cfg.packet_path = PacketPath::kGraph;
  WlanLink link(cfg);
  PacketBatch batch;
  PacketResult out[8];
  EXPECT_FALSE(link.run_packet_wave(0, 8, batch, nullptr, out));
}

TEST(BatchWave, RefusesOnlyConfigsThatNeedTheGraph) {
  // The wave is the direct engine of every model and channel feature,
  // co-simulation included: each config below runs a width-2 wave whose
  // lanes equal the graph reference. One batch serves them all, across
  // oversampling factors.
  LinkConfig base = default_link_config();
  base.psdu_bytes = 40;
  base.snr_db = 18.0;
  std::vector<std::pair<std::string, LinkConfig>> waves;
  const auto add = [&](std::string name, auto edit) {
    LinkConfig c = base;
    edit(c);
    waves.emplace_back(std::move(name), c);
  };
  add("default chain", [](LinkConfig&) {});
  add("clipped-cubic LNA", [](LinkConfig& c) {
    c.rf.lna_model = rf::NonlinearityModel::kClippedCubic;
  });
  for (const double deg : {10.0, 30.0})
    add("AM/PM LNA " + std::to_string(deg),
        [deg](LinkConfig& c) { c.rf.lna_am_pm_max_deg = deg; });
  add("LO offset", [](LinkConfig& c) { c.rf.lo_offset_hz = 37e3; });
  for (const double dbc : {-95.0, -66.0})
    add("phase noise " + std::to_string(dbc), [dbc](LinkConfig& c) {
      c.rf.lo_phase_noise.level_dbc_hz = dbc;
    });
  add("LO offset plus phase noise", [](LinkConfig& c) {
    c.rf.lo_offset_hz = -52e3;
    c.rf.lo_phase_noise.level_dbc_hz = -80.0;
  });
  add("custom RF: Rapp p = 3 amplifier with noise", [](LinkConfig& c) {
    c.rf_engine = RfEngine::kCustom;
    c.custom_rf = [](dsp::Rng rng) -> std::unique_ptr<rf::RfBlock> {
      rf::AmplifierConfig amp;
      amp.rapp_smoothness = 3.0;
      amp.noise_figure_db = 4.0;
      return std::make_unique<rf::Amplifier>(amp, 80e6, rng);
    };
  });
  add("custom RF: double-conversion receiver", [](LinkConfig& c) {
    c.rf_engine = RfEngine::kCustom;
    const rf::DoubleConversionConfig rf = c.rf;
    c.custom_rf = [rf](dsp::Rng rng) -> std::unique_ptr<rf::RfBlock> {
      return std::make_unique<rf::DoubleConversionReceiver>(rf, rng);
    };
  });
  for (const std::size_t os : {1u, 4u, 8u}) {
    add("no RF, " + std::to_string(os) + "x", [os](LinkConfig& c) {
      c.rf_engine = RfEngine::kNone;
      c.oversample = os;
    });
  }
  add("RF at 1x", [](LinkConfig& c) { c.oversample = 1; });
  add("RF at 8x", [](LinkConfig& c) { c.oversample = 8; });
  add("SCO", [](LinkConfig& c) { c.sco_ppm = 20.0; });
  add("fading", [](LinkConfig& c) { c.fading = channel::FadingConfig{}; });
  add("adjacent channel", [](LinkConfig& c) {
    c.interferer =
        channel::InterfererConfig{.offset_hz = 20e6, .level_db = 16.0};
  });
  add("non-adjacent channel at 8x", [](LinkConfig& c) {
    c.oversample = 8;
    c.interferer =
        channel::InterfererConfig{.offset_hz = 40e6, .level_db = 32.0};
  });
  add("TX PA", [](LinkConfig& c) {
    c.tx_pa_backoff_db = 8.0;
    c.tx_pa_am_pm_max_deg = 2.0;
  });
  add("TX IQ", [](LinkConfig& c) {
    c.tx_iq_gain_imbalance_db = 0.3;
    c.tx_iq_phase_error_deg = 1.0;
    c.tx_lo_leakage_rel = 0.02;
  });
  add("co-simulation", [](LinkConfig& c) { set_cosim(c); });
  add("co-simulation, adjacent channel", [](LinkConfig& c) {
    set_cosim(c);
    c.interferer =
        channel::InterfererConfig{.offset_hz = 20e6, .level_db = 16.0};
  });
  add("co-simulation with noise functions", [](LinkConfig& c) {
    set_cosim(c);
    c.cosim.supports_noise_functions = true;
  });

  PacketBatch batch;
  for (const auto& [name, cfg] : waves) {
    SCOPED_TRACE(name);
    WlanLink wave(cfg), graph(on_graph(cfg));
    PacketResult out[2];
    ASSERT_TRUE(wave.run_packet_wave(0, 2, batch, nullptr, out));
    for (std::size_t p = 0; p < 2; ++p) {
      SCOPED_TRACE("packet " + std::to_string(p));
      expect_identical(out[p], graph.run_packet(p));
    }
  }

  // Only the graph's own configs are refused, and only widths 1 to 8 run.
  LinkConfig interpreted = base;
  interpreted.mode = sim::ExecutionMode::kInterpreted;
  for (const LinkConfig& cfg : {on_graph(base), interpreted}) {
    WlanLink link(cfg);
    PacketResult out[2];
    EXPECT_FALSE(link.run_packet_wave(0, 2, batch, nullptr, out));
  }
  WlanLink link(base);
  PacketResult out[dsp::kernels::kLaneWidth + 1];
  EXPECT_FALSE(link.run_packet_wave(0, 0, batch, nullptr, out));
  EXPECT_FALSE(link.run_packet_wave(0, dsp::kernels::kLaneWidth + 1, batch,
                                    nullptr, out));
}

TEST(BatchWave, AdaptiveSweepWidth8MatchesWidth1) {
  // The headline contract: the adaptive sweep on packet waves EXPECT_EQs
  // the same sweep over graph copies of its configs, which run packet by
  // packet on the reference path, for thread counts {1, 2, 8},
  // memoization on and off.
  const auto points = waterfall({12.0, 16.0});
  const auto graph_points = on_graph(points);
  sim::StoppingRule rule;
  rule.target_rel_ci = 0.5;
  rule.min_errors = 10;
  rule.min_packets = 8;
  rule.max_packets = 16;

  for (const bool memo : {true, false}) {
    for (const std::size_t threads : {1u, 2u, 8u}) {
      SCOPED_TRACE("memo=" + std::to_string(memo) +
                   " threads=" + std::to_string(threads));
      SweepOptions opts;
      opts.threads = threads;
      opts.memoize_tx = memo;
      const auto a = sweep_ber_adaptive(points, rule, opts);
      const auto b = sweep_ber_adaptive(graph_points, rule, opts);
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t k = 0; k < a.size(); ++k) {
        SCOPED_TRACE("point " + std::to_string(k));
        expect_identical(a[k], b[k]);
        EXPECT_EQ(a[k].converged, b[k].converged);
      }
    }
  }
}

TEST(BatchWave, FixedSweepWidth8MatchesWidth1) {
  const auto points = waterfall({14.0, 20.0});
  const auto graph_points = on_graph(points);
  for (const bool memo : {true, false}) {
    SCOPED_TRACE("memo=" + std::to_string(memo));
    SweepOptions opts;
    opts.threads = 2;
    opts.memoize_tx = memo;
    sim::StoppingRule fixed;
    fixed.target_rel_ci = 0.0;  // CI test off: a pure packet budget
    fixed.max_packets = 19;     // ragged tail chunk
    const auto a = sweep_ber_adaptive(points, fixed, opts);
    const auto b = sweep_ber_adaptive(graph_points, fixed, opts);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t k = 0; k < a.size(); ++k) {
      SCOPED_TRACE("point " + std::to_string(k));
      expect_identical(a[k], b[k]);
    }
  }
}

TEST(BatchWave, CosimFixedSweepMatchesGraph) {
  // A pooled fixed-budget sweep of a co-simulated link runs its packets as
  // lane waves (cut_wave hands a 16-packet point to 4 workers as runs of
  // 4); it must EXPECT_EQ the same sweep over graph copies, at 1 and 4
  // threads, with TX-scene memoization on (the second point replays the
  // first one's scenes) and off. The noise functions are on, so every
  // lane's fine-rate chain draws from its own packet's fork.
  auto points = waterfall({14.0, 18.0});
  for (LinkConfig& c : points) {
    set_cosim(c);
    c.cosim.supports_noise_functions = true;
  }
  const auto graph_points = on_graph(points);
  sim::StoppingRule fixed;
  fixed.target_rel_ci = 0.0;
  fixed.max_packets = 16;
  for (const bool memo : {true, false}) {
    for (const std::size_t threads : {1u, 4u}) {
      SCOPED_TRACE("memo=" + std::to_string(memo) +
                   " threads=" + std::to_string(threads));
      SweepOptions opts;
      opts.threads = threads;
      opts.memoize_tx = memo;
      const auto a = sweep_ber_adaptive(points, fixed, opts);
      const auto b = sweep_ber_adaptive(graph_points, fixed, opts);
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t k = 0; k < a.size(); ++k) {
        SCOPED_TRACE("point " + std::to_string(k));
        expect_identical(a[k], b[k]);
      }
    }
  }
}

}  // namespace wlansim::core
