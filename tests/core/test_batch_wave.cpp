// The lockstep packet-wave engine's bit-identity contract: every lane of
// WlanLink::run_packet_wave equals the scalar per-packet path exactly, so
// SweepOptions::batch_width is a pure throughput knob — results at width 8
// EXPECT_EQ those at width 1 for any thread count, with and without
// TX-scene memoization.
#include <gtest/gtest.h>

#include <vector>

#include "core/experiments.h"
#include "core/packet_batch.h"
#include "core/parallel.h"

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
  // Direct engine-less check of run_packet_wave against run_packet, both
  // full width and a ragged tail width, unmemoized.
  LinkConfig cfg = default_link_config();
  cfg.psdu_bytes = 40;
  cfg.snr_db = 16.0;
  WlanLink scalar(cfg), batched(cfg);

  PacketBatch batch;
  PacketResult out[8];
  ASSERT_TRUE(batched.run_packet_wave(0, 8, batch, nullptr, out));
  for (std::size_t p = 0; p < 8; ++p) {
    SCOPED_TRACE("packet " + std::to_string(p));
    expect_identical(out[p], scalar.run_packet(p));
  }
  ASSERT_TRUE(batched.run_packet_wave(8, 3, batch, nullptr, out));
  for (std::size_t p = 0; p < 3; ++p) {
    SCOPED_TRACE("packet " + std::to_string(8 + p));
    expect_identical(out[p], scalar.run_packet(8 + p));
  }
}

TEST(BatchWave, WaveMatchesScalarWithoutRfFrontend) {
  // RfEngine::kNone: the wave decimates through the lane FIR instead of
  // the raw ADC stride; still bit-identical to the scalar path.
  LinkConfig cfg = default_link_config();
  cfg.psdu_bytes = 40;
  cfg.snr_db = 10.0;
  cfg.rf_engine = RfEngine::kNone;
  WlanLink scalar(cfg), batched(cfg);

  PacketBatch batch;
  PacketResult out[8];
  ASSERT_TRUE(batched.run_packet_wave(0, 8, batch, nullptr, out));
  for (std::size_t p = 0; p < 8; ++p) {
    SCOPED_TRACE("packet " + std::to_string(p));
    expect_identical(out[p], scalar.run_packet(p));
  }
}

TEST(BatchWave, MemoizedWaveBuildsAndReplaysScenes) {
  // Build at one noise level, replay at another — the memoized wave's
  // scenes (and recorded front-end tapes) must reproduce what scalar
  // run_packet computes at each level from scratch.
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

  WlanLink scalar_lo(lo), scalar_hi(hi);
  for (std::size_t p = 0; p < 8; ++p) {
    SCOPED_TRACE("packet " + std::to_string(p));
    expect_identical(out_lo[p], scalar_lo.run_packet(p));
    expect_identical(out_hi[p], scalar_hi.run_packet(p));
  }
}

TEST(BatchWave, ScenesInterchangeWithScalarMemoPath) {
  // Scenes built by the wave replay through run_packet_memo and vice
  // versa — the two memo paths share one TxScene contract.
  LinkConfig lo = default_link_config();
  lo.psdu_bytes = 40;
  lo.snr_db = 12.0;
  LinkConfig hi = lo;
  hi.snr_db = 22.0;

  // Wave builds, scalar replays.
  WlanLink wave_lo(lo), scalar_hi(hi);
  std::vector<TxScene> scenes(8);
  PacketBatch batch;
  PacketResult out[8];
  ASSERT_TRUE(wave_lo.run_packet_wave(0, 8, batch, scenes.data(), out));
  WlanLink ref_hi(hi);
  for (std::size_t p = 0; p < 8; ++p) {
    SCOPED_TRACE("wave->scalar packet " + std::to_string(p));
    expect_identical(scalar_hi.run_packet_memo(p, scenes[p]),
                     ref_hi.run_packet(p));
  }

  // Scalar builds, wave replays.
  std::vector<TxScene> scenes2(8);
  WlanLink scalar_lo(lo), wave_hi(hi);
  for (std::size_t p = 0; p < 8; ++p)
    (void)scalar_lo.run_packet_memo(p, scenes2[p]);
  ASSERT_TRUE(wave_hi.run_packet_wave(0, 8, batch, scenes2.data(), out));
  for (std::size_t p = 0; p < 8; ++p) {
    SCOPED_TRACE("scalar->wave packet " + std::to_string(p));
    expect_identical(out[p], ref_hi.run_packet(p));
  }
}

TEST(BatchWave, FlickerShapeChangeFallsBackBitIdentically) {
  // The wave tapes mixer 2's flicker noise after its shaping filter, keyed
  // by the flicker shape (power, corners, rate). Scenes built at one shape
  // and replayed at another must fall back to fresh draws, and a wave back
  // at the first shape must replay them: every lane equals scalar
  // run_packet at its own configuration.
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
    WlanLink wave(cfg), scalar(cfg);
    PacketResult out[8];
    ASSERT_TRUE(wave.run_packet_wave(0, 8, batch, scenes.data(), out));
    for (std::size_t p = 0; p < 8; ++p) {
      SCOPED_TRACE("flicker " +
                   std::to_string(cfg.rf.mixer2_flicker_power_dbm) +
                   " dBm, snr " + std::to_string(*cfg.snr_db) +
                   ", packet " + std::to_string(p));
      expect_identical(out[p], scalar.run_packet(p));
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

TEST(BatchWave, AdaptiveSweepWidth8MatchesWidth1) {
  // The headline contract: the adaptive sweep at batch_width 8 EXPECT_EQs
  // the scalar-reference engine at batch_width 1, for thread counts
  // {1, 2, 8}, memoization on and off.
  const auto points = waterfall({12.0, 16.0});
  sim::StoppingRule rule;
  rule.target_rel_ci = 0.5;
  rule.min_errors = 10;
  rule.min_packets = 8;
  rule.max_packets = 16;

  for (const bool memo : {true, false}) {
    for (const std::size_t threads : {1u, 2u, 8u}) {
      SCOPED_TRACE("memo=" + std::to_string(memo) +
                   " threads=" + std::to_string(threads));
      SweepOptions wide;
      wide.threads = threads;
      wide.memoize_tx = memo;
      wide.batch_width = 8;
      SweepOptions narrow = wide;
      narrow.batch_width = 1;
      const auto a = sweep_ber_adaptive(points, rule, wide);
      const auto b = sweep_ber_adaptive(points, rule, narrow);
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
  for (const bool memo : {true, false}) {
    SCOPED_TRACE("memo=" + std::to_string(memo));
    SweepOptions wide;
    wide.threads = 2;
    wide.memoize_tx = memo;
    wide.batch_width = 8;
    SweepOptions narrow = wide;
    narrow.batch_width = 1;
    sim::StoppingRule fixed;
    fixed.target_rel_ci = 0.0;  // CI test off: a pure packet budget
    fixed.max_packets = 19;     // ragged tail chunk
    const auto a = sweep_ber_adaptive(points, fixed, wide);
    const auto b = sweep_ber_adaptive(points, fixed, narrow);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t k = 0; k < a.size(); ++k) {
      SCOPED_TRACE("point " + std::to_string(k));
      expect_identical(a[k], b[k]);
    }
  }
}

}  // namespace wlansim::core
