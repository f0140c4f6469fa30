// TX-scene memoization must be invisible in the results: a sweep with
// memoize_tx on replays each packet's pre-noise scene across SNR points,
// and every counter — including the EVM average's floating-point value —
// must match the unmemoized per-point runs bit for bit.
#include <gtest/gtest.h>

#include <vector>

#include "core/experiments.h"
#include "core/parallel.h"

namespace wlansim::core {
namespace {

std::vector<LinkConfig> snr_sweep(LinkConfig base, double first_db,
                                  double step_db, std::size_t npts) {
  std::vector<LinkConfig> configs(npts, base);
  for (std::size_t k = 0; k < npts; ++k)
    configs[k].snr_db = first_db + step_db * static_cast<double>(k);
  return configs;
}

sim::StoppingRule fixed_budget(std::size_t packets) {
  sim::StoppingRule rule;
  rule.target_rel_ci = 0.0;  // CI test off: a pure packet budget
  rule.max_packets = packets;
  return rule;
}

void expect_identical(const std::vector<BerResult>& a,
                      const std::vector<BerResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k].packets, b[k].packets) << "point " << k;
    EXPECT_EQ(a[k].packets_lost, b[k].packets_lost) << "point " << k;
    EXPECT_EQ(a[k].packet_errors, b[k].packet_errors) << "point " << k;
    EXPECT_EQ(a[k].bits, b[k].bits) << "point " << k;
    EXPECT_EQ(a[k].bit_errors, b[k].bit_errors) << "point " << k;
    EXPECT_EQ(a[k].evm_rms_avg, b[k].evm_rms_avg) << "point " << k;
  }
}

TEST(SweepMemo, MatchesUnmemoizedSweepExactly) {
  LinkConfig base = default_link_config();
  base.psdu_bytes = 40;
  // Span the waterfall so some points decode cleanly and some lose packets.
  const auto configs = snr_sweep(base, 10.0, 2.0, 8);

  SweepOptions memo_on;
  memo_on.memoize_tx = true;
  SweepOptions memo_off;
  memo_off.memoize_tx = false;

  const auto with = sweep_ber_adaptive(configs, fixed_budget(10), memo_on);
  const auto without = sweep_ber_adaptive(configs, fixed_budget(10), memo_off);
  expect_identical(with, without);
}

TEST(SweepMemo, MatchesPerPointRunsWithInterferer) {
  LinkConfig base = default_link_config();
  base.psdu_bytes = 40;
  channel::InterfererConfig jam;
  jam.offset_hz = 20e6;
  jam.level_db = 10.0;
  jam.psdu_bytes = 60;
  base.interferer = jam;
  const auto configs = snr_sweep(base, 14.0, 3.0, 4);

  const auto memoized = sweep_ber_adaptive(configs, fixed_budget(6));
  std::vector<BerResult> direct;
  for (const LinkConfig& cfg : configs)
    direct.push_back(run_ber_adaptive(cfg, fixed_budget(6)));
  expect_identical(memoized, direct);
}

TEST(SweepMemo, ThreadCountInvariant) {
  LinkConfig base = default_link_config();
  base.psdu_bytes = 40;
  const auto configs = snr_sweep(base, 12.0, 3.0, 5);

  SweepOptions one;
  one.threads = 1;
  SweepOptions three;
  three.threads = 3;
  expect_identical(sweep_ber_adaptive(configs, fixed_budget(9), one),
                   sweep_ber_adaptive(configs, fixed_budget(9), three));
}

TEST(SweepMemo, ScenePacketReplayMatchesFullRun) {
  // Link-level contract behind the sweep: a scene built at one noise level
  // replays bit-identically on a link that differs only in SNR.
  LinkConfig cfg_hi = default_link_config();
  cfg_hi.psdu_bytes = 40;
  cfg_hi.snr_db = 24.0;
  LinkConfig cfg_lo = cfg_hi;
  cfg_lo.snr_db = 13.0;

  WlanLink builder(cfg_hi);
  WlanLink replayer(cfg_lo);
  WlanLink fresh(cfg_lo);

  for (std::uint64_t idx : {0ull, 3ull}) {
    TxScene scene;
    const PacketResult built = builder.run_packet_memo(idx, scene);
    ASSERT_TRUE(scene.valid());
    const PacketResult direct_hi = WlanLink(cfg_hi).run_packet(idx);
    EXPECT_EQ(built.bit_errors, direct_hi.bit_errors);
    EXPECT_EQ(built.evm_rms, direct_hi.evm_rms);

    const PacketResult replayed = replayer.run_packet_memo(idx, scene);
    const PacketResult direct = fresh.run_packet(idx);
    EXPECT_EQ(replayed.decoded, direct.decoded) << "idx " << idx;
    EXPECT_EQ(replayed.bits, direct.bits) << "idx " << idx;
    EXPECT_EQ(replayed.bit_errors, direct.bit_errors) << "idx " << idx;
    EXPECT_EQ(replayed.evm_rms, direct.evm_rms) << "idx " << idx;
    EXPECT_EQ(replayed.cfo_norm, direct.cfo_norm) << "idx " << idx;
  }
}

}  // namespace
}  // namespace wlansim::core
