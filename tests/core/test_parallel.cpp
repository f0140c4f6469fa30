// A fixed packet budget is the adaptive engine with its CI test off:
// every point runs exactly the budget and matches serial WlanLink::run_ber.
#include "core/parallel.h"

#include <gtest/gtest.h>

#include "core/experiments.h"

namespace wlansim::core {
namespace {

BerResult run_fixed(const LinkConfig& cfg, std::size_t packets,
                    std::size_t threads) {
  sim::StoppingRule fixed;
  fixed.target_rel_ci = 0.0;  // CI test off: a pure packet budget
  fixed.max_packets = packets;
  return run_ber_adaptive(cfg, fixed, threads);
}

TEST(ParallelBer, MatchesSerialExactly) {
  LinkConfig cfg = default_link_config();
  cfg.snr_db = 16.0;  // low enough that errors occur (nontrivial counters)
  cfg.psdu_bytes = 100;

  WlanLink serial(cfg);
  const BerResult ref = serial.run_ber(8);
  const BerResult par = run_fixed(cfg, 8, 4);

  EXPECT_EQ(par.packets, ref.packets);
  EXPECT_EQ(par.bits, ref.bits);
  EXPECT_EQ(par.bit_errors, ref.bit_errors);
  EXPECT_EQ(par.packets_lost, ref.packets_lost);
  EXPECT_EQ(par.packet_errors, ref.packet_errors);
  EXPECT_NEAR(par.evm_rms_avg, ref.evm_rms_avg, 1e-12);
}

TEST(ParallelBer, ThreadCountInvariant) {
  LinkConfig cfg = default_link_config();
  cfg.psdu_bytes = 80;
  const BerResult one = run_fixed(cfg, 6, 1);
  const BerResult three = run_fixed(cfg, 6, 3);
  EXPECT_EQ(one.bit_errors, three.bit_errors);
  EXPECT_EQ(one.packets_lost, three.packets_lost);
  EXPECT_NEAR(one.evm_rms_avg, three.evm_rms_avg, 1e-12);
}

TEST(ParallelBer, HandlesFewerPacketsThanThreads) {
  LinkConfig cfg = default_link_config();
  cfg.psdu_bytes = 60;
  const BerResult r = run_fixed(cfg, 2, 16);
  EXPECT_EQ(r.packets, 2u);
}

TEST(ParallelBer, ZeroThreadsMeansHardwareConcurrency) {
  LinkConfig cfg = default_link_config();
  cfg.psdu_bytes = 60;
  const BerResult r = run_fixed(cfg, 3, 0);
  EXPECT_EQ(r.packets, 3u);
}

}  // namespace
}  // namespace wlansim::core
