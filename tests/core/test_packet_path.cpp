// The packet wave (kAuto: run_packet as a width-1 wave in place on the
// link's workspace) must be indistinguishable from the dataflow-graph
// reference — bit for bit, across every feature that changes the chain's
// topology (interferer, TX impairments, SCO, fading, both built-in RF
// engines).
#include <gtest/gtest.h>

#include "core/experiments.h"
#include "core/link.h"

namespace wlansim::core {
namespace {

LinkConfig small_config() {
  LinkConfig cfg = default_link_config();
  cfg.psdu_bytes = 60;  // keep each packet cheap; the topology is what matters
  return cfg;
}

void expect_identical(const PacketResult& a, const PacketResult& b) {
  EXPECT_EQ(a.decoded, b.decoded);
  EXPECT_EQ(a.bits, b.bits);
  EXPECT_EQ(a.bit_errors, b.bit_errors);
  EXPECT_EQ(a.evm_rms, b.evm_rms);  // exact: same floats, same order
  EXPECT_EQ(a.cfo_norm, b.cfo_norm);
}

void expect_paths_match(LinkConfig cfg, std::uint64_t packets = 2) {
  cfg.packet_path = PacketPath::kAuto;
  WlanLink wave(cfg);
  cfg.packet_path = PacketPath::kGraph;
  WlanLink graph(cfg);

  for (std::uint64_t i = 0; i < packets; ++i) {
    const PacketResult rw = wave.run_packet(i);
    const PacketResult rg = graph.run_packet(i);
    expect_identical(rw, rg);

    const dsp::CVec& bw = wave.last_rx_baseband();
    const dsp::CVec& bg = graph.last_rx_baseband();
    ASSERT_EQ(bw.size(), bg.size());
    for (std::size_t k = 0; k < bw.size(); ++k) {
      ASSERT_EQ(bw[k].real(), bg[k].real()) << "sample " << k;
      ASSERT_EQ(bw[k].imag(), bg[k].imag()) << "sample " << k;
    }
    ASSERT_EQ(wave.last_rf_input().size(), graph.last_rf_input().size());
    EXPECT_EQ(wave.last_rf_input(), graph.last_rf_input());
  }
}

TEST(PacketPath, SystemLevelFrontend) { expect_paths_match(small_config()); }

TEST(PacketPath, IdealizedFrontend) {
  LinkConfig cfg = small_config();
  cfg.rf_engine = RfEngine::kNone;
  expect_paths_match(cfg);
}

TEST(PacketPath, WithInterferer) {
  LinkConfig cfg = small_config();
  cfg.interferer = channel::InterfererConfig{};
  cfg.interferer->psdu_bytes = 80;
  expect_paths_match(cfg);
}

TEST(PacketPath, WithTxImpairments) {
  LinkConfig cfg = small_config();
  cfg.tx_pa_backoff_db = 8.0;
  cfg.tx_pa_am_pm_max_deg = 2.0;
  cfg.tx_iq_gain_imbalance_db = 0.3;
  cfg.tx_iq_phase_error_deg = 1.0;
  cfg.tx_lo_leakage_rel = 0.02;
  expect_paths_match(cfg);
}

TEST(PacketPath, WithSamplingClockOffset) {
  LinkConfig cfg = small_config();
  cfg.sco_ppm = 20.0;
  expect_paths_match(cfg);
}

TEST(PacketPath, WithFadingAndInterferer) {
  LinkConfig cfg = small_config();
  cfg.fading = channel::FadingConfig{};
  cfg.interferer = channel::InterfererConfig{};
  expect_paths_match(cfg);
}

TEST(PacketPath, NoChannelNoise) {
  LinkConfig cfg = small_config();
  cfg.snr_db.reset();
  cfg.antenna_noise_density_dbm_hz = -300.0;  // kills the AWGN node entirely
  expect_paths_match(cfg);
}

TEST(PacketPath, NoOversampling) {
  LinkConfig cfg = small_config();
  cfg.oversample = 1;
  cfg.rf_engine = RfEngine::kNone;
  expect_paths_match(cfg);
}

// Workspace reuse must not leak state between packets: re-running an
// earlier packet on a warmed-up link reproduces it exactly.
TEST(PacketPath, WorkspaceReuseIsStateless) {
  LinkConfig cfg = small_config();
  WlanLink link(cfg);
  const PacketResult first = link.run_packet(0);
  link.run_packet(1);
  link.run_packet(2);
  const PacketResult again = link.run_packet(0);
  expect_identical(first, again);
}

// kAuto must route interpreted mode through the graph rather than
// misrender it.
TEST(PacketPath, AutoSelectsGraphForInterpretedMode) {
  LinkConfig cfg = small_config();
  cfg.mode = sim::ExecutionMode::kInterpreted;  // kAuto -> graph
  WlanLink link(cfg);
  cfg.mode = sim::ExecutionMode::kCompiled;
  cfg.packet_path = PacketPath::kGraph;
  WlanLink ref(cfg);
  expect_identical(link.run_packet(0), ref.run_packet(0));
}

}  // namespace
}  // namespace wlansim::core
