// Integration tests of the full verification framework.
#include <cmath>

#include <gtest/gtest.h>

#include "core/experiments.h"
#include "core/link.h"
#include "core/packet_batch.h"
#include "dsp/mathutil.h"

namespace wlansim::core {
namespace {

TEST(WlanLink, DecodesThroughRfFrontEnd) {
  LinkConfig cfg = default_link_config();
  WlanLink link(cfg);
  const PacketResult r = link.run_packet(0);
  EXPECT_TRUE(r.decoded);
  EXPECT_EQ(r.bit_errors, 0u);
  EXPECT_GT(r.evm_rms, 0.0);
  EXPECT_LT(r.evm_rms, 0.2);
}

TEST(WlanLink, ReproducibleForSameSeed) {
  LinkConfig cfg = default_link_config();
  WlanLink a(cfg), b(cfg);
  const PacketResult ra = a.run_packet(3);
  const PacketResult rb = b.run_packet(3);
  EXPECT_EQ(ra.decoded, rb.decoded);
  EXPECT_EQ(ra.bit_errors, rb.bit_errors);
  EXPECT_DOUBLE_EQ(ra.evm_rms, rb.evm_rms);
}

TEST(WlanLink, DifferentPacketsDiffer) {
  LinkConfig cfg = default_link_config();
  WlanLink link(cfg);
  const PacketResult r0 = link.run_packet(0);
  const PacketResult r1 = link.run_packet(1);
  EXPECT_NE(r0.evm_rms, r1.evm_rms);  // fresh payload/noise per index
}

TEST(WlanLink, IdealRfBeatsRealRf) {
  LinkConfig real = default_link_config();
  LinkConfig ideal = default_link_config();
  ideal.rf_engine = RfEngine::kNone;
  WlanLink lr(real), li(ideal);
  double evm_real = 0.0, evm_ideal = 0.0;
  for (int i = 0; i < 4; ++i) {
    evm_real += lr.run_packet(i).evm_rms;
    evm_ideal += li.run_packet(i).evm_rms;
  }
  EXPECT_LT(evm_ideal, evm_real);  // "neglected or idealized" RF is rosy
}

TEST(WlanLink, SnrDegradationRaisesEvm) {
  double prev = 0.0;
  for (double snr : {30.0, 20.0, 14.0}) {
    LinkConfig cfg = default_link_config();
    cfg.snr_db = snr;
    WlanLink link(cfg);
    const PacketResult r = link.run_packet(0);
    EXPECT_GT(r.evm_rms, prev) << snr;
    prev = r.evm_rms;
  }
}

TEST(WlanLink, LowSnrBreaksLink) {
  LinkConfig cfg = default_link_config();
  cfg.snr_db = 3.0;  // far below the 16-QAM requirement
  WlanLink link(cfg);
  const BerResult r = link.run_ber(4);
  EXPECT_GT(r.ber(), 0.05);
}

TEST(WlanLink, RunBerAggregates) {
  LinkConfig cfg = default_link_config();
  WlanLink link(cfg);
  const BerResult r = link.run_ber(3);
  EXPECT_EQ(r.packets, 3u);
  EXPECT_EQ(r.bits, 3u * 8u * cfg.psdu_bytes);
  EXPECT_GT(r.evm_rms_avg, 0.0);
}

TEST(WlanLink, FadingChannelDegradesLink) {
  LinkConfig flat = default_link_config();
  LinkConfig faded = default_link_config();
  channel::FadingConfig fc;
  fc.rms_delay_spread_s = 100e-9;
  faded.fading = fc;
  WlanLink lf(flat), lm(faded);
  const BerResult a = lf.run_ber(6);
  const BerResult b = lm.run_ber(6);
  EXPECT_GE(b.ber(), a.ber());
  EXPECT_GT(b.evm_rms_avg, a.evm_rms_avg);
}

TEST(WlanLink, InterfererWithIdealFilteringIsHarmless) {
  // The idealized front-end (perfect digital channel filter) must shrug
  // off the +16 dB adjacent channel.
  LinkConfig cfg = default_link_config();
  cfg.rf_engine = RfEngine::kNone;
  cfg.interferer = channel::InterfererConfig{.offset_hz = 20e6, .level_db = 16.0};
  WlanLink link(cfg);
  const PacketResult r = link.run_packet(0);
  EXPECT_TRUE(r.decoded);
  EXPECT_EQ(r.bit_errors, 0u);
}

// Packets 0-3 of four §4.1 interferer links, captured before the
// interferer learned to interpolate only the prefix it keeps. The graph and
// direct paths share make_interferer, so only fixed numbers catch a change
// in its bits.
TEST(WlanLink, InterfererPacketsMatchCapturedResults) {
  struct Golden {
    std::size_t bit_errors;
    double evm_rms;
    double cfo_norm;
  };
  struct Case {
    std::size_t oversample;
    double offset_hz;
    double level_db;
    Golden packets[4];
  };
  const Case cases[] = {
      {4, 20e6, 16.0,
       {{44, 0.53394764402256001, 3.5106527121790741e-05},
        {0, 0.40365467353002066, 0.00013371002475046187},
        {15, 0.51995483787513308, 6.0745636828633083e-07},
        {2, 0.50101152624632483, 0.00031040836640591632}}},
      {4, -20e6, 16.0,
       {{49, 0.53415142782258973, 2.8307580519246428e-05},
        {0, 0.40275160288917522, 0.00012943801913750674},
        {15, 0.52326817230479949, -1.0784815137958553e-06},
        {2, 0.50278677293299301, 0.00031130149796776559}}},
      {8, 20e6, 16.0,
       {{7, 0.47029480987658562, -2.5637281694472651e-05},
        {40, 0.54344011445129237, -4.4064522154076314e-05},
        {52, 0.55929667491749524, 7.4655753266670254e-05},
        {165, 0.50704114362727215, -5.7873973375470781e-06}}},
      {8, 40e6, 32.0,
       {{9, 0.47106863096090296, -2.8251596377750783e-05},
        {40, 0.5416276477129619, -4.6196527324259138e-05},
        {44, 0.5642461328146835, 6.7632219920649798e-05},
        {174, 0.50334727662796486, -1.0492598594430175e-05}}},
  };
  for (const Case& c : cases) {
    LinkConfig cfg = default_link_config();
    cfg.psdu_bytes = 100;
    cfg.snr_db = 9.0;
    cfg.oversample = c.oversample;
    cfg.interferer = channel::InterfererConfig{.offset_hz = c.offset_hz,
                                               .level_db = c.level_db};
    WlanLink link(cfg);
    for (std::uint64_t i = 0; i < 4; ++i) {
      SCOPED_TRACE(::testing::Message() << c.oversample << "x offset "
                                        << c.offset_hz << " packet " << i);
      const PacketResult r = link.run_packet(i);
      EXPECT_TRUE(r.decoded);
      EXPECT_EQ(r.bits, 800u);
      EXPECT_EQ(r.bit_errors, c.packets[i].bit_errors);
      EXPECT_EQ(r.evm_rms, c.packets[i].evm_rms);
      EXPECT_EQ(r.cfo_norm, c.packets[i].cfo_norm);
    }
  }
}

TEST(WlanLink, RejectsBadConfig) {
  // Configs no packet can run fail at construction, through validate().
  LinkConfig base = default_link_config();
  base.interferer = channel::InterfererConfig{.offset_hz = 20e6};
  std::vector<LinkConfig> bad(9, base);
  bad[0].psdu_bytes = 0;
  bad[1].oversample = 0;
  bad[2].psdu_bytes = 4096;
  bad[3].interferer->offset_hz = 30e6 + 1.0;  // |offset| + 10 MHz > fs/2
  bad[4].rf.bb_bandwidth_factor = -1.0;
  bad[5].rf.bb_bandwidth_factor = 5.0;  // 43 MHz corner at 80 Msps
  bad[6].sco_ppm = -1e6;
  bad[7].sco_ppm = 1e6;
  bad[8].rf_engine = RfEngine::kCustom;  // with no custom_rf factory
  for (std::size_t b = 0; b < bad.size(); ++b) {
    SCOPED_TRACE(b);
    EXPECT_THROW(validate(bad[b]), std::invalid_argument);
    EXPECT_THROW(WlanLink{bad[b]}, std::invalid_argument);
  }

  // The paper's §4.1 links and the edges of each rule pass.
  std::vector<LinkConfig> good(5, base);
  good[1].interferer->offset_hz = -30e6;
  good[2].oversample = 8;
  good[2].interferer->offset_hz = 40e6;
  good[3].rf_engine = RfEngine::kNone;
  good[3].rf.bb_bandwidth_factor = 0.0;  // no front-end, no filter
  good[4].sco_ppm = 999999.0;
  for (std::size_t g = 0; g < good.size(); ++g) {
    SCOPED_TRACE(g);
    EXPECT_NO_THROW(validate(good[g]));
  }
}

TEST(WlanLink, CapturesWaveformsForInspection) {
  LinkConfig cfg = default_link_config();
  WlanLink link(cfg);
  link.run_packet(0);
  EXPECT_FALSE(link.last_rx_baseband().empty());
  EXPECT_FALSE(link.last_rf_input().empty());
  // RF input is at the oversampled rate.
  EXPECT_NEAR(static_cast<double>(link.last_rf_input().size()) /
                  static_cast<double>(link.last_rx_baseband().size()),
              static_cast<double>(cfg.oversample), 0.1);
}

TEST(WlanLink, InterleavedLinksMatchSoloRuns) {
  // Links on one thread share its packet scratch (padding, interferer,
  // front-end output, noise normals), so links of different shapes running
  // packets in turn must not see each other's data, on the scalar path or
  // the lane wave, and each link's probes stay its own.
  LinkConfig sec41 = default_link_config();  // §4.1: TX PA + adjacent channel
  sec41.psdu_bytes = 60;
  sec41.tx_pa_backoff_db = 8.0;
  sec41.interferer =
      channel::InterfererConfig{.offset_hz = 20e6, .level_db = 16.0};
  LinkConfig fig6 = sec41;  // FIG6: 8x, -40 dBm, adjacent blocker
  fig6.tx_pa_backoff_db.reset();
  fig6.oversample = 8;
  fig6.rx_power_dbm = -40.0;
  LinkConfig ideal = default_link_config();
  ideal.psdu_bytes = 60;
  ideal.rf_engine = RfEngine::kNone;
  const std::vector<LinkConfig> configs{sec41, fig6, ideal};
  constexpr std::size_t kPackets = 4;

  const auto expect_same = [](const PacketResult& a, const PacketResult& b) {
    EXPECT_EQ(a.decoded, b.decoded);
    EXPECT_EQ(a.bits, b.bits);
    EXPECT_EQ(a.bit_errors, b.bit_errors);
    EXPECT_EQ(a.evm_rms, b.evm_rms);
    EXPECT_EQ(a.cfo_norm, b.cfo_norm);
  };
  std::vector<std::vector<PacketResult>> solo;
  for (const LinkConfig& cfg : configs) {
    WlanLink link(cfg);
    solo.emplace_back();
    for (std::size_t p = 0; p < kPackets; ++p)
      solo.back().push_back(link.run_packet(p));
  }

  {
    SCOPED_TRACE("scalar path");
    std::vector<WlanLink> links(configs.begin(), configs.end());
    for (std::size_t p = 0; p < kPackets; ++p) {
      const PacketResult a = links[0].run_packet(p);
      const dsp::CVec rf_input = links[0].last_rf_input();
      const dsp::CVec rx = links[0].last_rx_baseband();
      const PacketResult b = links[1].run_packet(p);
      const PacketResult c = links[2].run_packet(p);
      SCOPED_TRACE(::testing::Message() << "packet " << p);
      expect_same(a, solo[0][p]);
      expect_same(b, solo[1][p]);
      expect_same(c, solo[2][p]);
      EXPECT_EQ(links[0].last_rf_input(), rf_input);
      EXPECT_EQ(links[0].last_rx_baseband(), rx);
    }
  }
  {
    SCOPED_TRACE("lane wave");
    std::vector<WlanLink> links(configs.begin(), configs.end());
    PacketBatch batch;
    for (std::size_t begin = 0; begin < kPackets; begin += 2) {
      for (std::size_t k = 0; k < links.size(); ++k) {
        PacketResult out[2];
        ASSERT_TRUE(links[k].run_packet_wave(begin, 2, batch, nullptr, out));
        SCOPED_TRACE(::testing::Message() << "link " << k << " packet "
                                          << begin);
        expect_same(out[0], solo[k][begin]);
        expect_same(out[1], solo[k][begin + 1]);
      }
    }
  }
}

TEST(Experiments, Fig4SpectrumShowsAdjacentChannelAbove) {
  LinkConfig cfg = default_link_config();
  const SpectrumResult r = experiment_fig4_spectrum(cfg);
  // The adjacent channel sits ~16 dB above the wanted channel (Fig. 4).
  EXPECT_NEAR(r.adjacent_power_dbm - r.wanted_power_dbm, 16.0, 1.5);
  EXPECT_EQ(r.offset_hz, 20e6);
  EXPECT_FALSE(r.psd.power.empty());
}

TEST(Experiments, Fig5ShapeNarrowBadOptimumGood) {
  LinkConfig cfg = default_link_config();
  const auto res = experiment_fig5_filter_bandwidth(cfg, {0.3, 1.0}, 3);
  const auto ber = res.column("ber");
  EXPECT_GT(ber[0], 0.05);   // too narrow: signal destroyed
  EXPECT_LT(ber[1], 0.01);   // nominal bandwidth: clean
}

TEST(Experiments, NoiseGapCosimIsOptimistic) {
  LinkConfig cfg = default_link_config();
  cfg.rx_power_dbm = -80.0;
  cfg.snr_db.reset();
  cfg.cosim.analog_oversample = 8;  // keep the test fast
  const NoiseGapResult r = experiment_noise_gap(cfg, 3);
  // Without noise functions the co-simulated link looks better (paper
  // §5.1: "the measured BER values were better than the results from the
  // corresponding SPW only simulation").
  EXPECT_LT(r.evm_cosim_nonoise, r.evm_system);
  EXPECT_LE(r.ber_cosim_nonoise, r.ber_system + 1e-9);
}

TEST(Experiments, DefaultConfigIsSane) {
  const LinkConfig cfg = default_link_config();
  EXPECT_EQ(cfg.oversample, 4u);
  EXPECT_EQ(cfg.rf_engine, RfEngine::kSystemLevel);
  EXPECT_TRUE(cfg.snr_db.has_value());
}

}  // namespace
}  // namespace wlansim::core
