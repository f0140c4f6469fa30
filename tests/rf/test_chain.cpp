// Tests for filters, AGC, ADC and the composed double-conversion receiver.
#include <cmath>

#include <gtest/gtest.h>

#include "dsp/mathutil.h"
#include "rf/adc.h"
#include "rf/agc.h"
#include "rf/analyses.h"
#include "rf/filters.h"
#include "rf/receiver_chain.h"

namespace wlansim::rf {
namespace {

TEST(RfFilters, ChebyshevSelectivity) {
  ChebyshevLowpass lpf(7, 1.0, 8.6e6, 80e6);
  EXPECT_NEAR(lpf.magnitude_at(0.0), 1.0, 0.15);
  EXPECT_GT(lpf.magnitude_at(5e6), 0.8);
  // Adjacent channel band must be deeply attenuated.
  EXPECT_LT(dsp::to_db(std::pow(lpf.magnitude_at(12e6), 2.0)), -30.0);
  EXPECT_LT(dsp::to_db(std::pow(lpf.magnitude_at(20e6), 2.0)), -60.0);
}

TEST(RfFilters, CornerBeyondNyquistRejected) {
  EXPECT_THROW(ChebyshevLowpass(5, 0.5, 50e6, 80e6), std::invalid_argument);
  EXPECT_THROW(DcBlockHighpass(2, 0.0, 80e6), std::invalid_argument);
}

TEST(RfFilters, DcBlockRemovesDcKeepsSignal) {
  DcBlockHighpass hpf(2, 120e3, 80e6);
  // DC + 2 MHz tone.
  dsp::CVec in(1 << 14);
  for (std::size_t i = 0; i < in.size(); ++i) {
    const double ang = dsp::kTwoPi * (2e6 / 80e6) * static_cast<double>(i);
    in[i] = dsp::Cplx{0.5, 0.0} + dsp::Cplx{std::cos(ang), std::sin(ang)};
  }
  const dsp::CVec out = hpf.process(in);
  const std::span<const dsp::Cplx> settled(out.data() + 8192, 8192);
  EXPECT_LT(std::norm(tone_amplitude(settled, 0.0)), 1e-4);
  EXPECT_NEAR(tone_power(settled, 2e6 / 80e6), 1.0, 0.02);
}

TEST(Agc, ConvergesToTargetPower) {
  AgcConfig cfg;
  cfg.target_power_dbm = -10.0;
  cfg.initial_gain_db = 0.0;
  cfg.lock_count = 0;  // keep the loop open for this test
  Agc agc(cfg);
  dsp::Rng rng(1);
  // Constant-envelope input at -30 dBm.
  const double a = std::sqrt(dsp::dbm_to_watts(-30.0));
  dsp::CVec in(20000, dsp::Cplx{a, 0.0});
  const dsp::CVec out = agc.process(in);
  const double settled =
      dsp::mean_power(std::span<const dsp::Cplx>(out).subspan(15000));
  EXPECT_NEAR(dsp::watts_to_dbm(settled), -10.0, 0.5);
  EXPECT_NEAR(agc.current_gain_db(), 20.0, 0.5);
}

TEST(Agc, RespectsGainLimits) {
  AgcConfig cfg;
  cfg.target_power_dbm = 0.0;
  cfg.max_gain_db = 10.0;
  cfg.min_gain_db = -10.0;
  cfg.lock_count = 0;
  Agc agc(cfg);
  const double tiny = std::sqrt(dsp::dbm_to_watts(-80.0));
  dsp::CVec weak(20000, dsp::Cplx{tiny, 0.0});
  agc.process(weak);
  EXPECT_NEAR(agc.current_gain_db(), 10.0, 1e-9);  // pegged at max
  agc.reset();
  const double big = std::sqrt(dsp::dbm_to_watts(30.0));
  dsp::CVec loud(20000, dsp::Cplx{big, 0.0});
  agc.process(loud);
  EXPECT_NEAR(agc.current_gain_db(), -10.0, 1e-9);  // pegged at min
}

TEST(Agc, LocksAndHoldsThenUnlocksOnLevelJump) {
  AgcConfig cfg;
  cfg.target_power_dbm = -10.0;
  cfg.initial_gain_db = 20.0;
  cfg.lock_window_db = 2.0;
  cfg.lock_count = 64;
  cfg.unlock_window_db = 10.0;
  Agc agc(cfg);
  const double a = std::sqrt(dsp::dbm_to_watts(-30.0));
  dsp::CVec in(8000, dsp::Cplx{a, 0.0});
  agc.process(in);
  EXPECT_TRUE(agc.locked());
  const double locked_gain = agc.current_gain_db();
  // Small level change: stays locked, gain untouched.
  dsp::CVec in2(4000, dsp::Cplx{a * 1.2, 0.0});
  agc.process(in2);
  EXPECT_TRUE(agc.locked());
  EXPECT_DOUBLE_EQ(agc.current_gain_db(), locked_gain);
  // 20 dB jump: must unlock and re-acquire.
  dsp::CVec in3(12000, dsp::Cplx{a * 10.0, 0.0});
  agc.process(in3);
  EXPECT_NE(agc.current_gain_db(), locked_gain);
}

TEST(Adc, QuantizesAndClips) {
  AdcConfig cfg;
  cfg.bits = 4;
  cfg.full_scale = 1.0;
  Adc adc(cfg);
  // Clipping.
  EXPECT_DOUBLE_EQ(adc.quantize(5.0), 1.0);
  EXPECT_DOUBLE_EQ(adc.quantize(-5.0), -1.0);
  // Step size = 2/(2^4 - 1); values snap to the grid.
  const double step = 2.0 / 15.0;
  EXPECT_NEAR(adc.quantize(0.4), std::round(0.4 / step) * step, 1e-12);
}

TEST(Adc, SqnrScalesWithBits) {
  dsp::Rng rng(2);
  dsp::CVec in(20000);
  for (auto& v : in) v = 0.2 * rng.cgaussian(1.0);
  double prev_snr = 0.0;
  for (std::size_t bits : {6u, 8u, 10u}) {
    AdcConfig cfg;
    cfg.bits = bits;
    cfg.full_scale = 1.0;
    Adc adc(cfg);
    const dsp::CVec out = adc.process(in);
    double err = 0.0, sig = 0.0;
    for (std::size_t i = 0; i < in.size(); ++i) {
      err += std::norm(out[i] - in[i]);
      sig += std::norm(in[i]);
    }
    const double snr = dsp::to_db(sig / err);
    EXPECT_GT(snr, prev_snr + 8.0);  // ~12 dB per 2 bits
    prev_snr = snr;
  }
}

TEST(Adc, DisabledIsTransparent) {
  AdcConfig cfg;
  cfg.enabled = false;
  Adc adc(cfg);
  dsp::CVec in = {dsp::Cplx{0.123456789, -0.987654321}};
  EXPECT_EQ(adc.process(in)[0], in[0]);
}

TEST(DoubleConversion, FrontEndGainReported) {
  DoubleConversionConfig cfg;
  DoubleConversionReceiver rx(cfg, dsp::Rng(1));
  EXPECT_DOUBLE_EQ(rx.front_end_gain_db(),
                   cfg.lna_gain_db + cfg.mixer1_gain_db + cfg.mixer2_gain_db);
}

TEST(DoubleConversion, RemovesDcOffsetFromSecondMixer) {
  DoubleConversionConfig cfg;
  cfg.noise_enabled = false;
  cfg.mixer2_dc_offset = {1e-3, 1e-3};  // strong self-mixing product
  DoubleConversionReceiver rx(cfg, dsp::Rng(1));
  dsp::CVec zeros(1 << 15, dsp::Cplx{0.0, 0.0});
  const dsp::CVec out = rx.process(zeros);
  // After the interstage high-pass filters the output holds no DC.
  const std::span<const dsp::Cplx> settled(out.data() + (1 << 14), 1 << 14);
  const dsp::Cplx dc = tone_amplitude(settled, 0.0);
  EXPECT_LT(std::abs(dc), 1e-4);
}

TEST(DoubleConversion, AdjacentChannelRejection) {
  DoubleConversionConfig cfg;
  cfg.noise_enabled = false;
  DoubleConversionReceiver rx(cfg, dsp::Rng(1));
  ToneTestConfig tc;
  tc.num_samples = 1 << 14;
  tc.settle_samples = 1 << 13;
  // In-band 3 MHz vs adjacent-channel 20 MHz tone.
  const double rej = measure_rejection_db(rx, tc, 3e6, 20e6, -60.0);
  EXPECT_GT(rej, 50.0);
}

TEST(DoubleConversion, NoiseSwitchSilencesChain) {
  DoubleConversionConfig cfg;
  cfg.noise_enabled = false;
  cfg.mixer2_dc_offset = {0.0, 0.0};
  DoubleConversionReceiver rx(cfg, dsp::Rng(1));
  dsp::CVec zeros(8192, dsp::Cplx{0.0, 0.0});
  const dsp::CVec out = rx.process(zeros);
  EXPECT_LT(dsp::mean_power(out), 1e-25);
}

TEST(DoubleConversion, CompressionPointMovesWithConfig) {
  // The chain's measured input P1dB must track the LNA's configured P1dB.
  ToneTestConfig tc;
  tc.num_samples = 4096;
  tc.settle_samples = 2048;
  double prev = -100.0;
  for (double p1 : {-30.0, -20.0, -10.0}) {
    DoubleConversionConfig cfg;
    cfg.noise_enabled = false;
    cfg.lna_p1db_in_dbm = p1;
    // Freeze AGC/ADC so the static nonlinearity dominates the measurement.
    cfg.agc.loop_gain = 0.0;
    cfg.agc.initial_gain_db = 0.0;
    cfg.adc.enabled = false;
    DoubleConversionReceiver rx(cfg, dsp::Rng(1));
    const double measured = measure_p1db_in_dbm(rx, tc, p1 - 15.0, p1 + 10.0);
    EXPECT_NEAR(measured, p1, 2.0) << p1;
    EXPECT_GT(measured, prev);
    prev = measured;
  }
}

}  // namespace
}  // namespace wlansim::rf

namespace wlansim::rf {
namespace {

TEST(RfChain, ComposesAndResets) {
  RfChain chain;
  auto* a = chain.emplace<Amplifier>(
      AmplifierConfig{.label = "a", .gain_db = 6.0, .noise_figure_db = 0.0},
      80e6, dsp::Rng(1));
  chain.emplace<Amplifier>(
      AmplifierConfig{.label = "b", .gain_db = 4.0, .noise_figure_db = 0.0},
      80e6, dsp::Rng(2));
  (void)a;
  EXPECT_EQ(chain.size(), 2u);
  dsp::CVec in(100, dsp::Cplx{1e-4, 0.0});
  const dsp::CVec out = chain.process(in);
  // 6 + 4 = 10 dB through the cascade.
  EXPECT_NEAR(dsp::to_db(dsp::mean_power(out) / dsp::mean_power(in)), 10.0,
              0.05);
  chain.reset();  // must not throw and must propagate
  EXPECT_EQ(chain.at(0).name(), "a");
}

}  // namespace
}  // namespace wlansim::rf
