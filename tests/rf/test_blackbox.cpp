// Tests of the J&K-style black-box extraction (paper §4, option two).
#include "rf/blackbox.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "dsp/mathutil.h"
#include "rf/analyses.h"
#include "rf/receiver_chain.h"

namespace wlansim::rf {
namespace {

/// A characterization-friendly chain: static gain, no adaptation.
DoubleConversionConfig static_chain() {
  DoubleConversionConfig cfg;
  cfg.noise_enabled = false;
  cfg.mixer2_dc_offset = {0.0, 0.0};
  cfg.adc.enabled = false;
  cfg.agc.loop_gain = 0.0;
  cfg.agc.initial_gain_db = 0.0;
  return cfg;
}

ExtractionConfig fast_extraction() {
  ExtractionConfig cfg;
  cfg.fir_taps = 41;
  cfg.num_env_points = 12;
  cfg.tone_samples = 2048;
  cfg.settle_samples = 2048;
  return cfg;
}

TEST(FitComplexFir, ExactlyInterpolatesGridSamples) {
  // Build an arbitrary smooth response on the grid and check the fitted
  // FIR reproduces it at the grid frequencies.
  const std::size_t t = 21;
  dsp::CVec h(t);
  for (std::size_t k = 0; k < t; ++k) {
    const double x = (static_cast<double>(k) - 10.0) / 10.0;
    h[k] = std::exp(-x * x) * dsp::Cplx{std::cos(0.3 * x), std::sin(0.3 * x)};
  }
  const dsp::CVec taps = fit_complex_fir(h);
  dsp::CFirFilter f(taps);
  for (std::size_t k = 0; k < t; ++k) {
    const double fn = (static_cast<double>(k) - 10.0) / static_cast<double>(t);
    EXPECT_NEAR(std::abs(f.response(fn)), std::abs(h[k]), 1e-9) << k;
  }
}

TEST(FitComplexFir, RecentersBulkDelay) {
  // A pure delay of 30 samples sampled on a 21-tap grid: the fit must
  // produce a flat magnitude response (delay folded to the tap center).
  const std::size_t t = 21;
  dsp::CVec h(t);
  for (std::size_t k = 0; k < t; ++k) {
    const double fn = (static_cast<double>(k) - 10.0) / static_cast<double>(t);
    const double ang = -dsp::kTwoPi * fn * 30.0;
    h[k] = dsp::Cplx{std::cos(ang), std::sin(ang)};
  }
  const dsp::CVec taps = fit_complex_fir(h);
  // Expect essentially a single unit tap near the center.
  double peak = 0.0;
  std::size_t peak_idx = 0;
  for (std::size_t i = 0; i < taps.size(); ++i) {
    if (std::abs(taps[i]) > peak) {
      peak = std::abs(taps[i]);
      peak_idx = i;
    }
  }
  EXPECT_NEAR(peak, 1.0, 1e-6);
  EXPECT_EQ(peak_idx, 10u);
}

TEST(FitComplexFir, RejectsEvenTapCount) {
  EXPECT_THROW(fit_complex_fir(dsp::CVec(10)), std::invalid_argument);
}

TEST(Blackbox, ExtractedGainMatchesChain) {
  DoubleConversionReceiver chain(static_chain(), dsp::Rng(1));
  const BlackBoxData data = extract_blackbox(chain, fast_extraction());
  BlackBoxModel model(data, dsp::Rng(2));

  ToneTestConfig tc;
  tc.tone_hz = 2e6;
  tc.num_samples = 4096;
  tc.settle_samples = 2048;
  const double g_chain = measure_gain_db(chain, tc, -60.0);
  const double g_model = measure_gain_db(model, tc, -60.0);
  EXPECT_NEAR(g_model, g_chain, 0.5);
}

TEST(Blackbox, ExtractedSelectivityTracksChannelFilter) {
  DoubleConversionReceiver chain(static_chain(), dsp::Rng(1));
  const BlackBoxData data = extract_blackbox(chain, fast_extraction());
  BlackBoxModel model(data, dsp::Rng(2));

  ToneTestConfig tc;
  tc.num_samples = 4096;
  tc.settle_samples = 2048;
  // The surrogate cannot match an order-7 Chebyshev edge exactly from a
  // ~2 MHz frequency grid, but adjacent-channel rejection must be strong.
  const double rej = measure_rejection_db(model, tc, 3e6, 20e6, -60.0);
  EXPECT_GT(rej, 35.0);
}

TEST(Blackbox, ExtractedCompressionMatchesChain) {
  DoubleConversionConfig cc = static_chain();
  cc.lna_p1db_in_dbm = -25.0;
  DoubleConversionReceiver chain(cc, dsp::Rng(1));
  const BlackBoxData data = extract_blackbox(chain, fast_extraction());
  BlackBoxModel model(data, dsp::Rng(2));

  ToneTestConfig tc;
  tc.tone_hz = 2e6;
  tc.num_samples = 4096;
  tc.settle_samples = 2048;
  const double p1_model = measure_p1db_in_dbm(model, tc, -45.0, -10.0);
  EXPECT_NEAR(p1_model, -25.0, 2.0);
}

TEST(Blackbox, NoisePowerReplayed) {
  DoubleConversionConfig cc = static_chain();
  cc.noise_enabled = true;
  cc.lna_nf_db = 6.0;
  DoubleConversionReceiver chain(cc, dsp::Rng(3));
  const BlackBoxData data = extract_blackbox(chain, fast_extraction());
  EXPECT_GT(data.noise_power, 0.0);

  BlackBoxModel model(data, dsp::Rng(4));
  dsp::CVec zeros(1 << 14, dsp::Cplx{0.0, 0.0});
  const dsp::CVec y = model.process(zeros);
  EXPECT_NEAR(dsp::mean_power(y) / data.noise_power, 1.0, 0.1);
}

TEST(Blackbox, AmPmTableInterpolates) {
  BlackBoxData data;
  data.sample_rate_hz = 80e6;
  data.freq_hz = {0.0};
  data.h = {dsp::Cplx{1.0, 0.0}};
  data.env_in = {1.0, 2.0, 3.0};
  data.env_out = {2.0, 3.8, 5.0};  // compressing
  data.env_phase = {0.0, 0.1, 0.3};
  // h must be odd-size >= 3 for the FIR fit; use a flat 3-point response.
  data.freq_hz = {-1.0, 0.0, 1.0};
  data.h = {dsp::Cplx{1, 0}, dsp::Cplx{1, 0}, dsp::Cplx{1, 0}};
  BlackBoxModel model(data, dsp::Rng(1));
  EXPECT_NEAR(model.am_am_gain(1.5), (2.0 + 0.5 * 1.8) / 1.5, 1e-12);
  EXPECT_NEAR(model.am_pm(2.5), 0.2, 1e-12);
  // Clamped at the ends.
  EXPECT_NEAR(model.am_am_gain(0.1), 2.0, 1e-12);
  EXPECT_NEAR(model.am_pm(10.0), 0.3, 1e-12);
}

}  // namespace
}  // namespace wlansim::rf
