#include <bit>
#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

#include "dsp/fir.h"
#include "dsp/mathutil.h"
#include "dsp/resample.h"
#include "dsp/rng.h"
#include "dsp/spectrum.h"

namespace wlansim::dsp {
namespace {

// The interpolator upsample() is defined as, written out sample by sample:
// zero-stuff the input (scaled by factor to keep amplitude), stream it
// through the resampling lowpass from cleared state, flush with `delay`
// zeros, and keep the group-delay-aligned outputs [delay, delay + n).
CVec upsample_zero_stuffed_reference(std::span<const Cplx> in,
                                     std::size_t factor, double atten_db) {
  FirFilter f(resampling_taps(factor, atten_db));
  const std::size_t delay = (f.num_taps() - 1) / 2;
  const std::size_t n = in.size() * factor;
  const double scale = static_cast<double>(factor);
  CVec out;
  out.reserve(n);
  for (std::size_t j = 0; j < n + delay; ++j) {
    const Cplx x = (j < n && j % factor == 0) ? in[j / factor] * scale
                                              : Cplx{0.0, 0.0};
    const Cplx y = f.step(x);
    if (j >= delay) out.push_back(y);
  }
  return out;
}

void expect_same_bits(const CVec& got, const CVec& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i].real()),
              std::bit_cast<std::uint64_t>(want[i].real()))
        << "re at " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i].imag()),
              std::bit_cast<std::uint64_t>(want[i].imag()))
        << "im at " << i;
  }
}

CVec gaussian(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  CVec x(n);
  for (Cplx& v : x) v = rng.cgaussian(1.0);
  return x;
}

TEST(Resample, UpsampleBitIdenticalToZeroStuffedReference) {
  for (const std::size_t factor : {2u, 4u, 8u}) {
    for (const double atten_db : {60.0, 80.0}) {
      for (const std::size_t n : {0u, 1u, 2u, 117u, 3000u}) {
        SCOPED_TRACE(::testing::Message() << "factor " << factor << " atten "
                                          << atten_db << " n " << n);
        const CVec x = gaussian(n, 1000 * factor + n);
        CVec out(7, Cplx{9.0, 9.0});  // dirty: upsample_into overwrites
        upsample_into(x, factor, out, atten_db);
        expect_same_bits(out,
                         upsample_zero_stuffed_reference(x, factor, atten_db));
        expect_same_bits(upsample(x, factor, atten_db), out);
      }
    }
  }
}

TEST(Resample, UpsampleOfNeededPrefixKeepsTheOutputPrefix) {
  const CVec x = gaussian(3000, 7);
  for (const std::size_t factor : {1u, 2u, 4u, 8u}) {
    const CVec full = upsample(x, factor);
    for (const std::size_t len : {1u, 59u, 1000u, 2561u}) {
      const std::size_t need = upsample_inputs_needed(len, factor);
      ASSERT_LE(need, x.size());
      CVec part = upsample(std::span<const Cplx>(x).first(need), factor);
      ASSERT_GE(part.size(), len);
      part.resize(len);
      expect_same_bits(part, CVec(full.begin(), full.begin() + len));
    }
  }
  // One input sample fewer changes the last kept output.
  const std::size_t need = upsample_inputs_needed(1000, 4);
  CVec short_part = upsample(std::span<const Cplx>(x).first(need - 1), 4);
  short_part.resize(1000);
  EXPECT_NE(short_part.back(), upsample(x, 4)[999]);
}

CVec tone(std::size_t n, double f_norm, double amp = 1.0) {
  CVec x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double ang = kTwoPi * f_norm * static_cast<double>(i);
    x[i] = amp * Cplx{std::cos(ang), std::sin(ang)};
  }
  return x;
}

TEST(Resample, UpsamplePreservesToneFrequencyAndAmplitude) {
  const CVec x = tone(2048, 0.05);
  const CVec y = upsample(x, 4);
  ASSERT_EQ(y.size(), x.size() * 4);
  const PsdEstimate psd = welch_psd(y, {.nfft = 1024});
  // Tone moves to 0.05/4 = 0.0125 of the new rate.
  double peak_f = 0.0, peak_p = 0.0;
  for (std::size_t i = 0; i < psd.size(); ++i) {
    if (psd.power[i] > peak_p) {
      peak_p = psd.power[i];
      peak_f = psd.freq_norm[i];
    }
  }
  EXPECT_NEAR(peak_f, 0.0125, 0.002);
  // Steady-state amplitude ~1.
  double amp = 0.0;
  for (std::size_t i = y.size() / 2; i < y.size() / 2 + 100; ++i)
    amp += std::abs(y[i]);
  EXPECT_NEAR(amp / 100.0, 1.0, 0.05);
}

TEST(Resample, UpsampleRejectsImages) {
  const CVec x = tone(2048, 0.05);
  const CVec y = upsample(x, 4, 60.0);
  const PsdEstimate psd = welch_psd(y, {.nfft = 1024});
  // Images would appear at 0.0125 +/- 0.25 k; check they are suppressed.
  const double main_db = watts_to_dbm(psd.band_power(0.0125, 0.01));
  const double image_db = watts_to_dbm(
      std::max(psd.band_power(0.2625, 0.01), psd.band_power(-0.2375, 0.01)));
  EXPECT_GT(main_db - image_db, 45.0);
}

TEST(Resample, DownsampleInvertsUpsample) {
  Rng rng(3);
  // Band-limit the test signal so decimation is information-preserving.
  CVec x = tone(4096, 0.03);
  for (Cplx& v : x) v += 0.3 * Cplx{std::cos(0.2), std::sin(0.1)};
  const CVec up = upsample(x, 4);
  const CVec down = downsample(up, 4);
  ASSERT_EQ(down.size(), x.size());
  // Compare a mid-section (edges are distorted by filter transients).
  double err = 0.0, ref = 0.0;
  for (std::size_t i = 1000; i < 3000; ++i) {
    err += std::norm(down[i] - x[i]);
    ref += std::norm(x[i]);
  }
  EXPECT_LT(err / ref, 1e-3);
}

TEST(Resample, FactorOneIsIdentity) {
  const CVec x = tone(128, 0.1);
  const CVec u = upsample(x, 1);
  const CVec d = downsample(x, 1);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(u[i], x[i]);
    EXPECT_EQ(d[i], x[i]);
  }
}

TEST(Resample, FrequencyShiftMovesTone) {
  const CVec x = tone(4096, 0.05);
  const CVec y = frequency_shift(x, 0.2);
  const PsdEstimate psd = welch_psd(y, {.nfft = 2048});
  double peak_f = 0.0, peak_p = 0.0;
  for (std::size_t i = 0; i < psd.size(); ++i) {
    if (psd.power[i] > peak_p) {
      peak_p = psd.power[i];
      peak_f = psd.freq_norm[i];
    }
  }
  EXPECT_NEAR(peak_f, 0.25, 0.002);
}

TEST(Resample, FrequencyShiftPreservesPower) {
  Rng rng(8);
  CVec x(5000);
  for (Cplx& v : x) v = rng.cgaussian(2.0);
  const double p0 = mean_power(x);
  const CVec y = frequency_shift(x, 0.37);
  EXPECT_NEAR(mean_power(y), p0, 1e-9);
}

TEST(Spectrum, WhiteNoisePsdIsFlatAndParsevalConsistent) {
  Rng rng(17);
  CVec x(1 << 15);
  for (Cplx& v : x) v = rng.cgaussian(1.0);
  const PsdEstimate psd = welch_psd(x, {.nfft = 256});
  double total = 0.0;
  for (double p : psd.power) total += p;
  EXPECT_NEAR(total, 1.0, 0.05);
  // Flatness: every bin within a few dB of the mean.
  const double mean_bin = total / static_cast<double>(psd.size());
  for (double p : psd.power) {
    EXPECT_LT(std::abs(to_db(p / mean_bin)), 3.0);
  }
}

TEST(Spectrum, TonePowerConcentratesInBand) {
  const CVec x = tone(1 << 14, 0.1, std::sqrt(2.0));  // power = 2
  const PsdEstimate psd = welch_psd(x, {.nfft = 1024});
  EXPECT_NEAR(psd.band_power(0.1, 0.01), 2.0, 0.05);
  EXPECT_LT(psd.band_power(-0.3, 0.05), 1e-6);
}

TEST(Spectrum, RejectsBadConfig) {
  CVec x(4096, Cplx{1.0, 0.0});
  EXPECT_THROW(welch_psd(x, {.nfft = 100}), std::invalid_argument);
  EXPECT_THROW(welch_psd(x, {.nfft = 4}), std::invalid_argument);
  WelchConfig bad;
  bad.overlap = 1.0;
  EXPECT_THROW(welch_psd(x, bad), std::invalid_argument);
  CVec shorty(16, Cplx{1.0, 0.0});
  EXPECT_THROW(welch_psd(shorty, {.nfft = 64}), std::invalid_argument);
}

TEST(Spectrum, DbmAtFindsNearestBin) {
  const CVec x = tone(1 << 14, 0.1, 1.0);
  const PsdEstimate psd = welch_psd(x, {.nfft = 256});
  // The tone power (1 W == 30 dBm) is concentrated near f = 0.1.
  EXPECT_GT(psd.dbm_at(0.1), 20.0);
  EXPECT_LT(psd.dbm_at(-0.4), -30.0);
}

}  // namespace
}  // namespace wlansim::dsp

namespace wlansim::dsp {
namespace {

TEST(FractionalResample, RatioOneReproducesInput) {
  Rng rng(31);
  CVec x(200);
  for (auto& v : x) v = rng.cgaussian(1.0);
  const CVec y = fractional_resample(x, 1.0);
  ASSERT_EQ(y.size(), x.size() - 3);
  for (std::size_t i = 0; i < y.size(); ++i)
    EXPECT_NEAR(std::abs(y[i] - x[i]), 0.0, 1e-12) << i;
}

TEST(FractionalResample, ToneSurvivesArbitraryRatio) {
  // Oversampled tone resampled by 80/11: frequency scales by 11/80.
  const double f_in = 0.02;
  const std::size_t n = 8192;
  CVec x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double ang = kTwoPi * f_in * static_cast<double>(i);
    x[i] = {std::cos(ang), std::sin(ang)};
  }
  const double ratio = 80.0 / 11.0;
  const CVec y = fractional_resample(x, ratio);
  ASSERT_GT(y.size(), 4096u);
  const PsdEstimate psd = welch_psd(y, {.nfft = 4096});
  double peak_f = 0.0, peak_p = 0.0;
  for (std::size_t i = 0; i < psd.size(); ++i) {
    if (psd.power[i] > peak_p) {
      peak_p = psd.power[i];
      peak_f = psd.freq_norm[i];
    }
  }
  EXPECT_NEAR(peak_f, f_in / ratio, 5e-4);
  // Amplitude preserved (cubic interpolation of an oversampled tone).
  EXPECT_NEAR(mean_power(std::span<const Cplx>(y).subspan(100, 4000)), 1.0,
              0.02);
}

TEST(FractionalResample, ClockOffsetModelsPpmStretch) {
  // ratio = 1 + 50 ppm: output is ~50 ppm longer.
  CVec x(100000, Cplx{1.0, 0.0});
  const CVec y = fractional_resample(x, 1.0 + 50e-6);
  const double expect =
      std::floor((100000.0 - 3.0) * (1.0 + 50e-6));
  EXPECT_NEAR(static_cast<double>(y.size()), expect, 1.0);
}

TEST(FractionalResample, RejectsBadRatioAndTinyInput) {
  EXPECT_THROW(fractional_resample(CVec(10), 0.0), std::invalid_argument);
  EXPECT_TRUE(fractional_resample(CVec(3), 2.0).empty());
}

}  // namespace
}  // namespace wlansim::dsp
