#include "dsp/iir.h"

#include <cmath>

#include <gtest/gtest.h>

#include "dsp/mathutil.h"
#include "dsp/rng.h"

namespace wlansim::dsp {
namespace {

TEST(IirDesign, RejectsBadParameters) {
  EXPECT_THROW(design_butterworth_lowpass(0, 0.2), std::invalid_argument);
  EXPECT_THROW(design_butterworth_lowpass(4, 0.0), std::invalid_argument);
  EXPECT_THROW(design_butterworth_lowpass(4, 0.5), std::invalid_argument);
  EXPECT_THROW(design_chebyshev1_lowpass(4, 0.0, 0.2), std::invalid_argument);
  EXPECT_THROW(design_chebyshev1_lowpass(4, -1.0, 0.2), std::invalid_argument);
}

TEST(IirDesign, ButterworthLowpassIsMinus3dbAtCutoff) {
  for (std::size_t order : {2u, 3u, 4u, 5u, 7u}) {
    BiquadCascade f = design_butterworth_lowpass(order, 0.1);
    EXPECT_NEAR(to_db(std::norm(f.response(0.1))), -3.01, 0.1) << order;
    EXPECT_NEAR(std::abs(f.response(0.0)), 1.0, 1e-9) << order;
  }
}

TEST(IirDesign, ButterworthRolloffScalesWithOrder) {
  // One octave above cutoff the attenuation should be ~6 dB per pole.
  for (std::size_t order : {2u, 4u, 6u}) {
    BiquadCascade f = design_butterworth_lowpass(order, 0.05);
    const double att = to_db(std::norm(f.response(0.1)));
    EXPECT_NEAR(att, -6.02 * static_cast<double>(order), 1.5) << order;
  }
}

TEST(IirDesign, ButterworthHighpassMirrors) {
  BiquadCascade f = design_butterworth_highpass(4, 0.1);
  EXPECT_NEAR(std::abs(f.response(0.5)), 1.0, 1e-9);
  EXPECT_NEAR(to_db(std::norm(f.response(0.1))), -3.01, 0.1);
  EXPECT_LT(to_db(std::norm(f.response(0.01))), -60.0);
}

TEST(IirDesign, ChebyshevRippleStaysInBand) {
  const double ripple_db = 1.0;
  BiquadCascade f = design_chebyshev1_lowpass(5, ripple_db, 0.15);
  // In the passband the magnitude must stay within [1-ripple, 1].
  for (double fr = 0.001; fr < 0.148; fr += 0.002) {
    const double mag_db = to_db(std::norm(f.response(fr)));
    EXPECT_LE(mag_db, 0.05) << fr;
    EXPECT_GE(mag_db, -ripple_db - 0.05) << fr;
  }
  // At the passband edge the response equals the ripple floor.
  EXPECT_NEAR(to_db(std::norm(f.response(0.15))), -ripple_db, 0.1);
}

TEST(IirDesign, ChebyshevBeatsButterworthPastBand) {
  // Same order, same edge: Chebyshev must roll off faster.
  BiquadCascade cheb = design_chebyshev1_lowpass(5, 0.5, 0.1);
  BiquadCascade butt = design_butterworth_lowpass(5, 0.1);
  const double ac = to_db(std::norm(cheb.response(0.2)));
  const double ab = to_db(std::norm(butt.response(0.2)));
  EXPECT_LT(ac, ab - 5.0);
}

TEST(IirDesign, ChebyshevEvenOrderDcGain) {
  const double ripple_db = 2.0;
  BiquadCascade f = design_chebyshev1_lowpass(4, ripple_db, 0.2);
  // Even order: DC sits at the ripple floor.
  EXPECT_NEAR(to_db(std::norm(f.response(0.0))), -ripple_db, 0.05);
  BiquadCascade g = design_chebyshev1_lowpass(5, ripple_db, 0.2);
  EXPECT_NEAR(to_db(std::norm(g.response(0.0))), 0.0, 0.05);
}

TEST(Biquad, StepMatchesResponseOnTone) {
  BiquadCascade f = design_butterworth_lowpass(4, 0.1);
  const double fr = 0.06;
  const std::size_t n = 4000;
  CVec x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double ang = kTwoPi * fr * static_cast<double>(i);
    x[i] = {std::cos(ang), std::sin(ang)};
  }
  const CVec y = f.process(x);
  // After settling, output amplitude must match |H(f)|.
  const double expected = std::abs(f.response(fr));
  double acc = 0.0;
  for (std::size_t i = n / 2; i < n; ++i) acc += std::abs(y[i]);
  const double got = acc / static_cast<double>(n - n / 2);
  EXPECT_NEAR(got, expected, 0.01);
}

TEST(Biquad, ResetClearsState) {
  BiquadCascade f = design_butterworth_lowpass(2, 0.1);
  f.step(Cplx{100.0, 0.0});
  f.reset();
  BiquadCascade g = design_butterworth_lowpass(2, 0.1);
  EXPECT_NEAR(std::abs(f.step(Cplx{1.0, 0.0}) - g.step(Cplx{1.0, 0.0})), 0.0,
              1e-15);
}

TEST(Biquad, StableUnderWhiteNoise) {
  Rng rng(4);
  BiquadCascade f = design_chebyshev1_lowpass(7, 1.0, 0.12);
  double max_out = 0.0;
  for (int i = 0; i < 50000; ++i) {
    const Cplx y = f.step(rng.cgaussian(1.0));
    max_out = std::max(max_out, std::abs(y));
  }
  EXPECT_LT(max_out, 100.0);  // bounded output == stable poles
}

}  // namespace
}  // namespace wlansim::dsp
