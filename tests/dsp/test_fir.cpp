#include "dsp/fir.h"

#include <cmath>

#include <gtest/gtest.h>

#include "dsp/mathutil.h"
#include "dsp/rng.h"

namespace wlansim::dsp {
namespace {

TEST(FirDesign, RejectsBadParameters) {
  EXPECT_THROW(design_lowpass_fir(4, 0.2), std::invalid_argument);   // even
  EXPECT_THROW(design_lowpass_fir(1, 0.2), std::invalid_argument);   // too short
  EXPECT_THROW(design_lowpass_fir(31, 0.0), std::invalid_argument);  // cutoff
  EXPECT_THROW(design_lowpass_fir(31, 0.5), std::invalid_argument);
}

TEST(FirDesign, LowpassHasUnityDcGainAndStopbandRejection) {
  const RVec h = design_lowpass_fir(63, 0.125);
  FirFilter f(h);
  EXPECT_NEAR(std::abs(f.response(0.0)), 1.0, 1e-9);
  // Passband center.
  EXPECT_NEAR(std::abs(f.response(0.05)), 1.0, 0.02);
  // Deep stopband.
  EXPECT_LT(to_db(std::norm(f.response(0.3))), -40.0);
  EXPECT_LT(to_db(std::norm(f.response(0.45))), -40.0);
}

TEST(FirDesign, KaiserMeetsAttenuationSpec) {
  const RVec h = design_kaiser_lowpass(0.2, 0.05, 60.0);
  FirFilter f(h);
  // Stopband starts roughly at cutoff + transition/2.
  for (double fr = 0.26; fr < 0.5; fr += 0.02) {
    EXPECT_LT(to_db(std::norm(f.response(fr))), -55.0) << "f=" << fr;
  }
  EXPECT_NEAR(std::abs(f.response(0.0)), 1.0, 1e-9);
}

TEST(FirFilter, ImpulseResponseEqualsTaps) {
  const RVec taps = {0.25, 0.5, 0.25};
  FirFilter f(taps);
  CVec impulse(6, Cplx{0.0, 0.0});
  impulse[0] = 1.0;
  const CVec y = f.process(impulse);
  EXPECT_NEAR(y[0].real(), 0.25, 1e-15);
  EXPECT_NEAR(y[1].real(), 0.5, 1e-15);
  EXPECT_NEAR(y[2].real(), 0.25, 1e-15);
  EXPECT_NEAR(std::abs(y[3]), 0.0, 1e-15);
}

TEST(FirFilter, StreamingMatchesBlockProcessing) {
  Rng rng(9);
  const RVec taps = design_lowpass_fir(31, 0.2);
  CVec x(200);
  for (Cplx& v : x) v = rng.cgaussian(1.0);

  FirFilter whole(taps);
  const CVec ref = whole.process(x);

  FirFilter chunked(taps);
  CVec got;
  for (std::size_t i = 0; i < x.size(); i += 17) {
    const std::size_t len = std::min<std::size_t>(17, x.size() - i);
    const CVec part = chunked.process(std::span<const Cplx>(x).subspan(i, len));
    got.insert(got.end(), part.begin(), part.end());
  }
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i)
    EXPECT_NEAR(std::abs(got[i] - ref[i]), 0.0, 1e-12);
}

TEST(FirFilter, ResetClearsState) {
  const RVec taps = {1.0, 1.0};
  FirFilter f(taps);
  f.step(Cplx{5.0, 0.0});
  f.reset();
  EXPECT_NEAR(f.step(Cplx{1.0, 0.0}).real(), 1.0, 1e-15);
}

TEST(FirFilter, GroupDelayReported) {
  FirFilter f(design_lowpass_fir(41, 0.2));
  EXPECT_DOUBLE_EQ(f.group_delay(), 20.0);
}

}  // namespace
}  // namespace wlansim::dsp
