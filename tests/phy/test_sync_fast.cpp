// Equivalence of the O(N) sliding-window sync paths against their O(N*W)
// references in tests/reference/phy_reference, across CFO, fading, low
// SNR, threshold edges, and the all-zero-lead case that exercises the drift
// guard (a slid power sum must collapse to the reference's exact 0 over
// zero windows, not drift to a tiny denominator).
#include <cmath>

#include <gtest/gtest.h>

#include "dsp/mathutil.h"
#include "dsp/rng.h"
#include "phy80211a/preamble.h"
#include "phy80211a/sync.h"
#include "phy_reference.h"

namespace wlansim::phy {
namespace {

void expect_same_detection(std::span<const dsp::Cplx> sig,
                           double threshold = 0.6) {
  const auto fast = detect_packet(sig, threshold);
  const auto want = ref::detect_packet(sig, threshold);
  ASSERT_EQ(fast.has_value(), want.has_value())
      << "threshold " << threshold;
  if (fast) {
    EXPECT_EQ(fast->detect_index, want->detect_index);
    // Same index => coarse_cfo runs the identical loop on both paths.
    EXPECT_EQ(fast->coarse_cfo_norm, want->coarse_cfo_norm);
  }
}

void expect_same_lts(std::span<const dsp::Cplx> sig, std::size_t lo,
                     std::size_t hi) {
  const auto fast = locate_long_training(sig, lo, hi);
  const auto want = ref::locate_long_training(sig, lo, hi);
  ASSERT_EQ(fast.has_value(), want.has_value());
  if (fast) {
    EXPECT_EQ(*fast, *want);
  }
}

/// Noise lead + preamble-plus-noise + noise-like payload.
dsp::CVec frame_signal(double noise_sigma, unsigned seed,
                       std::size_t lead = 400) {
  dsp::Rng rng(seed);
  const dsp::CVec pre = full_preamble();
  dsp::CVec sig;
  sig.reserve(lead + pre.size() + 1200);
  for (std::size_t i = 0; i < lead; ++i)
    sig.push_back(rng.cgaussian(noise_sigma));
  for (const auto& v : pre) sig.push_back(v + rng.cgaussian(noise_sigma));
  for (std::size_t i = 0; i < 1200; ++i)
    sig.push_back(rng.cgaussian(0.3) + rng.cgaussian(noise_sigma));
  return sig;
}

TEST(SyncFast, CleanPreamble) {
  const dsp::CVec sig = frame_signal(1e-3, 101);
  expect_same_detection(sig);
  const auto det = detect_packet(sig);
  ASSERT_TRUE(det.has_value());
  expect_same_lts(sig, det->detect_index, det->detect_index + 400);
}

TEST(SyncFast, CfoOffsets) {
  for (const double cfo : {-0.01, -0.003, 0.001, 0.004, 0.01}) {
    dsp::CVec sig = frame_signal(3e-3, 102);
    correct_cfo(sig, -cfo);  // impose e^{+j 2 pi cfo n}
    expect_same_detection(sig);
    const auto det = detect_packet(sig);
    ASSERT_TRUE(det.has_value()) << "cfo " << cfo;
    expect_same_lts(sig, det->detect_index, det->detect_index + 400);
  }
}

TEST(SyncFast, TwoTapFading) {
  const dsp::CVec x = frame_signal(3e-3, 103);
  dsp::CVec sig(x.size());
  for (std::size_t n = 0; n < x.size(); ++n) {
    sig[n] = x[n];
    if (n >= 3) sig[n] += dsp::Cplx{0.1, 0.35} * x[n - 3];
  }
  expect_same_detection(sig);
  const auto det = detect_packet(sig);
  ASSERT_TRUE(det.has_value());
  expect_same_lts(sig, det->detect_index, det->detect_index + 400);
}

TEST(SyncFast, LowSnr) {
  const dsp::CVec sig = frame_signal(0.25, 104);
  expect_same_detection(sig);
}

TEST(SyncFast, NoPacketPureNoise) {
  dsp::Rng rng(105);
  dsp::CVec sig(4000);
  for (auto& v : sig) v = rng.cgaussian(1.0);
  EXPECT_FALSE(ref::detect_packet(sig).has_value());
  expect_same_detection(sig);
  expect_same_lts(sig, 0, sig.size());
}

TEST(SyncFast, ThresholdSweep) {
  // Edge cases around the plateau height: at high thresholds the run
  // condition starts failing at different plateau positions; the fast
  // path's decisions must track the reference at every setting.
  const dsp::CVec sig = frame_signal(0.08, 106);
  for (const double thr : {0.3, 0.5, 0.6, 0.75, 0.9, 0.97, 0.999})
    expect_same_detection(sig, thr);
}

TEST(SyncFast, ZeroPaddedLead) {
  // An exactly-zero lead: the reference computes p == 0 there and emits
  // m == 0; a naive sliding p could drift to a denormal-scale positive
  // value and blow the metric up. The drift guard must re-sum to exact 0.
  const dsp::CVec pre = full_preamble();
  dsp::Rng rng(107);
  dsp::CVec sig(700, dsp::Cplx{0.0, 0.0});
  for (const auto& v : pre) sig.push_back(v + rng.cgaussian(1e-3));
  for (std::size_t i = 0; i < 900; ++i) sig.push_back(rng.cgaussian(0.3));
  expect_same_detection(sig);
  const auto det = detect_packet(sig);
  ASSERT_TRUE(det.has_value());
  expect_same_lts(sig, det->detect_index, det->detect_index + 400);
  // Also exercise the LTS power slide across the zero lead itself.
  expect_same_lts(sig, 0, sig.size());
}

TEST(SyncFast, ShortInputs) {
  dsp::Rng rng(108);
  for (const std::size_t n : {0u, 10u, 48u, 49u, 80u}) {
    dsp::CVec sig(n);
    for (auto& v : sig) v = rng.cgaussian(1.0);
    expect_same_detection(sig);
    expect_same_lts(sig, 0, sig.size());
  }
}

}  // namespace
}  // namespace wlansim::phy
