#include "phy80211a/equalizer.h"

#include <cmath>

#include <gtest/gtest.h>

#include "dsp/fft.h"
#include "dsp/mathutil.h"
#include "dsp/rng.h"
#include "phy80211a/measure.h"
#include "phy80211a/preamble.h"

namespace wlansim::phy {
namespace {

/// An ideal flat channel estimate: gain 1, the DC carrier unused.
ChannelEstimate flat_channel() {
  ChannelEstimate est;
  est.h.fill(dsp::Cplx{1.0, 0.0});
  est.h[26] = dsp::Cplx{0.0, 0.0};
  return est;
}

/// One demodulated symbol's bins and its equalized points and weights.
struct Symbol {
  std::array<dsp::Cplx, kNumDataCarriers> data{};
  std::array<dsp::Cplx, kNumPilots> pilots{};
};
struct Equalized {
  std::array<dsp::Cplx, kNumDataCarriers> points;
  std::array<double, kNumDataCarriers> weights;
};

/// equalize_symbols at nsym = 1.
Equalized equalize_one(const Symbol& sym, const ChannelEstimate& est,
                       std::size_t symbol_index, bool track_phase = true,
                       bool track_timing = true) {
  Equalized out;
  equalize_symbols(sym.data.data(), sym.pilots.data(), 1, symbol_index, est,
                   track_phase, track_timing, out.points.data(),
                   out.weights.data());
  return out;
}

TEST(ChannelEstimate, RecoversFlatGainFromCleanLts) {
  const dsp::Cplx h{0.7, -0.4};
  dsp::CVec lts;
  const dsp::CVec& sym = long_training_symbol();
  for (int rep = 0; rep < 2; ++rep)
    for (const auto& v : sym) lts.push_back(h * v);
  const ChannelEstimate est = estimate_channel(lts);
  for (int k = -26; k <= 26; ++k) {
    if (k == 0) continue;
    EXPECT_NEAR(std::abs(est.at_carrier(k) - h), 0.0, 1e-10) << k;
  }
}

TEST(ChannelEstimate, AveragesTheTwoSymbols) {
  // Noise on one copy is halved in power by averaging with the other.
  dsp::Rng rng(1);
  const dsp::CVec& sym = long_training_symbol();
  dsp::CVec lts(sym.begin(), sym.end());
  lts.insert(lts.end(), sym.begin(), sym.end());
  for (std::size_t i = 0; i < 64; ++i) lts[i] += rng.cgaussian(0.01);
  const ChannelEstimate est = estimate_channel(lts);
  double err = 0.0;
  int n = 0;
  for (int k = -26; k <= 26; ++k) {
    if (k == 0) continue;
    err += std::norm(est.at_carrier(k) - dsp::Cplx{1.0, 0.0});
    ++n;
  }
  // Time noise of variance v on one 64-sample copy appears per FFT bin
  // with variance 64 v (unnormalized forward FFT); the estimate divides
  // the two-copy sum by 2L (|L| = 1), so E|H - 1|^2 = 64 v / 4 = 0.16.
  EXPECT_NEAR(err / n, 0.16, 0.08);
}

TEST(ChannelEstimate, RejectsShortInput) {
  EXPECT_THROW(estimate_channel(dsp::CVec(100)), std::invalid_argument);
}

TEST(SmoothChannel, IdentityForWindowOne) {
  ChannelEstimate est = flat_channel();
  est.h[10] = {2.0, 1.0};
  const ChannelEstimate out = smooth_channel(est, 1);
  EXPECT_EQ(out.h[10], est.h[10]);
}

TEST(SmoothChannel, RejectsEvenWindow) {
  EXPECT_THROW(smooth_channel(flat_channel(), 2), std::invalid_argument);
  EXPECT_THROW(smooth_channel(flat_channel(), 0), std::invalid_argument);
}

TEST(SmoothChannel, ReducesNoiseOnFlatChannel) {
  dsp::Rng rng(2);
  ChannelEstimate noisy = flat_channel();
  for (int k = -26; k <= 26; ++k) {
    if (k == 0) continue;
    noisy.h[static_cast<std::size_t>(k + 26)] += rng.cgaussian(0.04);
  }
  const ChannelEstimate smooth = smooth_channel(noisy, 5);
  double err_raw = 0.0, err_smooth = 0.0;
  for (int k = -26; k <= 26; ++k) {
    if (k == 0) continue;
    err_raw += std::norm(noisy.at_carrier(k) - dsp::Cplx{1.0, 0.0});
    err_smooth += std::norm(smooth.at_carrier(k) - dsp::Cplx{1.0, 0.0});
  }
  EXPECT_LT(err_smooth, 0.5 * err_raw);
}

TEST(SmoothChannel, ToleratesLinearPhaseRamp) {
  // A pure delay (linear phase across carriers) must survive smoothing
  // essentially unchanged — the derotation step handles it.
  ChannelEstimate est;
  const double slope = 0.9;  // radians per carrier: steep
  for (int k = -26; k <= 26; ++k) {
    if (k == 0) {
      est.h[26] = {0.0, 0.0};
      continue;
    }
    const double ang = slope * k;
    est.h[static_cast<std::size_t>(k + 26)] =
        dsp::Cplx{std::cos(ang), std::sin(ang)};
  }
  const ChannelEstimate out = smooth_channel(est, 5);
  for (int k = -24; k <= 24; ++k) {
    if (k == 0) continue;
    EXPECT_NEAR(std::abs(out.at_carrier(k)), 1.0, 0.02) << k;
  }
}

TEST(EqualizeSymbol, RemovesChannelAndReportsWeights) {
  dsp::Rng rng(3);
  // Build a demodulated symbol through a known channel.
  ChannelEstimate est;
  for (int k = -26; k <= 26; ++k) {
    est.h[static_cast<std::size_t>(k + 26)] =
        (k == 0) ? dsp::Cplx{0.0, 0.0}
                 : dsp::Cplx{1.0 + 0.01 * k, 0.3};
  }
  Symbol sym;
  std::array<dsp::Cplx, kNumDataCarriers> tx_pts;
  const auto hd = est.data_carriers();
  for (std::size_t i = 0; i < kNumDataCarriers; ++i) {
    tx_pts[i] = rng.cgaussian(1.0);
    sym.data[i] = tx_pts[i] * hd[i];
  }
  const double pol = pilot_polarity(4);
  const auto& pv = pilot_base_values();
  const auto hp = est.pilot_carriers();
  for (std::size_t i = 0; i < kNumPilots; ++i)
    sym.pilots[i] = pol * pv[i] * hp[i];

  const Equalized eq = equalize_one(sym, est, 4);
  for (std::size_t i = 0; i < kNumDataCarriers; ++i) {
    EXPECT_NEAR(std::abs(eq.points[i] - tx_pts[i]), 0.0, 1e-9) << i;
    EXPECT_NEAR(eq.weights[i], std::norm(hd[i]), 1e-9);
  }
}

TEST(EqualizeSymbol, TracksCommonPhaseAndGain) {
  // Rotate + scale the whole received symbol; pilots must undo it.
  ChannelEstimate est = flat_channel();
  const dsp::Cplx drift = 1.15 * dsp::Cplx{std::cos(0.35), std::sin(0.35)};
  Symbol sym;
  dsp::Rng rng(4);
  std::array<dsp::Cplx, kNumDataCarriers> tx_pts;
  for (std::size_t i = 0; i < kNumDataCarriers; ++i) {
    tx_pts[i] = rng.cgaussian(1.0);
    sym.data[i] = tx_pts[i] * drift;
  }
  const double pol = pilot_polarity(1);
  const auto& pv = pilot_base_values();
  for (std::size_t i = 0; i < kNumPilots; ++i)
    sym.pilots[i] = pol * pv[i] * drift;

  const Equalized eq = equalize_one(sym, est, 1, true);
  for (std::size_t i = 0; i < kNumDataCarriers; ++i) {
    EXPECT_NEAR(std::abs(eq.points[i] - tx_pts[i]), 0.0, 1e-9) << i;
  }

  // With tracking off the drift stays: the tracker derotated every point
  // by exactly the common phase (0.35 rad) and gain (1.15).
  const Equalized raw = equalize_one(sym, est, 1, false);
  EXPECT_GT(std::abs(raw.points[0] - tx_pts[0]), 0.1);
  for (std::size_t i = 0; i < kNumDataCarriers; ++i) {
    const dsp::Cplx removed = raw.points[i] / eq.points[i];
    EXPECT_NEAR(std::arg(removed), 0.35, 1e-9) << i;
    EXPECT_NEAR(std::abs(removed), 1.15, 1e-9) << i;
  }
}

TEST(EqualizeSymbol, ZeroChannelGivesZeroWeight) {
  ChannelEstimate est = flat_channel();
  est.h.fill(dsp::Cplx{0.0, 0.0});
  const Equalized eq = equalize_one(Symbol{}, est, 0, false);
  for (double w : eq.weights) EXPECT_DOUBLE_EQ(w, 0.0);
}

}  // namespace
}  // namespace wlansim::phy

namespace wlansim::phy {
namespace {

TEST(PerCarrierEvm, LocalizesErrorToInjectedCarrier) {
  PerCarrierEvm prof;
  dsp::Rng rng(9);
  for (int s = 0; s < 20; ++s) {
    dsp::CVec ref(kNumDataCarriers), rx(kNumDataCarriers);
    for (std::size_t i = 0; i < kNumDataCarriers; ++i) {
      ref[i] = rng.cgaussian(1.0);
      rx[i] = ref[i];
    }
    rx[7] += dsp::Cplx{0.3, 0.0};  // corrupt exactly one carrier slot
    prof.add_symbol(rx, ref);
  }
  const auto evm = prof.evm_per_carrier();
  EXPECT_EQ(prof.symbols(), 20u);
  for (std::size_t i = 0; i < evm.size(); ++i) {
    if (i == 7) {
      EXPECT_GT(evm[i], 0.1) << i;
    } else {
      EXPECT_NEAR(evm[i], 0.0, 1e-12) << i;
    }
  }
}

TEST(PerCarrierEvm, CarrierIndexCoversBand) {
  EXPECT_EQ(PerCarrierEvm::carrier_index(0), -26);
  EXPECT_EQ(PerCarrierEvm::carrier_index(kNumDataCarriers - 1), 26);
}

TEST(PerCarrierEvm, RejectsWrongSize) {
  PerCarrierEvm prof;
  dsp::CVec bad(10);
  EXPECT_THROW(prof.add_symbol(bad, bad), std::invalid_argument);
}

}  // namespace
}  // namespace wlansim::phy
