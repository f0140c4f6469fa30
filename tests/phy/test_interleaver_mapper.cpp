#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "dsp/mathutil.h"
#include "dsp/rng.h"
#include "phy80211a/interleaver.h"
#include "phy80211a/mapper.h"

namespace wlansim::phy {
namespace {

TEST(Interleaver, RejectsBadBlockSize) {
  EXPECT_THROW(Interleaver(50, 2), std::invalid_argument);
}

/// One symbol block in transmission order: in[k] lands at fwd()[k].
template <typename T>
std::vector<T> interleave(const Interleaver& il, const std::vector<T>& in) {
  std::vector<T> out(in.size());
  for (std::size_t k = 0; k < in.size(); ++k) out[il.fwd()[k]] = in[k];
  return out;
}

/// Back to decoder order: in[j] lands at inv()[j].
template <typename T>
std::vector<T> deinterleave(const Interleaver& il, const std::vector<T>& in) {
  std::vector<T> out(in.size());
  for (std::size_t j = 0; j < in.size(); ++j) out[il.inv()[j]] = in[j];
  return out;
}

TEST(Interleaver, PermutationIsBijective) {
  for (Rate r : {Rate::kMbps6, Rate::kMbps12, Rate::kMbps24, Rate::kMbps54}) {
    const Interleaver il(r);
    std::set<std::size_t> seen(il.fwd().begin(), il.fwd().end());
    EXPECT_EQ(seen.size(), il.block_size());
    EXPECT_EQ(*seen.begin(), 0u);
    EXPECT_EQ(*seen.rbegin(), il.block_size() - 1);
  }
}

TEST(Interleaver, RoundTripAllRates) {
  dsp::Rng rng(1);
  for (Rate r : {Rate::kMbps6, Rate::kMbps9, Rate::kMbps12, Rate::kMbps18,
                 Rate::kMbps24, Rate::kMbps36, Rate::kMbps48, Rate::kMbps54}) {
    const Interleaver il(r);
    Bits in(il.block_size());
    for (auto& b : in) b = rng.bit() ? 1 : 0;
    EXPECT_EQ(deinterleave(il, interleave(il, in)), in) << rate_name(r);
  }
}

TEST(Interleaver, SoftDeinterleaveMatchesHard) {
  dsp::Rng rng(2);
  const Interleaver il(Rate::kMbps54);
  Bits in(il.block_size());
  for (auto& b : in) b = rng.bit() ? 1 : 0;
  const Bits inter = interleave(il, in);
  SoftBits soft(inter.size());
  for (std::size_t i = 0; i < inter.size(); ++i)
    soft[i] = inter[i] ? -1.0 : 1.0;
  const SoftBits desoft = deinterleave(il, soft);
  for (std::size_t i = 0; i < in.size(); ++i)
    EXPECT_EQ(desoft[i] < 0.0, in[i] == 1);
}

TEST(Interleaver, KnownFirstPermutationProperty) {
  // Adjacent coded bits must land on far-apart positions: for NCBPS=48,
  // input bits k and k+1 map at least 3 positions apart (NCBPS/16 = 3).
  const Interleaver il(48, 1);
  for (std::size_t k = 0; k + 1 < 48; ++k) {
    const auto d = static_cast<std::ptrdiff_t>(il.fwd()[k + 1]) -
                   static_cast<std::ptrdiff_t>(il.fwd()[k]);
    EXPECT_GE(std::abs(d), 3);
  }
}

TEST(Mapper, AllConstellationsHaveUnitAveragePower) {
  dsp::Rng rng(3);
  for (Modulation m : {Modulation::kBpsk, Modulation::kQpsk, Modulation::kQam16,
                       Modulation::kQam64}) {
    const Mapper mapper(m);
    const std::size_t nb = mapper.bits_per_point();
    double acc = 0.0;
    const std::size_t npts = std::size_t{1} << nb;
    for (std::size_t v = 0; v < npts; ++v) {
      Bits bits(nb);
      for (std::size_t i = 0; i < nb; ++i) bits[i] = (v >> i) & 1;
      acc += std::norm(mapper.map_point(bits));
    }
    EXPECT_NEAR(acc / static_cast<double>(npts), 1.0, 1e-12)
        << static_cast<int>(m);
  }
}

TEST(Mapper, BpskMapsSignCorrectly) {
  const Mapper m(Modulation::kBpsk);
  Bits zero = {0}, one = {1};
  EXPECT_NEAR(m.map_point(zero).real(), -1.0, 1e-12);
  EXPECT_NEAR(m.map_point(one).real(), 1.0, 1e-12);
  EXPECT_NEAR(m.map_point(one).imag(), 0.0, 1e-12);
}

TEST(Mapper, Qam16KnownPoints) {
  const Mapper m(Modulation::kQam16);
  const double s = 1.0 / std::sqrt(10.0);
  // Std Table 83: b0b1 = 00 -> I=-3, 01 -> -1, 11 -> +1, 10 -> +3.
  EXPECT_NEAR(m.map_point(Bits{0, 0, 0, 0}).real(), -3 * s, 1e-12);
  EXPECT_NEAR(m.map_point(Bits{0, 1, 0, 0}).real(), -1 * s, 1e-12);
  EXPECT_NEAR(m.map_point(Bits{1, 1, 0, 0}).real(), 1 * s, 1e-12);
  EXPECT_NEAR(m.map_point(Bits{1, 0, 0, 0}).real(), 3 * s, 1e-12);
  EXPECT_NEAR(m.map_point(Bits{0, 0, 1, 1}).imag(), 1 * s, 1e-12);
}

TEST(Mapper, HardDemapRoundTripAllPoints) {
  dsp::Rng rng(4);
  for (Modulation mod : {Modulation::kBpsk, Modulation::kQpsk,
                         Modulation::kQam16, Modulation::kQam64}) {
    const Mapper m(mod);
    const std::size_t nb = m.bits_per_point();
    for (std::size_t v = 0; v < (std::size_t{1} << nb); ++v) {
      Bits bits(nb);
      for (std::size_t i = 0; i < nb; ++i) bits[i] = (v >> i) & 1;
      const dsp::Cplx p = m.map_point(bits);
      EXPECT_EQ(m.demap_hard_point(p), bits);
      // Gray property: small noise flips at most the nearest decision.
      const dsp::Cplx noisy = p + rng.cgaussian(1e-6);
      EXPECT_EQ(m.demap_hard_point(noisy), bits);
    }
  }
}

TEST(Mapper, SoftDemapSignsMatchHardDecisions) {
  dsp::Rng rng(5);
  const Mapper m(Modulation::kQam64);
  for (int trial = 0; trial < 200; ++trial) {
    const dsp::Cplx y = rng.cgaussian(2.0);
    const Bits hard = m.demap_hard_point(y);
    const SoftBits soft = m.demap_soft_point(y, 1.0);
    for (std::size_t i = 0; i < hard.size(); ++i) {
      if (soft[i] != 0.0) {
        EXPECT_EQ(soft[i] < 0.0, hard[i] == 1) << "trial " << trial;
      }
    }
  }
}

TEST(Mapper, SoftWeightScalesLinearly) {
  const Mapper m(Modulation::kQpsk);
  const dsp::Cplx y{0.3, -0.5};
  const SoftBits a = m.demap_soft_point(y, 1.0);
  const SoftBits b = m.demap_soft_point(y, 2.5);
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_NEAR(b[i], 2.5 * a[i], 1e-12);
}

TEST(Mapper, GrayNeighborsDifferInOneBit) {
  const Mapper m(Modulation::kQam16);
  const double s = 1.0 / std::sqrt(10.0);
  const double levels[4] = {-3 * s, -1 * s, 1 * s, 3 * s};
  for (int i = 0; i + 1 < 4; ++i) {
    const Bits a = m.demap_hard_point({levels[i], levels[0]});
    const Bits b = m.demap_hard_point({levels[i + 1], levels[0]});
    int diff = 0;
    for (std::size_t k = 0; k < a.size(); ++k)
      if (a[k] != b[k]) ++diff;
    EXPECT_EQ(diff, 1) << "levels " << i << "," << i + 1;
  }
}

TEST(Mapper, NearestPointIsIdempotent) {
  dsp::Rng rng(6);
  const Mapper m(Modulation::kQam64);
  for (int i = 0; i < 100; ++i) {
    const dsp::Cplx y = rng.cgaussian(1.5);
    const dsp::Cplx p = m.nearest_point(y);
    EXPECT_NEAR(std::abs(m.nearest_point(p) - p), 0.0, 1e-12);
  }
}

TEST(Mapper, MapRejectsWrongBitCount) {
  const Mapper m(Modulation::kQam16);
  EXPECT_THROW(m.map(Bits(7, 0)), std::invalid_argument);
  EXPECT_THROW(m.map_point(Bits{0, 1}), std::invalid_argument);
}

}  // namespace
}  // namespace wlansim::phy
