#include <cmath>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "dsp/mathutil.h"
#include "dsp/rng.h"
#include "dsp/window.h"

namespace wlansim::dsp {
namespace {

TEST(Window, RejectsZeroLength) {
  EXPECT_THROW(make_window(WindowType::kHann, 0), std::invalid_argument);
}

TEST(Window, SymmetryHolds) {
  for (auto type : {WindowType::kHann, WindowType::kHamming,
                    WindowType::kBlackman, WindowType::kKaiser}) {
    const RVec w = make_window(type, 33);
    for (std::size_t i = 0; i < w.size(); ++i) {
      EXPECT_NEAR(w[i], w[w.size() - 1 - i], 1e-12);
    }
  }
}

TEST(Window, HannEndpointsAreZeroPeakIsOne) {
  const RVec w = make_window(WindowType::kHann, 65);
  EXPECT_NEAR(w[0], 0.0, 1e-12);
  EXPECT_NEAR(w[64], 0.0, 1e-12);
  EXPECT_NEAR(w[32], 1.0, 1e-12);
}

TEST(Window, RectIsAllOnes) {
  const RVec w = make_window(WindowType::kRect, 10);
  for (double v : w) EXPECT_DOUBLE_EQ(v, 1.0);
}

TEST(Window, KaiserBetaFormulaRegions) {
  EXPECT_NEAR(kaiser_beta_for_attenuation(10.0), 0.0, 1e-12);
  EXPECT_GT(kaiser_beta_for_attenuation(40.0), 2.0);
  EXPECT_NEAR(kaiser_beta_for_attenuation(60.0), 0.1102 * (60.0 - 8.7), 1e-9);
}

TEST(Window, KaiserLengthIsOddAndGrowsWithSpec) {
  const std::size_t a = kaiser_length(40.0, 0.1);
  const std::size_t b = kaiser_length(80.0, 0.1);
  const std::size_t c = kaiser_length(40.0, 0.01);
  EXPECT_EQ(a % 2, 1u);
  EXPECT_LT(a, b);
  EXPECT_LT(a, c);
  EXPECT_THROW(kaiser_length(60.0, 0.0), std::invalid_argument);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.gaussian(), b.gaussian());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.uniform() == b.uniform()) ++same;
  EXPECT_LT(same, 5);
}

TEST(Rng, GaussianMomentsAreCorrect) {
  Rng rng(123);
  const int n = 200000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.gaussian();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.01);
  EXPECT_NEAR(sum2 / n, 1.0, 0.02);
}

TEST(Rng, ComplexGaussianVariance) {
  Rng rng(77);
  const int n = 100000;
  double p = 0.0;
  for (int i = 0; i < n; ++i) p += std::norm(rng.cgaussian(3.0));
  EXPECT_NEAR(p / n, 3.0, 0.05);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    if (v == 0) saw_lo = true;
    if (v == 3) saw_hi = true;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

// The memoized-TX replay and graph-vs-direct equivalence tests depend on
// the noise stream never moving, so the hand-rolled engine and normal
// sampler are pinned bit-for-bit against the host libstdc++ here. If a
// toolchain change ever breaks one of these, the replacement must
// reproduce the old stream, not just the distribution.
//
// The engine builds its first block lazily, in chunks, and finishes it in
// bulk once a caller reads far enough (see rng.h), so the test reads it
// every way a caller can: single draws stopping at every count up to
// 1000, block() spans that start, cross and end at the chunk, lazy-limit,
// half-block and block boundaries (fresh and after single draws), copies
// taken mid-block, re-seeding mid-stream, and the gaussian samplers
// straight after construction.

/// 64 seeds: 0, 1, the engine's default, 2^64 - 1, and a splitmix64 walk.
std::vector<std::uint64_t> engine_test_seeds() {
  std::vector<std::uint64_t> seeds = {0, 1, 5489, ~0ull};
  std::uint64_t z = 2003;
  while (seeds.size() < 64) {
    z += 0x9e3779b97f4a7c15ull;
    std::uint64_t m = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    m = (m ^ (m >> 27)) * 0x94d049bb133111ebull;
    seeds.push_back(m ^ (m >> 31));
  }
  return seeds;
}

std::vector<std::uint64_t> std_stream(std::uint64_t seed, std::size_t n) {
  std::mt19937_64 ref(seed);
  std::vector<std::uint64_t> out(n);
  for (std::uint64_t& v : out) v = ref();
  return out;
}

TEST(Rng, EngineMatchesStdMt19937_64BitExact) {
  constexpr std::size_t kBlocks[] = {1,   7,   8,   9,   155, 156,
                                     157, 311, 312, 313, 700};
  constexpr std::size_t kSinglesFirst[] = {0,  1,   3,   4,   5,   31,  32,
                                           33, 155, 156, 157, 311, 312, 313};
  for (const std::uint64_t seed : engine_test_seeds()) {
    const std::vector<std::uint64_t> ref = std_stream(seed, 2000);
    SCOPED_TRACE(seed);
    // Single draws, stopping at every count, then the next draw.
    for (std::size_t n = 1; n <= 1000; ++n) {
      Mt19937_64 mine(seed);
      for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(mine(), ref[i]) << n;
      ASSERT_EQ(mine(), ref[n]) << n;
    }
    // k single draws, one block() request, then single draws again.
    for (const std::size_t k : kSinglesFirst) {
      for (const std::size_t m : kBlocks) {
        Mt19937_64 mine(seed);
        for (std::size_t i = 0; i < k; ++i) ASSERT_EQ(mine(), ref[i]);
        std::vector<std::uint64_t> got(m);
        mine.block(got.data(), m);
        for (std::size_t i = 0; i < m; ++i)
          ASSERT_EQ(got[i], ref[k + i]) << k << " then block " << m;
        for (std::size_t i = k + m; i < k + m + 5; ++i)
          ASSERT_EQ(mine(), ref[i]) << k << " then block " << m;
      }
    }
    // A copy taken mid-block: both continue the one stream.
    for (const std::size_t k : {1, 3, 4, 5, 17, 32, 33, 200}) {
      Mt19937_64 mine(seed);
      for (std::size_t i = 0; i < k; ++i) mine();
      Mt19937_64 copy = mine;
      std::vector<std::uint64_t> got(600);
      mine.block(got.data(), got.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i], ref[k + i]) << "original after " << k;
        ASSERT_EQ(copy(), ref[k + i]) << "copy after " << k;
      }
    }
    // seed() mid-stream restarts the stream whatever was read before.
    for (const std::size_t k : {2, 40, 400}) {
      Mt19937_64 mine(seed ^ 0x5555);
      for (std::size_t i = 0; i < k; ++i) mine();
      mine.seed(seed);
      for (std::size_t i = 0; i < 700; ++i) ASSERT_EQ(mine(), ref[i]) << k;
    }
  }
}

TEST(Rng, FreshGaussiansMatchStdNormalDistribution) {
  for (const std::uint64_t seed : engine_test_seeds()) {
    SCOPED_TRACE(seed);
    {
      std::mt19937_64 refg(seed);
      std::normal_distribution<double> refd(0.0, 1.0);
      Rng mine(seed);
      for (int i = 0; i < 3; ++i) ASSERT_EQ(mine.gaussian(), refd(refg));
    }
    for (const std::size_t n : {1, 2, 3, 8, 157, 400}) {
      std::mt19937_64 refg(seed);
      std::normal_distribution<double> refd(0.0, 1.0);
      Rng mine(seed);
      std::vector<double> got(n);
      mine.fill_gaussian(got.data(), n);
      for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(got[i], refd(refg)) << n;
      ASSERT_EQ(mine.gaussian(), refd(refg)) << n;
    }
  }
}

TEST(Rng, SeedLockstepMatchesSeparateSeeding) {
  const std::vector<std::uint64_t> seeds = engine_test_seeds();
  for (std::size_t n = 1; n <= Mt19937_64::kLockstep; ++n) {
    for (std::size_t b = 0; b + n <= 12; b += n) {
      Rng together[Mt19937_64::kLockstep];
      together[0].gaussian();  // a banked half-pair must not survive
      Rng::seed_lockstep(together, seeds.data() + b, n);
      for (std::size_t k = 0; k < n; ++k) {
        Rng alone(seeds[b + k]);
        ASSERT_EQ(together[k].gaussian(), alone.gaussian()) << n << " " << k;
        for (int i = 0; i < 700; ++i)
          ASSERT_EQ(together[k].engine()(), alone.engine()()) << n << " " << k;
      }
    }
  }
  Rng five[5];
  EXPECT_THROW(Rng::seed_lockstep(five, seeds.data(), 5),
               std::invalid_argument);
}

TEST(Rng, GaussianMatchesStdNormalDistributionBitExact) {
  std::mt19937_64 refg(2003);
  std::normal_distribution<double> refd(0.0, 1.0);
  Rng mine(2003);
  for (int i = 0; i < 20000; ++i) {
    const double want = refd(refg);
    ASSERT_EQ(want, mine.gaussian()) << "draw " << i;
  }
}

TEST(Rng, FillGaussianMatchesSingleDrawStream) {
  Rng singles(41);
  Rng bulk(41);
  double buf[257];
  // Odd sizes and interleaved single draws exercise the carried half-pair
  // at every chunk boundary.
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{7},
                              std::size_t{64}, std::size_t{257},
                              std::size_t{100}, std::size_t{3}}) {
    bulk.fill_gaussian(buf, n);
    for (std::size_t k = 0; k < n; ++k) ASSERT_EQ(singles.gaussian(), buf[k]);
    ASSERT_EQ(singles.gaussian(), bulk.gaussian());
  }
}

TEST(Rng, SeedResetsCarriedPairLikeDistributionReset) {
  Rng a(7);
  a.gaussian();  // leaves a banked second value
  a.seed(7);
  std::mt19937_64 refg(7);
  std::normal_distribution<double> refd(0.0, 1.0);
  for (int i = 0; i < 100; ++i) ASSERT_EQ(refd(refg), a.gaussian());
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(9);
  Rng child = a.fork();
  // Child and parent streams should not be identical.
  int same = 0;
  for (int i = 0; i < 50; ++i)
    if (a.uniform() == child.uniform()) ++same;
  EXPECT_LT(same, 3);
}

}  // namespace
}  // namespace wlansim::dsp
