// The four-wide butterfly-ACS production decoder pinned against two
// test-only references (tests/reference/viterbi_reference.h):
//  * the straightforward double-precision decoder, on inputs quantized to
//    small dyadic rationals (multiples of 1/8, |v| <= 32), where every
//    float metric sum is exact and the decisions must match bit for bit;
//  * the scalar butterfly decoder it replaced, on unquantized inputs of
//    every kind, where the per-lane arithmetic must be that decoder's.
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "phy80211a/convcode.h"
#include "viterbi_reference.h"

namespace wlansim::phy {
namespace {

/// Uniform dyadic-rational LLR in [-32, 32] with step 1/8.
double quantized_llr(std::mt19937_64& gen) {
  std::uniform_int_distribution<int> d(-256, 256);
  return static_cast<double>(d(gen)) / 8.0;
}

SoftBits random_soft(std::size_t n_info, std::mt19937_64& gen) {
  SoftBits soft(2 * n_info);
  for (double& v : soft) v = quantized_llr(gen);
  return soft;
}

/// Noisy-but-quantized soft metrics for an actual codeword: a strong
/// correct component plus quantized perturbations, so the decoders face
/// realistic near-ties without leaving the exactness domain.
SoftBits codeword_soft(const Bits& coded, std::mt19937_64& gen) {
  SoftBits soft(coded.size());
  std::uniform_int_distribution<int> noise(-96, 96);  // +/-12 in 1/8 steps
  for (std::size_t i = 0; i < coded.size(); ++i) {
    const double sign = coded[i] ? -1.0 : 1.0;
    soft[i] = sign * 8.0 + static_cast<double>(noise(gen)) / 8.0;
  }
  return soft;
}

Bits random_info(std::size_t n, std::mt19937_64& gen) {
  Bits info(n);
  for (auto& b : info) b = static_cast<std::uint8_t>(gen() & 1u);
  return info;
}

TEST(ViterbiEquivalence, RandomSoftInputsTerminated) {
  std::mt19937_64 gen(0x5eed0001);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 1 + (gen() % 300);
    const SoftBits soft = random_soft(n, gen);
    EXPECT_EQ(viterbi_decode(soft, true), viterbi_decode_reference(soft, true))
        << "trial " << trial << " n=" << n;
  }
}

TEST(ViterbiEquivalence, RandomSoftInputsUnterminated) {
  std::mt19937_64 gen(0x5eed0002);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 1 + (gen() % 300);
    const SoftBits soft = random_soft(n, gen);
    EXPECT_EQ(viterbi_decode(soft, false),
              viterbi_decode_reference(soft, false))
        << "trial " << trial << " n=" << n;
  }
}

TEST(ViterbiEquivalence, PuncturedCodewordsAllRates) {
  std::mt19937_64 gen(0x5eed0003);
  const CodeRate rates[] = {CodeRate::kR12, CodeRate::kR23, CodeRate::kR34};
  for (CodeRate rate : rates) {
    for (int trial = 0; trial < 12; ++trial) {
      // Info length padded so the punctured length is pattern-aligned.
      std::size_t n = 48 + 12 * (gen() % 20);
      Bits info = random_info(n, gen);
      for (int t = 0; t < 6; ++t) info.push_back(0);  // tail
      const Bits coded = puncture(convolutional_encode(info), rate);
      SoftBits soft(coded.size());
      {
        const SoftBits s = codeword_soft(coded, gen);
        soft = s;
      }
      const SoftBits mother = depuncture(soft, rate);
      for (bool terminated : {true, false}) {
        EXPECT_EQ(viterbi_decode(mother, terminated),
                  viterbi_decode_reference(mother, terminated))
            << "rate " << static_cast<int>(rate) << " trial " << trial
            << " terminated=" << terminated;
      }
    }
  }
}

TEST(ViterbiEquivalence, DegenerateShortInputs) {
  std::mt19937_64 gen(0x5eed0004);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                              std::size_t{5}, std::size_t{7}}) {
    for (int trial = 0; trial < 8; ++trial) {
      const SoftBits soft = random_soft(n, gen);
      for (bool terminated : {true, false}) {
        EXPECT_EQ(viterbi_decode(soft, terminated),
                  viterbi_decode_reference(soft, terminated))
            << "n=" << n << " terminated=" << terminated;
      }
    }
  }
}

TEST(ViterbiEquivalence, VectorButterflyMatchesScalarButterfly) {
  // Unquantized inputs: float sums round, metrics renormalize every 64
  // steps, and ties and erasures occur, so any difference in operation
  // order, select or tie-break shows as a different decoded bit. Each
  // class gets lengths from 1 to 2200 steps.
  std::mt19937_64 gen(0x5eed0006);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  std::normal_distribution<double> normal(0.0, 1.0);
  const auto length = [&gen](int trial) -> std::size_t {
    constexpr std::size_t kEdges[] = {1, 2, 63, 64, 65, 127, 128, 129, 2200};
    if (trial < 9) return kEdges[trial];
    return 1 + gen() % 2200;
  };
  const auto codeword = [&gen](std::size_t n) {
    return convolutional_encode(random_info(n, gen));
  };

  constexpr int kTrialsPerClass = 400;
  const char* const kClasses[] = {"uniform", "scaled codeword", "erasures",
                                  "ldexp", "integer ties"};
  int mismatches = 0;
  for (int cls = 0; cls < 5; ++cls) {
    for (int trial = 0; trial < kTrialsPerClass; ++trial) {
      const std::size_t n = length(trial);
      SoftBits soft(2 * n);
      switch (cls) {
        case 0:  // full-mantissa uniform values
          for (double& v : soft) v = 40.0 * unit(gen);
          break;
        case 1: {  // codeword plus noise, scaled over 1e-6 .. 1e8
          const Bits c = codeword(n);
          const double scale =
              std::pow(10.0, -6.0 + 14.0 * (0.5 + 0.5 * unit(gen)));
          for (std::size_t i = 0; i < soft.size(); ++i)
            soft[i] = scale * ((c[i] ? -1.0 : 1.0) + 0.8 * normal(gen));
          break;
        }
        case 2: {  // punctured noisy codeword, depunctured: exact-zero erasures
          const std::size_t n6 = n < 6 ? 6 : n - n % 6;  // pattern-aligned
          const CodeRate rate = trial % 2 ? CodeRate::kR34 : CodeRate::kR23;
          const Bits c = puncture(codeword(n6), rate);
          SoftBits kept(c.size());
          for (std::size_t i = 0; i < c.size(); ++i)
            kept[i] = (c[i] ? -3.0 : 3.0) + 2.5 * normal(gen);
          soft = depuncture(kept, rate);
          break;
        }
        case 3:  // magnitudes over +/-100 binary orders
          for (double& v : soft)
            v = std::ldexp(unit(gen), static_cast<int>(gen() % 201) - 100);
          break;
        default: {  // small integers: exact sums, so exact metric ties
          std::uniform_int_distribution<int> small(-2, 2);
          for (double& v : soft) v = static_cast<double>(small(gen));
          break;
        }
      }
      for (const bool terminated : {true, false}) {
        const Bits got = viterbi_decode(soft, terminated);
        const Bits want = viterbi_decode_scalar_butterfly(soft, terminated);
        EXPECT_EQ(got, want) << kClasses[cls] << " trial " << trial
                             << " steps=" << soft.size() / 2
                             << " terminated=" << terminated;
        if (got != want && ++mismatches >= 3) return;
      }
    }
  }
}

TEST(ViterbiEquivalence, HardDecisionRoundTrip) {
  // End-to-end sanity: clean hard metrics decode back to the info bits.
  std::mt19937_64 gen(0x5eed0005);
  Bits info = random_info(120, gen);
  for (int t = 0; t < 6; ++t) info.push_back(0);
  const Bits coded = convolutional_encode(info);
  EXPECT_EQ(viterbi_decode_hard(coded, true), info);
}

}  // namespace
}  // namespace wlansim::phy
