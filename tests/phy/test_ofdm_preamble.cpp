#include <cmath>

#include <gtest/gtest.h>

#include "dsp/fft.h"
#include "dsp/mathutil.h"
#include "dsp/rng.h"
#include "phy80211a/ofdm.h"
#include "phy80211a/preamble.h"

namespace wlansim::phy {
namespace {

TEST(Ofdm, DataCarrierTableExcludesPilotsAndDc) {
  const auto& dc = data_carrier_indices();
  EXPECT_EQ(dc.size(), 48u);
  for (int k : dc) {
    EXPECT_NE(k, 0);
    EXPECT_NE(k, -21);
    EXPECT_NE(k, -7);
    EXPECT_NE(k, 7);
    EXPECT_NE(k, 21);
    EXPECT_GE(k, -26);
    EXPECT_LE(k, 26);
  }
}

TEST(Ofdm, CarrierToBinWrapsNegative) {
  EXPECT_EQ(carrier_to_bin(0), 0u);
  EXPECT_EQ(carrier_to_bin(1), 1u);
  EXPECT_EQ(carrier_to_bin(26), 26u);
  EXPECT_EQ(carrier_to_bin(-1), 63u);
  EXPECT_EQ(carrier_to_bin(-26), 38u);
  EXPECT_THROW(carrier_to_bin(40), std::invalid_argument);
}

TEST(Ofdm, ModDemodRoundTrip) {
  dsp::Rng rng(1);
  dsp::CVec data(kNumDataCarriers);
  for (auto& v : data) v = rng.cgaussian(1.0);
  dsp::CVec sym(kSymbolLen);
  ofdm_modulate_symbols_into(data.data(), 1, 3, sym.data());
  dsp::CVec dem(kNumDataCarriers), pilots(kNumPilots);
  ofdm_demodulate_symbols_into(sym.data() + kCpLen, kNfft, 1, dem.data(),
                               pilots.data());
  for (std::size_t i = 0; i < kNumDataCarriers; ++i)
    EXPECT_NEAR(std::abs(dem[i] - data[i]), 0.0, 1e-10);
  // Pilots carry the polarity for symbol index 3 (p_3 = 1).
  const double pol = pilot_polarity(3);
  const auto& pv = pilot_base_values();
  for (std::size_t i = 0; i < kNumPilots; ++i)
    EXPECT_NEAR(std::abs(pilots[i] - pol * pv[i]), 0.0, 1e-10);
}

TEST(Ofdm, CyclicPrefixIsTailCopy) {
  dsp::Rng rng(2);
  dsp::CVec data(kNumDataCarriers);
  for (auto& v : data) v = rng.cgaussian(1.0);
  dsp::CVec sym(kSymbolLen);
  ofdm_modulate_symbols_into(data.data(), 1, 0, sym.data());
  for (std::size_t i = 0; i < kCpLen; ++i) {
    EXPECT_NEAR(std::abs(sym[i] - sym[kNfft + i]), 0.0, 1e-12);
  }
}

TEST(Ofdm, PilotPolaritySequenceIs127Periodic) {
  for (std::size_t i = 0; i < 300; ++i) {
    EXPECT_EQ(pilot_polarity(i), pilot_polarity(i + 127));
    EXPECT_TRUE(pilot_polarity(i) == 1.0 || pilot_polarity(i) == -1.0);
  }
  // Std values: the sequence begins 1,1,1,1,-1,-1,-1,1.
  EXPECT_EQ(pilot_polarity(0), 1.0);
  EXPECT_EQ(pilot_polarity(4), -1.0);
  EXPECT_EQ(pilot_polarity(7), 1.0);
  // and ends with three -1.
  EXPECT_EQ(pilot_polarity(126), -1.0);
  EXPECT_EQ(pilot_polarity(125), -1.0);
}

TEST(Preamble, ShortPreambleIs16Periodic) {
  const dsp::CVec& s = short_preamble();
  ASSERT_EQ(s.size(), kShortPreambleLen);
  for (std::size_t i = 0; i + 16 < s.size(); ++i)
    EXPECT_NEAR(std::abs(s[i] - s[i + 16]), 0.0, 1e-12) << i;
}

TEST(Preamble, LongPreambleStructure) {
  const dsp::CVec& l = long_preamble();
  const dsp::CVec& sym = long_training_symbol();
  ASSERT_EQ(l.size(), kLongPreambleLen);
  // Guard is the tail of the training symbol.
  for (std::size_t i = 0; i < 32; ++i)
    EXPECT_NEAR(std::abs(l[i] - sym[32 + i]), 0.0, 1e-12);
  // Two identical copies follow.
  for (std::size_t i = 0; i < kNfft; ++i) {
    EXPECT_NEAR(std::abs(l[32 + i] - sym[i]), 0.0, 1e-12);
    EXPECT_NEAR(std::abs(l[96 + i] - sym[i]), 0.0, 1e-12);
  }
}

TEST(Preamble, LongTrainingSpectrumIsPlusMinusOne) {
  const dsp::CVec& sym = long_training_symbol();
  const dsp::CVec fd = dsp::fft(sym);
  const dsp::CVec& l = long_training_freq();
  for (int k = -26; k <= 26; ++k) {
    EXPECT_NEAR(std::abs(fd[carrier_to_bin(k)] - l[k + 26]), 0.0, 1e-10) << k;
  }
  // Unused bins are empty.
  for (int k = 27; k <= 37; ++k) {
    EXPECT_NEAR(std::abs(fd[static_cast<std::size_t>(k)]), 0.0, 1e-10);
  }
}

TEST(Preamble, ShortTrainingUsesEveryFourthCarrier) {
  const dsp::CVec& s = short_training_freq();
  int nonzero = 0;
  for (int k = -26; k <= 26; ++k) {
    const double mag = std::abs(s[k + 26]);
    if (mag > 1e-12) {
      EXPECT_EQ(k % 4, 0) << k;
      EXPECT_NEAR(mag, std::sqrt(13.0 / 6.0) * std::sqrt(2.0), 1e-9);
      ++nonzero;
    }
  }
  EXPECT_EQ(nonzero, 12);
}

TEST(Preamble, FullPreambleLength) {
  EXPECT_EQ(full_preamble().size(), kPreambleLen);
}

}  // namespace
}  // namespace wlansim::phy
