#include <bit>
#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

#include "channel/awgn.h"
#include "channel/fading.h"
#include "channel/interferer.h"
#include "dsp/mathutil.h"
#include "dsp/resample.h"
#include "dsp/spectrum.h"
#include "fading_reference.h"
#include "phy80211a/bits.h"
#include "phy80211a/params.h"
#include "phy80211a/transmitter.h"

namespace wlansim::channel {
namespace {

TEST(Awgn, NoisePowerMatchesRequest) {
  dsp::Rng rng(1);
  dsp::CVec zeros(100000, dsp::Cplx{0.0, 0.0});
  const dsp::CVec noisy = add_awgn(zeros, 2.5, rng);
  EXPECT_NEAR(dsp::mean_power(noisy), 2.5, 0.05);
}

TEST(Awgn, ZeroPowerIsTransparent) {
  dsp::Rng rng(1);
  dsp::CVec in = {dsp::Cplx{1.0, -2.0}};
  EXPECT_EQ(add_awgn(in, 0.0, rng)[0], in[0]);
  EXPECT_THROW(add_awgn(in, -1.0, rng), std::invalid_argument);
}

TEST(Awgn, SnrVariantSizesNoiseAgainstReference) {
  dsp::Rng rng(2);
  dsp::CVec sig(50000, dsp::Cplx{1.0, 0.0});  // 1 W reference
  const dsp::CVec noisy = add_awgn_snr(sig, sig, 10.0, rng);
  // Noise power should be 0.1 W.
  double err = 0.0;
  for (std::size_t i = 0; i < sig.size(); ++i) err += std::norm(noisy[i] - sig[i]);
  EXPECT_NEAR(err / sig.size(), 0.1, 0.01);
}

TEST(Awgn, ThermalNoisePower) {
  // kT0 * 20 MHz = 8.01e-14 W ~ -101.0 dBm.
  const double p = thermal_noise_power(20e6);
  EXPECT_NEAR(dsp::watts_to_dbm(p), -100.97, 0.05);
  EXPECT_NEAR(dsp::watts_to_dbm(thermal_noise_power(20e6, 3.0)), -97.97, 0.05);
}

TEST(Fading, UnitAveragePowerOverRealizations) {
  FadingConfig cfg;
  cfg.rms_delay_spread_s = 50e-9;
  cfg.sample_rate_hz = 20e6;
  dsp::Rng rng(3);
  double acc = 0.0;
  const int n = 3000;
  for (int i = 0; i < n; ++i) {
    const MultipathChannel ch(cfg, rng);
    for (const auto& t : ch.taps()) acc += std::norm(t);
  }
  EXPECT_NEAR(acc / n, 1.0, 0.05);
}

TEST(Fading, FlatWhenDelaySpreadTiny) {
  FadingConfig cfg;
  cfg.rms_delay_spread_s = 0.0;
  dsp::Rng rng(4);
  const MultipathChannel ch(cfg, rng);
  EXPECT_EQ(ch.taps().size(), 1u);
}

TEST(Fading, TapCountGrowsWithDelaySpread) {
  dsp::Rng rng(5);
  FadingConfig a;
  a.rms_delay_spread_s = 25e-9;
  FadingConfig b;
  b.rms_delay_spread_s = 200e-9;
  const MultipathChannel ca(a, rng);
  const MultipathChannel cb(b, rng);
  EXPECT_GT(cb.taps().size(), ca.taps().size());
}

TEST(Fading, ApplyConvolvesExplicitTaps) {
  const MultipathChannel ch(dsp::CVec{{1.0, 0.0}, {0.5, 0.0}});
  dsp::CVec in = {dsp::Cplx{1.0, 0.0}, dsp::Cplx{0.0, 0.0}, dsp::Cplx{0.0, 0.0}};
  const dsp::CVec out = ch.apply(in);
  EXPECT_NEAR(out[0].real(), 1.0, 1e-15);
  EXPECT_NEAR(out[1].real(), 0.5, 1e-15);
  EXPECT_NEAR(out[2].real(), 0.0, 1e-15);
}

TEST(Fading, ApplyMatchesReferenceBitExactly) {
  dsp::Rng rng(31);
  // Drawn realization and a hand-picked complex tap set, over signals long
  // enough to exercise both the warm-up region (i < ntaps) and steady state.
  FadingConfig cfg;
  cfg.rms_delay_spread_s = 100e-9;
  const MultipathChannel drawn(cfg, rng);
  const MultipathChannel fixed(dsp::CVec{{0.7, -0.1}, {0.0, 0.0}, {-0.3, 0.4}});
  for (const MultipathChannel* ch : {&drawn, &fixed}) {
    dsp::CVec in(257);
    for (auto& v : in) v = rng.cgaussian(1.0);
    const dsp::CVec fast = ch->apply(in);
    const dsp::CVec ref = multipath_reference(ch->taps(), in);
    dsp::CVec into(in.size());
    ch->apply_into(in, into);
    ASSERT_EQ(fast.size(), ref.size());
    for (std::size_t i = 0; i < in.size(); ++i) {
      EXPECT_EQ(fast[i].real(), ref[i].real()) << i;
      EXPECT_EQ(fast[i].imag(), ref[i].imag()) << i;
      EXPECT_EQ(into[i].real(), ref[i].real()) << i;
      EXPECT_EQ(into[i].imag(), ref[i].imag()) << i;
    }
  }
}

TEST(Fading, ResponseMatchesTaps) {
  const MultipathChannel ch(dsp::CVec{{1.0, 0.0}, {-1.0, 0.0}});
  // H(f) = 1 - e^{-j2pif}: zero at f=0, max at f=0.5.
  EXPECT_NEAR(std::abs(ch.response(0.0)), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(ch.response(0.5)), 2.0, 1e-12);
}

TEST(Interferer, PowerLevelRelativeToWanted) {
  dsp::Rng rng(6);
  InterfererConfig cfg;
  cfg.offset_hz = 20e6;
  cfg.level_db = 16.0;
  const double wanted_w = dsp::dbm_to_watts(-65.0);
  const dsp::CVec jam = make_interferer(40000, 80e6, wanted_w, cfg, rng);
  ASSERT_EQ(jam.size(), 40000u);
  EXPECT_NEAR(dsp::to_db(dsp::mean_power(jam) / wanted_w), 16.0, 0.2);
}

TEST(Interferer, SpectrumCenteredAtOffset) {
  dsp::Rng rng(7);
  InterfererConfig cfg;
  cfg.offset_hz = 20e6;
  cfg.level_db = 0.0;
  const dsp::CVec jam = make_interferer(1 << 16, 80e6, 1e-6, cfg, rng);
  const dsp::PsdEstimate psd = dsp::welch_psd(jam, {.nfft = 1024});
  const double in_band = psd.band_power(20e6 / 80e6, 16.6e6 / 80e6);
  const double wrong_band = psd.band_power(0.0, 16.6e6 / 80e6);
  EXPECT_GT(dsp::to_db(in_band / wrong_band), 25.0);
}

TEST(Interferer, NegativeOffsetSupported) {
  dsp::Rng rng(8);
  InterfererConfig cfg;
  cfg.offset_hz = -20e6;
  const dsp::CVec jam = make_interferer(1 << 15, 80e6, 1e-6, cfg, rng);
  const dsp::PsdEstimate psd = dsp::welch_psd(jam, {.nfft = 1024});
  EXPECT_GT(psd.band_power(-0.25, 0.2), 10.0 * psd.band_power(0.25, 0.2));
}

// make_interferer written the long way: interpolate every tiled frame in
// full, then cut, shift and scale copies.
dsp::CVec make_interferer_reference(std::size_t length, double sample_rate_hz,
                                    double wanted_power_watts,
                                    const InterfererConfig& cfg,
                                    dsp::Rng& rng) {
  const auto factor =
      static_cast<std::size_t>(std::lround(sample_rate_hz / phy::kSampleRate));
  phy::Transmitter tx({.scrambler_seed = 0x13, .output_power_dbm = 0.0});
  dsp::CVec base;
  while (base.size() * factor < length) {
    const phy::Bytes payload = phy::random_bytes(cfg.psdu_bytes, rng);
    const dsp::CVec frame = tx.modulate({cfg.rate, payload});
    base.insert(base.end(), frame.begin(), frame.end());
    base.insert(base.end(), 40, dsp::Cplx{0.0, 0.0});
  }
  dsp::CVec over = factor > 1 ? dsp::upsample(base, factor) : std::move(base);
  over.resize(length);
  dsp::CVec shifted = dsp::frequency_shift(over, cfg.offset_hz / sample_rate_hz,
                                           rng.uniform(0.0, dsp::kTwoPi));
  dsp::set_mean_power(shifted,
                      wanted_power_watts * dsp::from_db(cfg.level_db));
  return shifted;
}

void expect_same_bits(const dsp::CVec& got, const dsp::CVec& want) {
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

TEST(Interferer, BitIdenticalToFullFrameReference) {
  struct Scene {
    double fs;
    double offset_hz;
  };
  const Scene scenes[] = {{80e6, 20e6},   {80e6, -20e6}, {160e6, 20e6},
                          {160e6, -20e6}, {160e6, 40e6}};
  const double wanted_w = dsp::dbm_to_watts(-65.0);
  std::uint64_t seed = 100;
  for (const Scene& sc : scenes) {
    for (const std::size_t psdu : {60u, 400u}) {
      for (const std::size_t length :
           {1u, 59u, 1000u, 10240u, 10241u, 40000u}) {
        SCOPED_TRACE(::testing::Message()
                     << "fs " << sc.fs << " offset " << sc.offset_hz
                     << " psdu " << psdu << " length " << length);
        InterfererConfig cfg;
        cfg.offset_hz = sc.offset_hz;
        cfg.psdu_bytes = psdu;
        ++seed;
        dsp::Rng ref_rng(seed), rng(seed), into_rng(seed);
        const dsp::CVec want =
            make_interferer_reference(length, sc.fs, wanted_w, cfg, ref_rng);
        expect_same_bits(make_interferer(length, sc.fs, wanted_w, cfg, rng),
                         want);
        // A dirty, oversized buffer comes back as the same samples.
        dsp::CVec out(length + 777, dsp::Cplx{-3.0, 5.0});
        make_interferer_into(out, length, sc.fs, wanted_w, cfg, into_rng);
        expect_same_bits(out, want);
        // The caller's stream is left where the reference leaves it.
        const double next = ref_rng.uniform();
        EXPECT_EQ(rng.uniform(), next);
        EXPECT_EQ(into_rng.uniform(), next);
      }
    }
  }
}

TEST(Interferer, RejectsSamplingTheoremViolation) {
  dsp::Rng rng(9);
  InterfererConfig cfg;
  cfg.offset_hz = 40e6;  // needs fs >= 100 MHz
  EXPECT_THROW(make_interferer(1000, 80e6, 1e-6, cfg, rng),
               std::invalid_argument);
  cfg.offset_hz = 20e6;
  EXPECT_THROW(make_interferer(1000, 30e6, 1e-6, cfg, rng),
               std::invalid_argument);  // non-integer oversampling
}

}  // namespace
}  // namespace wlansim::channel
// NOTE: environment preset tests appended below the primary suite.
namespace wlansim::channel {
namespace {

TEST(Environment, PresetsScaleDelaySpread) {
  const FadingConfig flat = environment_config(Environment::kFlat);
  const FadingConfig office = environment_config(Environment::kOffice);
  const FadingConfig open = environment_config(Environment::kOpenSpace);
  EXPECT_DOUBLE_EQ(flat.rms_delay_spread_s, 0.0);
  EXPECT_NEAR(office.rms_delay_spread_s, 50e-9, 1e-12);
  EXPECT_GT(open.rms_delay_spread_s, office.rms_delay_spread_s);
  EXPECT_DOUBLE_EQ(office.sample_rate_hz, 20e6);
  const FadingConfig fast = environment_config(Environment::kOffice, 80e6);
  EXPECT_DOUBLE_EQ(fast.sample_rate_hz, 80e6);
}

TEST(Environment, PresetsProduceWorkingChannels) {
  dsp::Rng rng(11);
  for (Environment env : {Environment::kFlat, Environment::kResidential,
                          Environment::kOffice, Environment::kLargeOffice,
                          Environment::kOpenSpace}) {
    const MultipathChannel ch(environment_config(env), rng);
    EXPECT_GE(ch.taps().size(), 1u);
  }
}

}  // namespace
}  // namespace wlansim::channel

namespace wlansim::channel {
namespace {

TEST(DsssInterferer, LevelAndSpectrum) {
  dsp::Rng rng(21);
  const double wanted = dsp::dbm_to_watts(-65.0);
  const dsp::CVec jam =
      make_dsss_interferer(1 << 16, 80e6, wanted, 20e6, 16.0, rng);
  EXPECT_NEAR(dsp::to_db(dsp::mean_power(jam) / wanted), 16.0, 0.3);
  const dsp::PsdEstimate psd = dsp::welch_psd(jam, {.nfft = 1024});
  // Main lobe around +20 MHz; the wanted band must be far below it.
  const double blocker = psd.band_power(20e6 / 80e6, 14e6 / 80e6);
  const double in_band = psd.band_power(0.0, 16e6 / 80e6);
  EXPECT_GT(dsp::to_db(blocker / in_band), 25.0);
}

TEST(DsssInterferer, RejectsAliasedOffsets) {
  dsp::Rng rng(22);
  EXPECT_THROW(make_dsss_interferer(1000, 40e6, 1e-6, 20e6, 0.0, rng),
               std::invalid_argument);
}

TEST(DsssInterferer, WorksAtArbitraryRates) {
  dsp::Rng rng(23);
  for (double fs : {64e6, 80e6, 100e6}) {
    const dsp::CVec jam = make_dsss_interferer(4096, fs, 1e-6, 0.0, 0.0, rng);
    EXPECT_EQ(jam.size(), 4096u);
    EXPECT_NEAR(dsp::mean_power(jam), 1e-6, 2e-7) << fs;
  }
}

}  // namespace
}  // namespace wlansim::channel
