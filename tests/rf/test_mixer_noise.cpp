#include <array>
#include <bit>
#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

#include "dsp/mathutil.h"
#include "dsp/spectrum.h"
#include "rf/analyses.h"
#include "rf/mixer.h"
#include "rf/noise.h"

namespace wlansim::rf {
namespace {

TEST(Mixer, ConversionGainApplied) {
  MixerConfig cfg;
  cfg.conversion_gain_db = 8.0;
  Mixer mix(cfg, 80e6, dsp::Rng(1));
  dsp::CVec in(1000, dsp::Cplx{1e-3, 0.0});
  const dsp::CVec out = mix.process(in);
  EXPECT_NEAR(dsp::to_db(dsp::mean_power(out) / dsp::mean_power(in)), 8.0,
              1e-9);
}

TEST(Mixer, LoOffsetShiftsFrequency) {
  MixerConfig cfg;
  cfg.lo_offset_hz = 2e6;
  Mixer mix(cfg, 80e6, dsp::Rng(1));
  dsp::CVec in(1 << 14, dsp::Cplx{1.0, 0.0});  // DC input
  const dsp::CVec out = mix.process(in);
  const dsp::PsdEstimate psd = dsp::welch_psd(out, {.nfft = 4096});
  double peak_f = 0.0, peak_p = 0.0;
  for (std::size_t i = 0; i < psd.size(); ++i) {
    if (psd.power[i] > peak_p) {
      peak_p = psd.power[i];
      peak_f = psd.freq_norm[i];
    }
  }
  EXPECT_NEAR(peak_f * 80e6, 2e6, 4e4);
}

TEST(Mixer, DcOffsetAdded) {
  MixerConfig cfg;
  cfg.dc_offset = {1e-3, -2e-3};
  Mixer mix(cfg, 80e6, dsp::Rng(1));
  dsp::CVec zeros(100, dsp::Cplx{0.0, 0.0});
  const dsp::CVec out = mix.process(zeros);
  for (const auto& v : out) {
    EXPECT_NEAR(v.real(), 1e-3, 1e-12);
    EXPECT_NEAR(v.imag(), -2e-3, 1e-12);
  }
}

TEST(Mixer, ImageRejectionProducesConjugateTone) {
  MixerConfig cfg;
  cfg.image_rejection_db = 30.0;
  Mixer mix(cfg, 80e6, dsp::Rng(1));
  // Tone at +5 MHz; the image appears at -5 MHz, 30 dB down.
  const double fn = 5e6 / 80e6;
  dsp::CVec in(1 << 14);
  for (std::size_t i = 0; i < in.size(); ++i) {
    const double ang = dsp::kTwoPi * fn * static_cast<double>(i);
    in[i] = dsp::Cplx{std::cos(ang), std::sin(ang)};
  }
  const dsp::CVec out = mix.process(in);
  const double p_main = tone_power(out, fn);
  const double p_image = tone_power(out, -fn);
  EXPECT_NEAR(dsp::to_db(p_main / p_image), 30.0, 0.5);
}

TEST(Mixer, PerfectImageRejectionByDefault) {
  MixerConfig cfg;
  Mixer mix(cfg, 80e6, dsp::Rng(1));
  const double fn = 256.0 / 4096.0;  // integer-bin: leakage-free projection
  dsp::CVec in(1 << 12);
  for (std::size_t i = 0; i < in.size(); ++i) {
    const double ang = dsp::kTwoPi * fn * static_cast<double>(i);
    in[i] = dsp::Cplx{std::cos(ang), std::sin(ang)};
  }
  const dsp::CVec out = mix.process(in);
  EXPECT_LT(tone_power(out, -fn), 1e-20);
}

TEST(Mixer, PhaseNoiseWidensSpectrumAndIsGatedByNoiseSwitch) {
  MixerConfig cfg;
  cfg.phase_noise.level_dbc_hz = -80.0;  // strong, at 100 kHz offset
  cfg.phase_noise.offset_hz = 100e3;
  Mixer noisy(cfg, 80e6, dsp::Rng(3));
  cfg.noise_enabled = false;
  Mixer clean(cfg, 80e6, dsp::Rng(3));

  dsp::CVec in(1 << 15, dsp::Cplx{1.0, 0.0});
  const dsp::CVec yn = noisy.process(in);
  const dsp::CVec yc = clean.process(in);
  // Carrier power lost to the skirt vs. an untouched carrier.
  const double pn = tone_power(yn, 0.0);
  const double pc = tone_power(yc, 0.0);
  EXPECT_NEAR(pc, 1.0, 1e-9);
  EXPECT_LT(pn, 0.9);
}

TEST(Mixer, PhaseNoiseLinewidthFormula) {
  PhaseNoiseSpec spec;
  spec.level_dbc_hz = -100.0;
  spec.offset_hz = 100e3;
  // df = pi f^2 10^(L/10) = pi * 1e10 * 1e-10 = pi.
  EXPECT_NEAR(spec.linewidth_hz(), dsp::kPi, 1e-9);
  PhaseNoiseSpec off;
  EXPECT_FALSE(off.enabled());
  EXPECT_DOUBLE_EQ(off.linewidth_hz(), 0.0);
}

TEST(Mixer, IqImbalanceCreatesImage) {
  MixerConfig cfg;
  cfg.iq_gain_imbalance_db = 1.0;
  cfg.iq_phase_error_deg = 3.0;
  Mixer mix(cfg, 80e6, dsp::Rng(1));
  const double fn = 410.0 / 8192.0;  // integer-bin tone
  dsp::CVec in(1 << 13);
  for (std::size_t i = 0; i < in.size(); ++i) {
    const double ang = dsp::kTwoPi * fn * static_cast<double>(i);
    in[i] = dsp::Cplx{std::cos(ang), std::sin(ang)};
  }
  const dsp::CVec out = mix.process(in);
  const double irr_db =
      dsp::to_db(tone_power(out, fn) / tone_power(out, -fn));
  // ~1 dB / 3 deg imbalance gives an IRR around 24-27 dB.
  EXPECT_GT(irr_db, 20.0);
  EXPECT_LT(irr_db, 32.0);
}

TEST(FlickerNoise, TotalPowerCalibrated) {
  const double p = 1e-9;
  FlickerNoiseSource src(p, 1e3, 200e3, 80e6, dsp::Rng(6));
  dsp::CVec zeros(1 << 17, dsp::Cplx{0.0, 0.0});
  const dsp::CVec y = src.process(zeros);
  EXPECT_NEAR(dsp::mean_power(std::span<const dsp::Cplx>(y).subspan(1 << 15)) / p,
              1.0, 0.35);
}

TEST(FlickerNoise, SpectrumSlopesDownward) {
  FlickerNoiseSource src(1e-6, 1e3, 1e6, 80e6, dsp::Rng(7));
  dsp::CVec zeros(1 << 17, dsp::Cplx{0.0, 0.0});
  const dsp::CVec y = src.process(zeros);
  const dsp::PsdEstimate psd = dsp::welch_psd(y, {.nfft = 8192});
  // Compare the average PSD near 20 kHz vs near 800 kHz: expect the low
  // band to be much stronger (roughly 1/f over the shaped range).
  const double lo = psd.band_power(20e3 / 80e6, 10e3 / 80e6);
  const double hi = psd.band_power(800e3 / 80e6, 10e3 / 80e6);
  EXPECT_GT(dsp::to_db(lo / hi), 8.0);
}

TEST(FlickerNoise, CalibrationMemoKeepsOutputBits) {
  // The drive level is calibrated once per (corners, rate) in the process
  // and reused by every later source of that shape. The first construction
  // (a miss) and a second one (a hit) must both emit the samples the
  // per-construction calibration produced: 64 outputs as (re, im) bit
  // patterns.
  static constexpr std::array<std::uint64_t, 128> kExpected{
      0xbe1307eab7b3b5efull, 0x3e49146eee872d4full, 0xbe35383a7f29462bull,
      0x3e661ae883bd7171ull, 0xbe3e6dec1d9ee537ull, 0x3e754e8f1026eb3aull,
      0xbe5029357cbc324dull, 0x3e83118bd2b349bdull, 0xbe68443b8f0b2345ull,
      0x3e902089967cca32ull, 0xbe793571e54f1f2aull, 0x3e974af4dece03c9ull,
      0xbe85a4ed9ae7b865ull, 0x3e9def3fb6af052eull, 0xbe902a79eb1af433ull,
      0x3ea209201a4062a1ull, 0xbe96a0c7f83c5699ull, 0x3ea54a31cb75696cull,
      0xbe9e90cf3111ae53ull, 0x3ea87ec253202375ull, 0xbea2eed843957dcfull,
      0x3eaa393e57f2c513ull, 0xbea65725086826b0ull, 0x3eab2901343873d5ull,
      0xbea9c54e04796249ull, 0x3eac72cae26be756ull, 0xbeacb030353921b7ull,
      0x3ead92442d194089ull, 0xbeaeec735d7eca91ull, 0x3eaf4746e4fd895eull,
      0xbeb06ba43e408ba7ull, 0x3eb15a5d2d9106c3ull, 0xbeb1b37085f457feull,
      0x3eb3b491622e11caull, 0xbeb352c3ceb0c61bull, 0x3eb632f400e88808ull,
      0xbeb4e545449eaa13ull, 0x3eb84aaaf7ba40d0ull, 0xbeb674adf37495f0ull,
      0x3eb99e73967f443bull, 0xbeb85bef14fc0b6dull, 0x3eba0094611c591dull,
      0xbebaa808fc1a7973ull, 0x3eb954e4b4c26cd2ull, 0xbebce3855dfbb896ull,
      0x3eb80b1de343481full, 0xbebece6f69254a9eull, 0x3eb6d68418192e34ull,
      0xbec043d711c10980ull, 0x3eb5e04c7d5343ecull, 0xbec12ebd806aa1ceull,
      0x3eb4bcf37cc81886ull, 0xbec237df8ccad370ull, 0x3eb32973c0d70e4cull,
      0xbec31224db6984f4ull, 0x3eb1b487d46dfefbull, 0xbec3d1349692211eull,
      0x3eb0a93510d7d6e0ull, 0xbec4e8e2995c5693ull, 0x3eaf1481278bb940ull,
      0xbec64b05c35f6541ull, 0x3eac7e5b03e0c7abull, 0xbec7a8091fa0b73cull,
      0x3ea8d569991f8d39ull, 0xbec8d54f91cd5c7aull, 0x3ea360792e01f4edull,
      0xbec9e3437f94f7c6ull, 0x3e9aba783c0c9ac7ull, 0xbecaf13b7251272bull,
      0x3e8c18856bee77a8ull, 0xbecbf54f9730c89full, 0xbe5afe2e723a60f7ull,
      0xbeccddd4c2937d7cull, 0xbe95629bc40482b8ull, 0xbecd9828ec999029ull,
      0xbea555bd27761c76ull, 0xbece041d8cb85b19ull, 0xbeaed52e51c83ad3ull,
      0xbece324f44d3ddfaull, 0xbeb39e3bc0898223ull, 0xbece91372df445d5ull,
      0xbeb7c48e66564518ull, 0xbecf429b5b19ab14ull, 0xbebbc314a1f13a86ull,
      0xbecfef136adea0a8ull, 0xbebf3a45fab00509ull, 0xbed02a1cd87e34e1ull,
      0xbec12f5ecfb6a463ull, 0xbed0402bc05770c8ull, 0xbec315bed9f546e2ull,
      0xbed04d0f6b6cca49ull, 0xbec57a653001fc6dull, 0xbed05b3092ecb98cull,
      0xbec7f0daab080e46ull, 0xbed06e19c352202eull, 0xbeca0918a2fb1911ull,
      0xbed0772f9d5e0833ull, 0xbecba3d848486bb9ull, 0xbed06a28f8b0f9edull,
      0xbeccd51b138ab037ull, 0xbed0516c905fcbf4ull, 0xbecdd9295d61239full,
      0xbed03b56b87a216bull, 0xbecece772f892e41ull, 0xbed02f2d1b5e2270ull,
      0xbecfc70e8bfb56aaull, 0xbed045de0d86e103ull, 0xbed0670aab9a97abull,
      0xbed086525625877full, 0xbed0dacb4e9fb6d4ull, 0xbed0d10ae9ca3d7bull,
      0xbed140b41ae78b3bull, 0xbed1130a416b1556ull, 0xbed19e70a60bedb2ull,
      0xbed144daba500311ull, 0xbed1e71296a19707ull, 0xbed179c3e925131aull,
      0xbed21c9d2f59c313ull, 0xbed1d93a751ab92eull, 0xbed24da49970ff5dull,
      0xbed24ee79a887e30ull, 0xbed2703099acf073ull, 0xbed29e5533e36cd6ull,
      0xbed2700e86f4a2a6ull, 0xbed2bece424deb53ull, 0xbed262e7f8706bcbull,
      0xbed2cd26759a85f9ull, 0xbed24a0f7b1c684bull};
  for (int construction = 0; construction < 2; ++construction) {
    SCOPED_TRACE(::testing::Message() << "construction " << construction);
    FlickerNoiseSource src(1e-9, 1e3, 200e3, 80e6, dsp::Rng(22));
    const dsp::CVec y = src.process(dsp::CVec(64, dsp::Cplx{0.0, 0.0}));
    ASSERT_EQ(y.size(), 64u);
    for (std::size_t i = 0; i < y.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(y[i].real()), kExpected[2 * i])
          << "sample " << i;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(y[i].imag()),
                kExpected[2 * i + 1])
          << "sample " << i;
    }
  }
}

}  // namespace
}  // namespace wlansim::rf
