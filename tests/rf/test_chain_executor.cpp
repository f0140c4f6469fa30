// The fused ChainExecutor's bit-exactness contract: every RfBlock's
// process_tile carries its state across calls such that K tiles of any
// sizes produce exactly the samples one whole-buffer call would, and the
// fused chain therefore exactly reproduces the block-at-a-time reference
// for every tile size (including non-divisors of the buffer length).
#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "dsp/rng.h"
#include "rf/adc.h"
#include "rf/agc.h"
#include "rf/amplifier.h"
#include "rf/chain_executor.h"
#include "rf/filters.h"
#include "rf/mixer.h"
#include "rf/noise.h"
#include "rf/receiver_chain.h"
#include "rf/rfblock.h"

namespace wlansim::rf {
namespace {

dsp::CVec test_signal(std::size_t n, double amp, unsigned seed) {
  dsp::Rng rng(seed);
  dsp::CVec x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double ang = 0.013 * static_cast<double>(i);
    x[i] = amp * dsp::Cplx{std::cos(ang), std::sin(ang)} +
           0.3 * amp * rng.cgaussian(1.0);
  }
  return x;
}

void expect_exact_eq(const dsp::CVec& a, const dsp::CVec& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].real(), b[i].real()) << "sample " << i;
    ASSERT_EQ(a[i].imag(), b[i].imag()) << "sample " << i;
  }
}

/// Feed `in` through `whole` in one process_tile call and through `tiled`
/// (an identically-constructed instance) in an uneven tile schedule mixing
/// tiny, prime-sized, and large tiles; the outputs must match bit for bit.
void expect_tile_continuity(RfBlock& whole, RfBlock& tiled,
                            const dsp::CVec& in) {
  dsp::CVec a(in.size()), b(in.size());
  whole.process_tile(in, a);
  static constexpr std::size_t kSchedule[] = {1, 7, 128, 333, 1024};
  std::size_t o = 0, t = 0;
  while (o < in.size()) {
    const std::size_t m = std::min(kSchedule[t++ % 5], in.size() - o);
    tiled.process_tile(std::span<const dsp::Cplx>(in.data() + o, m),
                       std::span<dsp::Cplx>(b.data() + o, m));
    o += m;
  }
  expect_exact_eq(a, b);
}

TEST(TileContinuity, AmplifierRappWithNoise) {
  AmplifierConfig cfg;
  cfg.noise_figure_db = 5.0;  // exercises the rng stream across tile splits
  Amplifier whole(cfg, 80e6, dsp::Rng(11));
  Amplifier tiled(cfg, 80e6, dsp::Rng(11));
  expect_tile_continuity(whole, tiled, test_signal(3000, 3e-3, 1));
}

TEST(TileContinuity, AmplifierAmPm) {
  AmplifierConfig cfg;
  cfg.am_pm_max_deg = 10.0;  // legacy am_am/am_pm per-sample path
  cfg.noise_figure_db = 3.0;
  Amplifier whole(cfg, 80e6, dsp::Rng(12));
  Amplifier tiled(cfg, 80e6, dsp::Rng(12));
  expect_tile_continuity(whole, tiled, test_signal(3000, 3e-3, 2));
}

TEST(TileContinuity, MixerConstLo) {
  MixerConfig cfg;
  cfg.conversion_gain_db = 8.0;
  cfg.image_rejection_db = 40.0;
  cfg.iq_gain_imbalance_db = 0.3;
  cfg.iq_phase_error_deg = 2.0;
  cfg.dc_offset = dsp::Cplx{3e-5, 2e-5};
  Mixer whole(cfg, 80e6, dsp::Rng(13));
  Mixer tiled(cfg, 80e6, dsp::Rng(13));
  expect_tile_continuity(whole, tiled, test_signal(3000, 1e-3, 3));
}

TEST(TileContinuity, MixerOffsetAndPhaseNoise) {
  MixerConfig cfg;
  cfg.lo_offset_hz = 187e3;  // rotating-LO path: phase carried across tiles
  cfg.phase_noise.level_dbc_hz = -95.0;
  Mixer whole(cfg, 80e6, dsp::Rng(14));
  Mixer tiled(cfg, 80e6, dsp::Rng(14));
  expect_tile_continuity(whole, tiled, test_signal(3000, 1e-3, 4));
}

TEST(TileContinuity, Filters) {
  {
    ChebyshevLowpass whole(7, 1.0, 8.6e6, 80e6, "lpf");
    ChebyshevLowpass tiled(7, 1.0, 8.6e6, 80e6, "lpf");
    expect_tile_continuity(whole, tiled, test_signal(3000, 1e-2, 5));
  }
  {
    DcBlockHighpass whole(2, 120e3, 80e6, "hpf");
    DcBlockHighpass tiled(2, 120e3, 80e6, "hpf");
    expect_tile_continuity(whole, tiled, test_signal(3000, 1e-2, 6));
  }
  {
    ButterworthLowpass whole(4, 9e6, 80e6, "bw");
    ButterworthLowpass tiled(4, 9e6, 80e6, "bw");
    expect_tile_continuity(whole, tiled, test_signal(3000, 1e-2, 7));
  }
}

TEST(TileContinuity, Agc) {
  AgcConfig cfg;
  cfg.lock_count = 96;  // exercise the lock state machine across tiles
  Agc whole(cfg);
  Agc tiled(cfg);
  expect_tile_continuity(whole, tiled, test_signal(3000, 1e-2, 8));
}

TEST(TileContinuity, Adc) {
  AdcConfig cfg;
  cfg.full_scale = 0.08;
  Adc whole(cfg);
  Adc tiled(cfg);
  expect_tile_continuity(whole, tiled, test_signal(3000, 0.05, 9));
}

TEST(TileContinuity, NoiseSources) {
  {
    WhiteNoiseSource whole(1e-17, 80e6, dsp::Rng(21));
    WhiteNoiseSource tiled(1e-17, 80e6, dsp::Rng(21));
    expect_tile_continuity(whole, tiled, test_signal(3000, 1e-3, 10));
  }
  {
    FlickerNoiseSource whole(1e-9, 1e3, 200e3, 80e6, dsp::Rng(22));
    FlickerNoiseSource tiled(1e-9, 1e3, 200e3, 80e6, dsp::Rng(22));
    expect_tile_continuity(whole, tiled, test_signal(3000, 1e-3, 11));
  }
  {
    WanderingDcSource whole(1e-4, 50e3, 80e6, dsp::Rng(23));
    WanderingDcSource tiled(1e-4, 50e3, 80e6, dsp::Rng(23));
    expect_tile_continuity(whole, tiled, test_signal(3000, 1e-3, 12));
  }
  {
    DcOffsetSource whole(dsp::Cplx{3e-4, 2e-4});
    DcOffsetSource tiled(dsp::Cplx{3e-4, 2e-4});
    expect_tile_continuity(whole, tiled, test_signal(3000, 1e-3, 13));
  }
}

TEST(ChainExecutor, FusedMatchesBlockwiseAcrossTileSizes) {
  const dsp::CVec in = test_signal(4096 + 321, 1e-4, 31);  // non-power-of-2
  DoubleConversionConfig cfg;
  dsp::CVec ref;
  {
    DoubleConversionReceiver rx(cfg, dsp::Rng(42));
    rx.process_blockwise_into(in, ref);
  }
  // Tile sizes spanning degenerate (1), non-divisors of the length, the
  // auto default, and larger-than-the-buffer.
  for (std::size_t tile : {std::size_t{1}, std::size_t{3}, std::size_t{100},
                           std::size_t{333}, std::size_t{1024},
                           std::size_t{4096}, in.size() + 1000}) {
    DoubleConversionReceiver rx(cfg, dsp::Rng(42));
    rx.set_tile_size(tile);
    dsp::CVec out;
    rx.process_into(in, out);
    ASSERT_EQ(out.size(), ref.size()) << "tile " << tile;
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i].real(), ref[i].real())
          << "tile " << tile << " sample " << i;
      ASSERT_EQ(out[i].imag(), ref[i].imag())
          << "tile " << tile << " sample " << i;
    }
  }
}

TEST(ChainExecutor, InPlaceOutputAliasesInput) {
  const dsp::CVec in = test_signal(2048, 1e-4, 32);
  DoubleConversionConfig cfg;
  dsp::CVec ref;
  DoubleConversionReceiver rx_ref(cfg, dsp::Rng(7));
  rx_ref.process_into(in, ref);

  DoubleConversionReceiver rx(cfg, dsp::Rng(7));
  dsp::CVec buf = in;  // process in place: out aliases in
  rx.process_tile(buf, buf);
  expect_exact_eq(buf, ref);
}

TEST(ChainExecutor, EmptyChainCopies) {
  RfChain chain;
  const dsp::CVec in = test_signal(100, 1.0, 33);
  dsp::CVec out;
  chain.process_into(in, out);
  expect_exact_eq(out, in);
}

TEST(ChainExecutor, AutoTileFitsL1) {
  // The auto tile (two ping-pong buffers of complex doubles) must stay
  // within a conservative L1 data-cache budget.
  const std::size_t t = ChainExecutor::auto_tile_size();
  EXPECT_GE(t, 256u);
  EXPECT_LE(2 * t * sizeof(dsp::Cplx), 48u * 1024u);
}

}  // namespace
}  // namespace wlansim::rf
