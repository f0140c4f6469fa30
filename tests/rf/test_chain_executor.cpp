// The tiling rule of the lane contract: every block carries its state
// across process_tile_lanes() calls such that consecutive tiles of any
// sizes produce exactly the samples one whole-buffer call would. Each
// block's lane loop, at widths 1, 3 and 8 and fed in an uneven tile
// schedule, must match per lane the scalar reference model
// (tests/reference/rf_reference.h) run over the whole buffer; and the
// fused chain must match the reference cascade run block at a time.
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>

#include <gtest/gtest.h>

#include "dsp/kernels.h"
#include "dsp/rng.h"
#include "rf/adc.h"
#include "rf/agc.h"
#include "rf/amplifier.h"
#include "rf/filters.h"
#include "rf/mixer.h"
#include "rf/noise.h"
#include "rf/receiver_chain.h"
#include "rf/rfblock.h"
#include "rf_reference.h"

namespace wlansim::rf {
namespace {

namespace kn = dsp::kernels;

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

dsp::Rng lane_rng(std::size_t l) { return dsp::Rng(11 + 7 * l); }

using SeedLane = std::function<void(RfBlock&, std::size_t, dsp::Rng)>;
const SeedLane kNoRng = [](RfBlock&, std::size_t, dsp::Rng) {};

template <typename Block>
SeedLane lane_rng_setter() {
  return [](RfBlock& b, std::size_t l, dsp::Rng rng) {
    static_cast<Block&>(b).set_lane_rng(l, rng);
  };
}

/// At widths 1, 3 and 8 (those up to `max_width`), lane l of `block`
/// (seeded with lane_rng(l), fed `in` scaled by 1 + l/4 in an uneven
/// schedule mixing tiny, prime-sized and large tiles) must equal the
/// reference built with lane_rng(l) over the whole buffer, bit for bit.
void expect_tile_continuity(
    const std::function<std::unique_ptr<RfBlock>()>& make,
    const SeedLane& seed,
    const std::function<std::unique_ptr<ref::Block>(dsp::Rng)>& make_ref,
    const dsp::CVec& in, std::size_t max_width = kn::kLaneWidth) {
  static constexpr std::size_t kSchedule[] = {1, 7, 128, 333, 1024};
  const std::size_t n = in.size();
  for (const std::size_t nl : {std::size_t{1}, std::size_t{3},
                               kn::kLaneWidth}) {
    if (nl > max_width) continue;
    SCOPED_TRACE("width " + std::to_string(nl));
    std::vector<dsp::CVec> lanes(nl, in);
    dsp::RVec soa(2 * n * nl);
    for (std::size_t l = 0; l < nl; ++l) {
      for (dsp::Cplx& x : lanes[l]) x *= 1.0 + 0.25 * static_cast<double>(l);
      kn::lanes_pack(lanes[l].data(), n, nl, l, soa.data());
    }
    const auto block = make();
    block->begin_lanes(nl);
    for (std::size_t l = 0; l < nl; ++l) seed(*block, l, lane_rng(l));
    for (std::size_t o = 0, t = 0; o < n;) {
      const std::size_t m = std::min(kSchedule[t++ % 5], n - o);
      block->process_tile_lanes(soa.data() + 2 * nl * o, m, nl);
      o += m;
    }
    for (std::size_t l = 0; l < nl; ++l) {
      dsp::CVec got(n);
      kn::lanes_unpack(soa.data(), n, nl, l, got.data());
      expect_exact_eq(got, make_ref(lane_rng(l))->process(lanes[l]));
    }
  }
}

void expect_amplifier_continuity(const AmplifierConfig& cfg,
                                 const dsp::CVec& in) {
  expect_tile_continuity(
      [&] { return std::make_unique<Amplifier>(cfg, 80e6, dsp::Rng(1)); },
      lane_rng_setter<Amplifier>(),
      [&](dsp::Rng rng) {
        return std::make_unique<ref::Amplifier>(cfg, 80e6, rng);
      },
      in);
}

void expect_mixer_continuity(const MixerConfig& cfg, const dsp::CVec& in) {
  expect_tile_continuity(
      [&] { return std::make_unique<Mixer>(cfg, 80e6, dsp::Rng(1)); },
      lane_rng_setter<Mixer>(),
      [&](dsp::Rng rng) {
        return std::make_unique<ref::Mixer>(cfg, 80e6, rng);
      },
      in);
}

TEST(TileContinuity, AmplifierRappWithNoise) {
  AmplifierConfig cfg;
  cfg.noise_figure_db = 5.0;  // exercises the rng stream across tile splits
  expect_amplifier_continuity(cfg, test_signal(3000, 3e-3, 1));
}

TEST(TileContinuity, AmplifierAmPm) {
  AmplifierConfig cfg;
  cfg.am_pm_max_deg = 10.0;  // the general am_am/am_pm per-sample map
  cfg.noise_figure_db = 3.0;
  expect_amplifier_continuity(cfg, test_signal(3000, 3e-3, 2));
}

TEST(TileContinuity, MixerConstLo) {
  MixerConfig cfg;
  cfg.conversion_gain_db = 8.0;
  cfg.image_rejection_db = 40.0;
  cfg.iq_gain_imbalance_db = 0.3;
  cfg.iq_phase_error_deg = 2.0;
  cfg.dc_offset = dsp::Cplx{3e-5, 2e-5};
  expect_mixer_continuity(cfg, test_signal(3000, 1e-3, 3));
}

TEST(TileContinuity, MixerOffsetAndPhaseNoise) {
  MixerConfig cfg;
  cfg.lo_offset_hz = 187e3;  // rotating-LO path: phase carried across tiles
  cfg.phase_noise.level_dbc_hz = -95.0;
  expect_mixer_continuity(cfg, test_signal(3000, 1e-3, 4));
}

TEST(TileContinuity, Filters) {
  expect_tile_continuity(
      [] { return std::make_unique<ChebyshevLowpass>(7, 1.0, 8.6e6, 80e6); },
      kNoRng,
      [](dsp::Rng) {
        return std::make_unique<ref::Biquads>(
            dsp::design_chebyshev1_lowpass(7, 1.0, 8.6e6 / 80e6));
      },
      test_signal(3000, 1e-2, 5));
  expect_tile_continuity(
      [] { return std::make_unique<DcBlockHighpass>(2, 120e3, 80e6); },
      kNoRng,
      [](dsp::Rng) {
        return std::make_unique<ref::Biquads>(
            dsp::design_butterworth_highpass(2, 120e3 / 80e6));
      },
      test_signal(3000, 1e-2, 6));
}

TEST(TileContinuity, Agc) {
  AgcConfig cfg;
  cfg.lock_count = 96;  // exercise the lock state machine across tiles
  expect_tile_continuity([&] { return std::make_unique<Agc>(cfg); }, kNoRng,
                         [&](dsp::Rng) {
                           return std::make_unique<ref::Agc>(cfg);
                         },
                         test_signal(3000, 1e-2, 8));
}

TEST(TileContinuity, Adc) {
  AdcConfig cfg;
  cfg.full_scale = 0.08;
  expect_tile_continuity([&] { return std::make_unique<Adc>(cfg); }, kNoRng,
                         [&](dsp::Rng) {
                           return std::make_unique<ref::Adc>(cfg);
                         },
                         test_signal(3000, 0.05, 9));
}

TEST(TileContinuity, NoiseSources) {
  expect_tile_continuity(
      [] {
        return std::make_unique<FlickerNoiseSource>(1e-9, 1e3, 200e3, 80e6,
                                                    dsp::Rng(1));
      },
      lane_rng_setter<FlickerNoiseSource>(),
      [](dsp::Rng rng) {
        return std::make_unique<ref::FlickerNoise>(1e-9, 1e3, 200e3, 80e6,
                                                   rng);
      },
      test_signal(3000, 1e-3, 11));
  expect_tile_continuity(
      [] {
        return std::make_unique<WanderingDcSource>(1e-4, 50e3, 80e6,
                                                   dsp::Rng(1));
      },
      [](RfBlock& b, std::size_t, dsp::Rng rng) {
        static_cast<WanderingDcSource&>(b).reseed(rng);
      },
      [](dsp::Rng rng) {
        return std::make_unique<ref::WanderingDc>(1e-4, 50e3, 80e6, rng);
      },
      test_signal(3000, 1e-3, 12), /*max_width=*/1);
}

TEST(ChainExecutor, FusedMatchesBlockwiseAcrossTileSizes) {
  // The receiver's fused lane loop at width 1, fed in outer tiles from
  // degenerate (1) through non-divisors of the length and the chain's own
  // tile budget to larger than the buffer, against the reference cascade
  // run block at a time over the whole buffer.
  const dsp::CVec in = test_signal(4096 + 321, 1e-4, 31);  // non-power-of-2
  DoubleConversionConfig cfg;
  const dsp::CVec ref =
      ref::double_conversion_receiver(cfg, dsp::Rng(42))->process(in);
  for (std::size_t tile : {std::size_t{1}, std::size_t{3}, std::size_t{100},
                           std::size_t{333}, RfChain::kTileSamples,
                           std::size_t{4096}, in.size() + 1000}) {
    DoubleConversionReceiver rx(cfg, dsp::Rng(42));
    dsp::CVec out = in;
    for (std::size_t o = 0; o < in.size(); o += tile) {
      const std::size_t m = std::min(tile, in.size() - o);
      rx.process_tile_lanes(reinterpret_cast<double*>(out.data() + o), m, 1);
    }
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
  rx.process_into(buf, buf);
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
  // The chain's tile (kTileSamples complex doubles, processed in place)
  // must stay within a conservative L1 data-cache budget, with room left
  // for the blocks' state.
  const std::size_t t = RfChain::kTileSamples;
  EXPECT_GE(t, 256u);
  EXPECT_LE(t * sizeof(dsp::Cplx), 24u * 1024u);
}

}  // namespace
}  // namespace wlansim::rf
