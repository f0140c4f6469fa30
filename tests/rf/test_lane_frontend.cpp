// Lane-vs-scalar bit identity of the RF front-end: a width-W SoA wave
// through DoubleConversionReceiver::process_tile_lanes must reproduce, per
// lane, exactly what a scalar receiver reseeded with that lane's rng
// produces — the contract the batched packet engine stands on.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "dsp/kernels.h"
#include "dsp/rng.h"
#include "rf/receiver_chain.h"

namespace kn = wlansim::dsp::kernels;
using wlansim::dsp::Cplx;
using wlansim::dsp::CVec;
using wlansim::dsp::RVec;
using wlansim::dsp::Rng;
using wlansim::rf::DoubleConversionConfig;
using wlansim::rf::DoubleConversionReceiver;
using wlansim::rf::ShapedNoiseTape;

namespace {

CVec make_burst(std::size_t n, std::uint64_t seed, double amp) {
  Rng rng(seed);
  CVec v(n);
  for (auto& x : v) x = rng.cgaussian(amp * amp);
  return v;
}

/// Scalar reference: fresh reset + reseed per lane, exactly what the
/// direct packet path does per packet.
CVec scalar_reference(DoubleConversionReceiver& fe, const CVec& in, Rng rng) {
  fe.reset();
  fe.reseed(rng);
  CVec out;
  fe.process_into(in, out);
  return out;
}

void expect_bit_equal(const CVec& got, const CVec& want, std::size_t lane) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(std::memcmp(&got[i], &want[i], sizeof(Cplx)), 0)
        << "lane " << lane << " sample " << i;
}

}  // namespace

TEST(LaneFrontend, DefaultChainSupportsLanes) {
  DoubleConversionConfig cfg;
  DoubleConversionReceiver fe(cfg, Rng(1));
  EXPECT_TRUE(fe.supports_lanes());
}

TEST(LaneFrontend, PhaseNoiseDisablesLanes) {
  DoubleConversionConfig cfg;
  cfg.lo_phase_noise.level_dbc_hz = -95.0;
  cfg.lo_phase_noise.offset_hz = 100e3;
  DoubleConversionReceiver fe(cfg, Rng(1));
  EXPECT_FALSE(fe.supports_lanes());
}

TEST(LaneFrontend, LanesMatchScalarPerLane) {
  DoubleConversionConfig cfg;
  DoubleConversionReceiver fe(cfg, Rng(42));
  ASSERT_TRUE(fe.supports_lanes());

  // Realistic level: around -60 dBm so the AGC actually moves, with enough
  // samples (> lock_count * detector settling) to cross lock transitions.
  const std::size_t n = 6000;
  const std::size_t nl = kn::kLaneWidth;
  std::vector<CVec> inputs(nl);
  std::vector<Rng> seeds;
  RVec soa(2 * n * nl);
  for (std::size_t l = 0; l < nl; ++l) {
    inputs[l] = make_burst(n, 1000 + l, 2.2e-5 * (1.0 + 0.2 * l));
    kn::lanes_pack(inputs[l].data(), n, nl, l, soa.data());
    seeds.emplace_back(9000 + 13 * l);
  }

  fe.reset();
  fe.begin_lanes(nl);
  for (std::size_t l = 0; l < nl; ++l) {
    fe.reseed_lanes(l, seeds[l]);
    fe.set_lane_tapes(l, nullptr, nullptr);
  }
  fe.process_tile_lanes(soa.data(), n, nl);

  for (std::size_t l = 0; l < nl; ++l) {
    CVec got(n);
    kn::lanes_unpack(soa.data(), n, nl, l, got.data());
    const CVec want = scalar_reference(fe, inputs[l], seeds[l]);
    expect_bit_equal(got, want, l);
  }
}

TEST(LaneFrontend, PartialWidthMatchesScalar) {
  // A tail wave narrower than kLaneWidth takes the runtime-width kernel
  // bodies; the contract is identical.
  DoubleConversionConfig cfg;
  DoubleConversionReceiver fe(cfg, Rng(7));
  const std::size_t n = 4000, nl = 3;
  std::vector<CVec> inputs(nl);
  RVec soa(2 * n * nl);
  for (std::size_t l = 0; l < nl; ++l) {
    inputs[l] = make_burst(n, 50 + l, 3.0e-5);
    kn::lanes_pack(inputs[l].data(), n, nl, l, soa.data());
  }
  fe.reset();
  fe.begin_lanes(nl);
  for (std::size_t l = 0; l < nl; ++l) {
    fe.reseed_lanes(l, Rng(300 + l));
    fe.set_lane_tapes(l, nullptr, nullptr);
  }
  fe.process_tile_lanes(soa.data(), n, nl);
  for (std::size_t l = 0; l < nl; ++l) {
    CVec got(n);
    kn::lanes_unpack(soa.data(), n, nl, l, got.data());
    expect_bit_equal(got, scalar_reference(fe, inputs[l], Rng(300 + l)), l);
  }
}

TEST(LaneFrontend, TapeRecordThenReplayIsBitIdentical) {
  DoubleConversionConfig cfg;
  DoubleConversionReceiver fe(cfg, Rng(3));
  const std::size_t n = 4000, nl = 2;
  std::vector<CVec> inputs(nl);
  RVec soa_in(2 * n * nl);
  for (std::size_t l = 0; l < nl; ++l) {
    inputs[l] = make_burst(n, 70 + l, 2.5e-5);
    kn::lanes_pack(inputs[l].data(), n, nl, l, soa_in.data());
  }
  std::vector<RVec> lna(nl);
  std::vector<ShapedNoiseTape> flick(nl);
  const auto run = [&](DoubleConversionReceiver& rx, std::uint64_t seed) {
    RVec soa = soa_in;
    rx.reset();
    rx.begin_lanes(nl);
    for (std::size_t l = 0; l < nl; ++l) {
      rx.reseed_lanes(l, Rng(seed + l));
      rx.set_lane_tapes(l, &lna[l], &flick[l]);
    }
    rx.process_tile_lanes(soa.data(), n, nl);
    return soa;
  };
  const auto expect_scalar = [&](const RVec& soa,
                                 DoubleConversionReceiver& rx,
                                 std::uint64_t seed) {
    for (std::size_t l = 0; l < nl; ++l) {
      CVec got(n);
      kn::lanes_unpack(soa.data(), n, nl, l, got.data());
      expect_bit_equal(got, scalar_reference(rx, inputs[l], Rng(seed + l)),
                       l);
    }
  };
  const auto expect_tape_sizes = [&] {
    for (std::size_t l = 0; l < nl; ++l) {
      EXPECT_EQ(lna[l].size(), 2 * n);  // 2 unit normals per sample
      EXPECT_EQ(flick[l].noise.size(), 2 * n);  // 2 shaped doubles per sample
    }
  };

  // Pass 1: empty tapes -> record while drawing from the lane rngs: the
  // LNA's unit normals and the flicker noise after its shaping filter.
  const RVec recorded = run(fe, 500);
  expect_scalar(recorded, fe, 500);
  expect_tape_sizes();
  const std::vector<ShapedNoiseTape> taped = flick;

  // Pass 2: complete tapes -> replay; the lane rngs are deliberately
  // DIFFERENT, proving the noise comes from the tapes alone.
  const RVec replayed = run(fe, 987654);
  ASSERT_EQ(std::memcmp(recorded.data(), replayed.data(), recorded.size() * 8),
            0);
  expect_scalar(replayed, fe, 500);

  // Pass 3: another flicker shape. Its tapes do not match, so every lane
  // draws fresh flicker normals from its own rng (the LNA tape still
  // replays, since unit normals do not depend on the shape), and the tapes
  // recorded under the first shape are left exactly as they were.
  DoubleConversionConfig other = cfg;
  other.mixer2_flicker_power_dbm = -58.0;
  other.flicker_corner_hz = 300e3;
  DoubleConversionReceiver fe_other(other, Rng(3));
  const RVec shifted = run(fe_other, 500);
  expect_scalar(shifted, fe_other, 500);
  expect_tape_sizes();
  for (std::size_t l = 0; l < nl; ++l) {
    EXPECT_EQ(flick[l].shape, taped[l].shape);
    EXPECT_EQ(flick[l].noise, taped[l].noise);
  }
}
