// Lane-vs-scalar bit identity of the RF front-end: a width-W SoA wave
// through process_tile_lanes must reproduce, per lane, exactly what the
// scalar reference model (tests/reference/rf_reference.h) seeded with that
// lane's rng produces, for every model the packet wave runs — the contract
// the packet engine stands on.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dsp/kernels.h"
#include "dsp/rng.h"
#include "rf/receiver_chain.h"
#include "rf_reference.h"

namespace kn = wlansim::dsp::kernels;
using wlansim::dsp::Cplx;
using wlansim::dsp::CVec;
using wlansim::dsp::RVec;
using wlansim::dsp::Rng;
using wlansim::rf::Amplifier;
using wlansim::rf::AmplifierConfig;
using wlansim::rf::DoubleConversionConfig;
using wlansim::rf::DoubleConversionReceiver;
using wlansim::rf::NonlinearityModel;
using wlansim::rf::RfBlock;
using wlansim::rf::ShapedNoiseTape;

namespace {

CVec make_burst(std::size_t n, std::uint64_t seed, double amp) {
  Rng rng(seed);
  CVec v(n);
  for (auto& x : v) x = rng.cgaussian(amp * amp);
  return v;
}

/// Scalar reference: the receiver's cascade of reference models built with
/// the lane's rng, run block at a time over the whole buffer.
CVec scalar_reference(const DoubleConversionConfig& cfg, const CVec& in,
                      Rng rng) {
  return wlansim::rf::ref::double_conversion_receiver(cfg, rng)->process(in);
}

void expect_bit_equal(const CVec& got, const CVec& want, std::size_t lane) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(std::memcmp(&got[i], &want[i], sizeof(Cplx)), 0)
        << "lane " << lane << " sample " << i;
}

/// One row of the lanes-against-scalar table: a block every lane of which
/// must equal the scalar reference built with that lane's rng.
struct LaneRow {
  std::string name;
  std::function<std::unique_ptr<RfBlock>(Rng)> make;
  /// Per-lane equivalent of constructing with `rng` (after begin_lanes).
  std::function<void(RfBlock&, std::size_t, Rng)> seed_lane;
  /// The scalar reference built with `rng`, run over a whole buffer.
  std::function<CVec(const CVec&, Rng)> reference;
};

LaneRow receiver_row(std::string name, const DoubleConversionConfig& cfg) {
  return {std::move(name),
          [cfg](Rng rng) {
            return std::make_unique<DoubleConversionReceiver>(cfg, rng);
          },
          [](RfBlock& b, std::size_t lane, Rng rng) {
            auto& fe = static_cast<DoubleConversionReceiver&>(b);
            fe.reseed_lanes(lane, rng);
            fe.set_lane_tapes(lane, nullptr, nullptr);
          },
          [cfg](const CVec& in, Rng rng) {
            return scalar_reference(cfg, in, rng);
          }};
}

std::vector<LaneRow> lane_rows() {
  std::vector<LaneRow> rows;
  DoubleConversionConfig cfg;
  cfg.lna_model = NonlinearityModel::kClippedCubic;
  rows.push_back(receiver_row("clipped-cubic LNA", cfg));
  for (const double deg : {10.0, 30.0}) {
    cfg = {};
    cfg.lna_am_pm_max_deg = deg;
    rows.push_back(receiver_row("AM/PM LNA " + std::to_string(deg), cfg));
  }
  AmplifierConfig rapp3;
  rapp3.rapp_smoothness = 3.0;
  rapp3.noise_figure_db = 4.0;
  rapp3.p1db_in_dbm = -30.0;
  rows.push_back({"stand-alone Rapp p = 3 amplifier with noise",
                  [rapp3](Rng rng) {
                    return std::make_unique<Amplifier>(rapp3, 80e6, rng);
                  },
                  [](RfBlock& b, std::size_t lane, Rng rng) {
                    static_cast<Amplifier&>(b).set_lane_rng(lane, rng);
                  },
                  [rapp3](const CVec& in, Rng rng) {
                    return wlansim::rf::ref::Amplifier(rapp3, 80e6, rng)
                        .process(in);
                  }});
  cfg = {};
  cfg.lo_offset_hz = 37e3;
  rows.push_back(receiver_row("LO offset", cfg));
  for (const double dbc : {-95.0, -66.0}) {
    cfg = {};
    cfg.lo_phase_noise.level_dbc_hz = dbc;
    cfg.lo_phase_noise.offset_hz = 100e3;
    rows.push_back(receiver_row("phase noise " + std::to_string(dbc), cfg));
  }
  cfg.lo_offset_hz = -52e3;
  rows.push_back(receiver_row("LO offset plus phase noise", cfg));
  rows.push_back(receiver_row("default chain", DoubleConversionConfig{}));
  return rows;
}

}  // namespace

TEST(LaneFrontend, LanesMatchScalarPerLane) {
  // Every model that reaches the packet wave, at widths 1, 3 and 8, fed in
  // outer tiles that do not divide the buffer: lane l must equal the scalar
  // reference built with lane l's rng, memcmp-exact. Lane levels span
  // -70 to +14 dBm, loudest in lane 0, so the AGC moves and the loud lanes
  // drive the amplifiers through compression, the cubic's clip and the
  // AM/PM curve.
  const std::size_t n = 6000;
  constexpr std::size_t kTiles[] = {333, 1, 1024, 777};
  for (const LaneRow& row : lane_rows()) {
    for (const std::size_t nl : {std::size_t{1}, std::size_t{3},
                                 kn::kLaneWidth}) {
      SCOPED_TRACE(row.name + ", width " + std::to_string(nl));
      std::vector<CVec> inputs(nl);
      RVec soa(2 * n * nl);
      for (std::size_t l = 0; l < nl; ++l) {
        const double level = static_cast<double>((7 + 5 * l) % 8);
        inputs[l] = make_burst(n, 1000 + l, 1e-5 * std::pow(4.0, level));
        kn::lanes_pack(inputs[l].data(), n, nl, l, soa.data());
      }
      const auto lanes = row.make(Rng(42));
      lanes->begin_lanes(nl);
      for (std::size_t l = 0; l < nl; ++l)
        row.seed_lane(*lanes, l, Rng(9000 + 13 * l));
      for (std::size_t off = 0, t = 0; off < n; ++t) {
        const std::size_t len = std::min(kTiles[t % 4], n - off);
        lanes->process_tile_lanes(soa.data() + 2 * nl * off, len, nl);
        off += len;
      }
      for (std::size_t l = 0; l < nl; ++l) {
        CVec got(n);
        kn::lanes_unpack(soa.data(), n, nl, l, got.data());
        expect_bit_equal(got, row.reference(inputs[l], Rng(9000 + 13 * l)),
                         l);
      }
    }
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
    expect_bit_equal(got, scalar_reference(cfg, inputs[l], Rng(300 + l)), l);
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
      expect_bit_equal(
          got, scalar_reference(rx.config(), inputs[l], Rng(seed + l)), l);
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
