// Lane-vs-scalar bit identity for the width-W packet-lane (SoA) kernels.
//
// Every lane kernel claims, per lane, the exact operation sequence of the
// scalar block it replaces — same products, same association order — so a
// packed lane must come back EXACTLY equal (std::memcmp-grade, via
// bit-compare of both rails) to the scalar computation on that lane's AoS
// data. Lengths cover the adversarial set {1, W-1, W, W+1, 33} (non-multiple
// tails included) and widths {1, 3, W}: nl == kLaneWidth exercises the
// fixed-width fast instantiation, the others the runtime-width body.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "dsp/fir.h"
#include "dsp/iir.h"
#include "dsp/kernels.h"
#include "dsp/resample.h"
#include "dsp/rng.h"
#include "kernels_reference.h"

namespace kn = wlansim::dsp::kernels;
using wlansim::dsp::Cplx;
using wlansim::dsp::CVec;
using wlansim::dsp::RVec;

namespace {

const std::size_t kLens[] = {1, kn::kLaneWidth - 1, kn::kLaneWidth,
                             kn::kLaneWidth + 1, 33};
const std::size_t kWidths[] = {1, 3, kn::kLaneWidth};

bool bit_equal(Cplx a, Cplx b) {
  return std::memcmp(&a, &b, sizeof(Cplx)) == 0;
}

/// Fill every lane of an SoA buffer from per-lane AoS packets and return
/// the packets, so tests can run the scalar reference per lane.
std::vector<CVec> fill_lanes(RVec& soa, std::size_t n, std::size_t nl,
                             std::uint64_t seed) {
  wlansim::dsp::Rng rng(seed);
  std::vector<CVec> lanes(nl);
  soa.assign(2 * n * nl, 0.0);
  for (std::size_t l = 0; l < nl; ++l) {
    lanes[l].resize(n);
    for (auto& v : lanes[l]) v = rng.cgaussian(1.0);
    kn::lanes_pack(lanes[l].data(), n, nl, l, soa.data());
  }
  return lanes;
}

void expect_lane_equals(const RVec& soa, std::size_t n, std::size_t nl,
                        std::size_t lane, const CVec& want) {
  CVec got(n);
  kn::lanes_unpack(soa.data(), n, nl, lane, got.data());
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_TRUE(bit_equal(got[i], want[i]))
        << "lane " << lane << " sample " << i << " n=" << n << " nl=" << nl;
}

/// Run `check(n, nl)` over the adversarial length/width grid.
template <typename F>
void for_grid(F&& check) {
  for (std::size_t n : kLens)
    for (std::size_t nl : kWidths) check(n, nl);
}

}  // namespace

TEST(KernelsLanes, PackUnpackRoundtrip) {
  for_grid([](std::size_t n, std::size_t nl) {
    RVec soa;
    const auto lanes = fill_lanes(soa, n, nl, 7 * n + nl);
    for (std::size_t l = 0; l < nl; ++l) expect_lane_equals(soa, n, nl, l, lanes[l]);
  });
}

TEST(KernelsLanes, UnpackDecimTakesPhaseZero) {
  for (std::size_t decim : {std::size_t{1}, std::size_t{4}}) {
    for_grid([decim](std::size_t n, std::size_t nl) {
      RVec soa;
      const auto lanes = fill_lanes(soa, n, nl, 11 * n + nl + decim);
      const std::size_t m = (n + decim - 1) / decim;
      for (std::size_t l = 0; l < nl; ++l) {
        CVec got(m);
        kn::lanes_unpack_decim(soa.data(), n, nl, l, decim, got.data());
        for (std::size_t t = 0; t < m; ++t)
          ASSERT_TRUE(bit_equal(got[t], lanes[l][t * decim]));
      }
    });
  }
}

TEST(KernelsLanes, AddScaledPairsMatchesScalar) {
  // Lane l of the all-lanes noise add is the AoS add on lane l's buffer.
  for_grid([](std::size_t n, std::size_t nl) {
    RVec soa;
    auto lanes = fill_lanes(soa, n, nl, 13 * n + nl);
    wlansim::dsp::Rng rng(99);
    const double s = 0.37;
    std::vector<RVec> units(nl);
    std::vector<const double*> ptrs(nl);
    for (std::size_t l = 0; l < nl; ++l) {
      units[l].resize(2 * n);
      rng.fill_gaussian(units[l].data(), units[l].size());
      ptrs[l] = units[l].data();
    }
    kn::lanes_add_scaled_pairs_multi(soa.data(), n, nl, s, ptrs.data());
    for (std::size_t l = 0; l < nl; ++l) {
      kn::ref::add_scaled_pairs(lanes[l].data(), n, s, units[l].data());
      expect_lane_equals(soa, n, nl, l, lanes[l]);
    }
  });
}

TEST(KernelsLanes, WriteScaledPairsMatchesFlickerDrive) {
  for_grid([](std::size_t n, std::size_t nl) {
    RVec soa;
    fill_lanes(soa, n, nl, 17 * n + nl);  // overwritten; exercises old data
    wlansim::dsp::Rng rng(5);
    const double s0 = std::sqrt(1.0 / 2.0);
    const double s1 = 3.25e-4;
    std::vector<RVec> units(nl);
    std::vector<const double*> ptrs(nl);
    for (std::size_t l = 0; l < nl; ++l) {
      units[l].resize(2 * n);
      rng.fill_gaussian(units[l].data(), units[l].size());
      ptrs[l] = units[l].data();
    }
    kn::lanes_write_scaled_pairs_multi(soa.data(), n, nl, s0, s1,
                                       ptrs.data());
    for (std::size_t l = 0; l < nl; ++l) {
      // The flicker drive: cgaussian(1) * drive, left-associated per rail.
      const RVec& u = units[l];
      CVec want(n);
      for (std::size_t i = 0; i < n; ++i)
        want[i] = Cplx{(s0 * u[2 * i]) * s1, (s0 * u[2 * i + 1]) * s1};
      expect_lane_equals(soa, n, nl, l, want);
    }
  });
}

TEST(KernelsLanes, AddScaledPairsMultiMatchesPerLane) {
  // The fused all-lanes pass must be bit-identical to nl per-lane passes of
  // the reference single-lane kernel: every element op is the same
  // multiply-add, only the iteration order over independent elements
  // changes.
  for_grid([](std::size_t n, std::size_t nl) {
    RVec soa_multi;
    fill_lanes(soa_multi, n, nl, 43 * n + nl);
    RVec soa_per = soa_multi;
    wlansim::dsp::Rng rng(57);
    const double s = 0.37;
    std::vector<RVec> units(nl);
    std::vector<const double*> ptrs(nl);
    for (std::size_t l = 0; l < nl; ++l) {
      units[l].resize(2 * n);
      rng.fill_gaussian(units[l].data(), units[l].size());
      ptrs[l] = units[l].data();
    }
    kn::lanes_add_scaled_pairs_multi(soa_multi.data(), n, nl, s, ptrs.data());
    for (std::size_t l = 0; l < nl; ++l)
      kn::ref::lanes_add_scaled_pairs(soa_per.data(), n, nl, l, s,
                                      units[l].data());
    ASSERT_EQ(std::memcmp(soa_multi.data(), soa_per.data(),
                          soa_multi.size() * 8), 0)
        << "n=" << n << " nl=" << nl;
  });
}

TEST(KernelsLanes, WriteScaledPairsMultiMatchesPerLane) {
  for_grid([](std::size_t n, std::size_t nl) {
    RVec soa_multi;
    fill_lanes(soa_multi, n, nl, 47 * n + nl);  // stale data, overwritten
    RVec soa_per = soa_multi;
    wlansim::dsp::Rng rng(58);
    const double s0 = std::sqrt(1.0 / 2.0);
    const double s1 = 3.25e-4;
    std::vector<RVec> units(nl);
    std::vector<const double*> ptrs(nl);
    for (std::size_t l = 0; l < nl; ++l) {
      units[l].resize(2 * n);
      rng.fill_gaussian(units[l].data(), units[l].size());
      ptrs[l] = units[l].data();
    }
    kn::lanes_write_scaled_pairs_multi(soa_multi.data(), n, nl, s0, s1,
                                       ptrs.data());
    for (std::size_t l = 0; l < nl; ++l)
      kn::ref::lanes_write_scaled_pairs(soa_per.data(), n, nl, l, s0, s1,
                                        units[l].data());
    ASSERT_EQ(std::memcmp(soa_multi.data(), soa_per.data(),
                          soa_multi.size() * 8), 0)
        << "n=" << n << " nl=" << nl;
  });
}

TEST(KernelsLanes, AddIsElementwise) {
  wlansim::dsp::Rng rng(21);
  for (std::size_t count : {std::size_t{1}, std::size_t{16}, std::size_t{67}}) {
    RVec dst(count), src(count), want(count);
    rng.fill_gaussian(dst.data(), count);
    rng.fill_gaussian(src.data(), count);
    for (std::size_t j = 0; j < count; ++j) want[j] = dst[j] + src[j];
    kn::lanes_add(dst.data(), src.data(), count);
    for (std::size_t j = 0; j < count; ++j)
      ASSERT_EQ(std::memcmp(&dst[j], &want[j], sizeof(double)), 0);
  }
}

TEST(KernelsLanes, BiquadMatchesScalarSection) {
  // A realistic section from the Chebyshev channel filter design.
  const wlansim::dsp::BiquadCascade c =
      wlansim::dsp::design_chebyshev1_lowpass(7, 1.0, 0.1075);
  ASSERT_GT(c.num_sections(), 0u);
  for_grid([&](std::size_t n, std::size_t nl) {
    RVec soa;
    auto lanes = fill_lanes(soa, n, nl, 29 * n + nl);
    for (const wlansim::dsp::Biquad& sec : c.sections()) {
      RVec state(4 * nl, 0.0);
      kn::lanes_biquad(soa.data(), n, nl, sec.b0, sec.b1, sec.b2, sec.a1,
                       sec.a2, state.data());
      for (std::size_t l = 0; l < nl; ++l) {
        wlansim::dsp::Biquad ref = sec;
        ref.reset();
        for (auto& v : lanes[l]) v = ref.step(v);
        expect_lane_equals(soa, n, nl, l, lanes[l]);
      }
    }
  });
}

TEST(KernelsLanes, BiquadStateCarriesAcrossTiles) {
  // Two half-length calls with carried state == one whole-buffer call: the
  // property the fused lane tile loop relies on.
  const wlansim::dsp::Biquad sec{0.9, -1.7, 0.82, -1.6, 0.71};
  const std::size_t n = 33, nl = kn::kLaneWidth;
  RVec whole, tiled;
  fill_lanes(whole, n, nl, 123);
  tiled = whole;
  RVec sw(4 * nl, 0.0), st(4 * nl, 0.0);
  kn::lanes_biquad(whole.data(), n, nl, sec.b0, sec.b1, sec.b2, sec.a1, sec.a2,
                   sw.data());
  const std::size_t n1 = 13;
  kn::lanes_biquad(tiled.data(), n1, nl, sec.b0, sec.b1, sec.b2, sec.a1,
                   sec.a2, st.data());
  kn::lanes_biquad(tiled.data() + 2 * nl * n1, n - n1, nl, sec.b0, sec.b1,
                   sec.b2, sec.a1, sec.a2, st.data());
  ASSERT_EQ(std::memcmp(whole.data(), tiled.data(), whole.size() * 8), 0);
  ASSERT_EQ(std::memcmp(sw.data(), st.data(), sw.size() * 8), 0);
}

TEST(KernelsLanes, MixUnityLoMatchesScalar) {
  kn::MixParams cases[3];
  cases[0].gain = 2.51;                       // plain gain + dc
  cases[0].dc = Cplx{3e-5, 2e-5};
  cases[1] = cases[0];
  cases[1].image_amp = 0.01;                  // finite image rejection
  cases[2] = cases[1];
  cases[2].iq_active = true;                  // full I/Q imbalance stage
  cases[2].iq_eps = 1.02;
  cases[2].iq_sin = 0.015;
  cases[2].iq_cos = std::sqrt(1.0 - 0.015 * 0.015);
  for (const kn::MixParams& p : cases) {
    for_grid([&](std::size_t n, std::size_t nl) {
      RVec soa;
      auto lanes = fill_lanes(soa, n, nl, 31 * n + nl);
      kn::lanes_mix_unity_lo(soa.data(), n, nl, p);
      for (std::size_t l = 0; l < nl; ++l) {
        kn::ref::mix_const_lo(lanes[l].data(), n, Cplx{1.0, 0.0}, p,
                              lanes[l].data());
        expect_lane_equals(soa, n, nl, l, lanes[l]);
      }
    });
  }
}

TEST(KernelsLanes, AmpRappP2MatchesScalarFormula) {
  const double lin_gain = 5.62, lin_gain2 = lin_gain * lin_gain;
  const double inv_vsat2 = 1.0 / 0.031623;
  for_grid([&](std::size_t n, std::size_t nl) {
    RVec soa;
    auto lanes = fill_lanes(soa, n, nl, 37 * n + nl);
    kn::lanes_amp_rapp_p2(soa.data(), n, nl, lin_gain, lin_gain2, inv_vsat2);
    for (std::size_t l = 0; l < nl; ++l) {
      for (auto& v : lanes[l]) {
        const double n2 = v.real() * v.real() + v.imag() * v.imag();
        const double r2 = (lin_gain2 * n2) * inv_vsat2;
        const double g = lin_gain / std::sqrt(std::sqrt(1.0 + r2 * r2));
        v = Cplx{v.real() * g, v.imag() * g};
      }
      expect_lane_equals(soa, n, nl, l, lanes[l]);
    }
  });
}

TEST(KernelsLanes, FirDecimMatchesStreamingFilter) {
  const RVec taps = wlansim::dsp::resampling_taps(4);
  for (std::size_t decim : {std::size_t{1}, std::size_t{4}}) {
    for_grid([&](std::size_t n, std::size_t nl) {
      RVec soa;
      const auto lanes = fill_lanes(soa, n, nl, 41 * n + nl + decim);
      const std::size_t m = (n + decim - 1) / decim;
      for (std::size_t l = 0; l < nl; ++l) {
        CVec got(m);
        kn::lanes_fir_decim(soa.data(), n, nl, l, taps.data(), taps.size(),
                            decim, got.data());
        wlansim::dsp::FirFilter f(taps);
        f.reset();
        CVec want(m);
        f.process_decim_into(lanes[l], decim, want);
        for (std::size_t t = 0; t < m; ++t)
          ASSERT_TRUE(bit_equal(got[t], want[t]))
              << "t=" << t << " n=" << n << " nl=" << nl << " d=" << decim;
      }
    });
  }
}

// ---- the oracle table: every exported kernel against kernels::ref -------
//
// kn::X runs the clone the loader picked for this host (AVX2 where the CPU
// has it); kn::ref::X is the same source built at the baseline ISA. Each row
// calls both on identical inputs over a grid that reaches the wide loop
// bodies and their scalar tails — 1, 3, 8, 33 and 1000 samples, 1 to 120
// taps, widths 1, 3 and 8, mixer impairments on and off — and compares every
// output and state word with memcmp. A row reports only its first
// differing call, so one broken kernel costs one failure line, and a later
// row still runs.

namespace {

namespace ref = kn::ref;
using wlansim::dsp::Rng;

const std::size_t kOracleLens[] = {1, 3, 8, 33, 1000};
constexpr std::size_t kMaxTaps = 120;
// Calls per length for the reductions: a rounding difference in one product
// often vanishes into the ulp of a long or carried sum, so short blocks are
// drawn many times, half of evm_accum's from a zero carry-in.
constexpr std::size_t kTrials = 16;

/// The first call at which a kernel's clone and its reference disagree.
struct Diff {
  std::string first;

  template <typename T>
  void same(const std::vector<T>& got, const std::vector<T>& want,
            const std::string& where) {
    if (first.empty() && (got.size() != want.size() ||
                          std::memcmp(got.data(), want.data(),
                                      got.size() * sizeof(T)) != 0))
      first = where;
  }
  template <typename T>
  void same(T got, T want, const std::string& where) {
    same(std::vector<T>{got}, std::vector<T>{want}, where);
  }
};

std::string shape(std::initializer_list<std::pair<const char*, std::size_t>>
                      dims) {
  std::string s;
  for (const auto& [name, v] : dims)
    s += std::string(s.empty() ? "" : " ") + name + "=" + std::to_string(v);
  return s;
}

RVec normals(std::size_t count, Rng& rng) {
  RVec v(count);
  rng.fill_gaussian(v.data(), count);
  return v;
}

CVec cnormals(std::size_t n, Rng& rng) {
  CVec v(n);
  for (Cplx& x : v) x = rng.cgaussian(1.0);
  return v;
}

/// Mixer settings: plain gain, DC only, then image, I/Q and both on top.
std::vector<kn::MixParams> mix_cases() {
  std::vector<kn::MixParams> cases(5);
  cases[0].gain = 2.51;
  for (std::size_t c = 1; c < cases.size(); ++c) {
    cases[c].gain = 2.51;
    cases[c].dc = Cplx{3e-3, -2e-3};
  }
  cases[2].image_amp = 0.01;
  for (std::size_t c : {std::size_t{3}, std::size_t{4}}) {
    cases[c].iq_active = true;
    cases[c].iq_eps = 1.02;
    cases[c].iq_sin = 0.015;
    cases[c].iq_cos = std::sqrt(1.0 - 0.015 * 0.015);
  }
  cases[4].image_amp = 0.01;
  return cases;
}

/// A doubled delay line in a valid state: ntaps random samples, mirrored.
CVec delay_line(std::size_t ntaps, Rng& rng) {
  CVec d = cnormals(ntaps, rng);
  d.insert(d.end(), d.begin(), d.end());
  return d;
}

/// Run `check(n, nl, soa)` for every length and width, `soa` a filled
/// width-nl buffer of n samples.
template <typename F>
void for_lane_grid(Rng& rng, F&& check) {
  for (std::size_t n : kOracleLens)
    for (std::size_t nl : kWidths) check(n, nl, normals(2 * n * nl, rng));
}

/// Per-lane unit-normal streams and their pointer table.
struct LaneUnits {
  std::vector<RVec> units;
  std::vector<const double*> ptrs;
  LaneUnits(std::size_t n, std::size_t nl, Rng& rng) {
    for (std::size_t l = 0; l < nl; ++l) {
      units.push_back(normals(2 * n, rng));
      ptrs.push_back(units.back().data());
    }
  }
};

struct OracleRow {
  const char* kernel;
  void (*run)(Diff&);
};

const OracleRow kOracle[] = {
    {"mix_phase",
     [](Diff& d) {
       Rng rng(102);
       for (std::size_t n : kOracleLens) {
         const CVec in = cnormals(n, rng);
         const RVec phase = normals(n, rng);
         for (const kn::MixParams& p : mix_cases()) {
           CVec a(n), b(n);
           kn::mix_phase(in.data(), phase.data(), n, p, a.data());
           ref::mix_phase(in.data(), phase.data(), n, p, b.data());
           d.same(a, b, shape({{"n", n}, {"image", p.image_amp > 0.0},
                               {"iq", p.iq_active}}));
         }
       }
     }},
    {"fir_stream",
     [](Diff& d) {
       Rng rng(103);
       for (std::size_t ntaps = 1; ntaps <= kMaxTaps; ++ntaps) {
         const RVec taps = normals(ntaps, rng);
         for (std::size_t m : kOracleLens) {
           const CVec in = cnormals(m, rng);
           CVec da = delay_line(ntaps, rng), db = da;
           const std::size_t pos = ntaps / 2;
           CVec a(m), b(m);
           const std::size_t pa = kn::fir_stream(taps.data(), ntaps, da.data(),
                                                 pos, in.data(), m, a.data());
           const std::size_t pb = ref::fir_stream(taps.data(), ntaps, db.data(),
                                                  pos, in.data(), m, b.data());
           const std::string at = shape({{"ntaps", ntaps}, {"m", m}});
           d.same(a, b, at);
           d.same(da, db, at + " (delay line)");
           d.same(pa, pb, at + " (position)");
         }
       }
     }},
    {"fir_stream_decim",
     [](Diff& d) {
       Rng rng(104);
       for (std::size_t ntaps = 1; ntaps <= kMaxTaps; ++ntaps) {
         const RVec taps = normals(ntaps, rng);
         for (std::size_t m : kOracleLens)
           for (std::size_t decim = 1; decim <= 4; ++decim) {
             const CVec in = cnormals(m, rng);
             CVec da = delay_line(ntaps, rng), db = da;
             const std::size_t pos = ntaps / 3;
             const std::size_t nout = (m + decim - 1) / decim;
             CVec a(nout), b(nout);
             const std::size_t pa =
                 kn::fir_stream_decim(taps.data(), ntaps, da.data(), pos,
                                      in.data(), m, decim, a.data());
             const std::size_t pb =
                 ref::fir_stream_decim(taps.data(), ntaps, db.data(), pos,
                                       in.data(), m, decim, b.data());
             const std::string at =
                 shape({{"ntaps", ntaps}, {"m", m}, {"decim", decim}});
             d.same(a, b, at);
             d.same(da, db, at + " (delay line)");
             d.same(pa, pb, at + " (position)");
           }
       }
     }},
    {"fir_interp",
     [](Diff& d) {
       Rng rng(105);
       // os 65 exceeds the packed polyphase table and takes the direct path.
       for (std::size_t ntaps = 1; ntaps <= kMaxTaps; ++ntaps) {
         const RVec taps = normals(ntaps, rng);
         for (std::size_t nsrc : kOracleLens)
           for (std::size_t os : {1, 2, 4, 65}) {
             const CVec src = cnormals(nsrc, rng);
             const std::size_t nout = nsrc * os + ntaps;
             CVec a(nout), b(nout);
             kn::fir_interp(taps.data(), ntaps, os, src.data(), nsrc, 0.75,
                            a.data(), nout);
             ref::fir_interp(taps.data(), ntaps, os, src.data(), nsrc, 0.75,
                             b.data(), nout);
             d.same(a, b, shape({{"ntaps", ntaps}, {"nsrc", nsrc},
                                 {"os", os}}));
           }
       }
     }},
    {"fft_butterflies_batch",
     [](Diff& d) {
       Rng rng(106);
       for (std::size_t n : {2, 8, 64, 1024}) {
         CVec twiddle(n / 2);
         for (std::size_t k = 0; k < n / 2; ++k) {
           const double ang = -2.0 * wlansim::dsp::kPi * double(k) / double(n);
           twiddle[k] = Cplx{std::cos(ang), std::sin(ang)};
         }
         for (std::size_t rows : {1, 3, 8, 33}) {
           CVec a = cnormals(rows * n, rng), b = a;
           kn::fft_butterflies_batch(a.data(), rows, n, twiddle.data());
           ref::fft_butterflies_batch(b.data(), rows, n, twiddle.data());
           d.same(a, b, shape({{"n", n}, {"rows", rows}}));
         }
       }
     }},
    {"cfir_conv",
     [](Diff& d) {
       Rng rng(107);
       for (std::size_t ntaps = 1; ntaps <= kMaxTaps; ++ntaps) {
         const CVec taps = cnormals(ntaps, rng);
         for (std::size_t n : kOracleLens) {
           const CVec in = cnormals(n, rng);
           CVec a(n), b(n);
           kn::cfir_conv(taps.data(), ntaps, in.data(), n, a.data());
           ref::cfir_conv(taps.data(), ntaps, in.data(), n, b.data());
           d.same(a, b, shape({{"ntaps", ntaps}, {"n", n}}));
         }
       }
     }},
    {"power_sum",
     [](Diff& d) {
       Rng rng(108);
       for (std::size_t n : kOracleLens)
         for (std::size_t trial = 0; trial < kTrials; ++trial) {
           const CVec x = cnormals(n, rng);
           d.same(kn::power_sum(x.data(), n), ref::power_sum(x.data(), n),
                  shape({{"n", n}, {"trial", trial}}));
         }
     }},
    {"evm_accum",
     [](Diff& d) {
       Rng rng(109);
       for (std::size_t n : kOracleLens)
         for (std::size_t trial = 0; trial < kTrials; ++trial) {
           const CVec rx = cnormals(n, rng), want = cnormals(n, rng);
           const double carry = trial % 2 == 0 ? 0.0 : 0.25;
           RVec a = {carry, 2 * carry}, b = a;
           kn::evm_accum(rx.data(), want.data(), n, &a[0], &a[1]);
           ref::evm_accum(rx.data(), want.data(), n, &b[0], &b[1]);
           d.same(a, b, shape({{"n", n}, {"trial", trial}}));
         }
     }},
    {"xcorr_accum",
     [](Diff& d) {
       Rng rng(110);
       for (std::size_t n : kOracleLens)
         for (std::size_t trial = 0; trial < kTrials; ++trial) {
           const CVec x = cnormals(n, rng), pattern = cnormals(n, rng);
           RVec a(2), b(2);
           kn::xcorr_accum(x.data(), pattern.data(), n, &a[0], &a[1]);
           ref::xcorr_accum(x.data(), pattern.data(), n, &b[0], &b[1]);
           d.same(a, b, shape({{"n", n}, {"trial", trial}}));
         }
     }},
    {"scale",
     [](Diff& d) {
       Rng rng(111);
       for (std::size_t n : kOracleLens) {
         RVec a = normals(n, rng), b = a;
         kn::scale(a.data(), n, 0.8125);
         ref::scale(b.data(), n, 0.8125);
         d.same(a, b, shape({{"n", n}}));
       }
     }},
    {"quantize_clamp",
     [](Diff& d) {
       Rng rng(113);
       for (std::size_t n : kOracleLens) {
         // Every other sample on the k/8 grid, so step 0.25 meets its ties;
         // the spread crosses the rails.
         CVec in = cnormals(n, rng);
         for (std::size_t i = 0; i < n; i += 2)
           in[i] = Cplx{std::round(8.0 * in[i].real()) / 8.0,
                        std::round(8.0 * in[i].imag()) / 8.0};
         for (std::size_t levels : {4, 10}) {
           const double step = 1.0 / double(levels);
           CVec a(n), b(n);
           kn::quantize_clamp(in.data(), n, double(levels), step, 1.1,
                              a.data());
           ref::quantize_clamp(in.data(), n, double(levels), step, 1.1,
                               b.data());
           d.same(a, b, shape({{"n", n}, {"levels", levels}}));
         }
       }
     }},
    {"lanes_pack",
     [](Diff& d) {
       Rng rng(114);
       for_lane_grid(rng, [&](std::size_t n, std::size_t nl, RVec a) {
         RVec b = a;
         for (std::size_t lane = 0; lane < nl; ++lane) {
           const CVec src = cnormals(n, rng);
           kn::lanes_pack(src.data(), n, nl, lane, a.data());
           ref::lanes_pack(src.data(), n, nl, lane, b.data());
         }
         d.same(a, b, shape({{"n", n}, {"nl", nl}}));
       });
     }},
    {"lanes_unpack",
     [](Diff& d) {
       Rng rng(115);
       for_lane_grid(rng, [&](std::size_t n, std::size_t nl, RVec soa) {
         for (std::size_t lane = 0; lane < nl; ++lane) {
           CVec a(n), b(n);
           kn::lanes_unpack(soa.data(), n, nl, lane, a.data());
           ref::lanes_unpack(soa.data(), n, nl, lane, b.data());
           d.same(a, b, shape({{"n", n}, {"nl", nl}, {"lane", lane}}));
         }
       });
     }},
    {"lanes_unpack_decim",
     [](Diff& d) {
       Rng rng(116);
       for_lane_grid(rng, [&](std::size_t n, std::size_t nl, RVec soa) {
         for (std::size_t decim : {1, 2, 4})
           for (std::size_t lane = 0; lane < nl; ++lane) {
             const std::size_t m = (n + decim - 1) / decim;
             CVec a(m), b(m);
             kn::lanes_unpack_decim(soa.data(), n, nl, lane, decim, a.data());
             ref::lanes_unpack_decim(soa.data(), n, nl, lane, decim, b.data());
             d.same(a, b, shape({{"n", n}, {"nl", nl}, {"decim", decim},
                                 {"lane", lane}}));
           }
       });
     }},
    {"lanes_add_scaled_pairs_multi",
     [](Diff& d) {
       Rng rng(119);
       for_lane_grid(rng, [&](std::size_t n, std::size_t nl, RVec a) {
         RVec b = a;
         const LaneUnits u(n, nl, rng);
         kn::lanes_add_scaled_pairs_multi(a.data(), n, nl, 0.37, u.ptrs.data());
         ref::lanes_add_scaled_pairs_multi(b.data(), n, nl, 0.37,
                                           u.ptrs.data());
         d.same(a, b, shape({{"n", n}, {"nl", nl}}));
       });
     }},
    {"lanes_write_scaled_pairs_multi",
     [](Diff& d) {
       Rng rng(120);
       for_lane_grid(rng, [&](std::size_t n, std::size_t nl, RVec a) {
         RVec b = a;
         const LaneUnits u(n, nl, rng);
         kn::lanes_write_scaled_pairs_multi(a.data(), n, nl, 0.7, 3.25e-4,
                                            u.ptrs.data());
         ref::lanes_write_scaled_pairs_multi(b.data(), n, nl, 0.7, 3.25e-4,
                                             u.ptrs.data());
         d.same(a, b, shape({{"n", n}, {"nl", nl}}));
       });
     }},
    {"lanes_add",
     [](Diff& d) {
       Rng rng(121);
       for_lane_grid(rng, [&](std::size_t n, std::size_t nl, RVec a) {
         RVec b = a;
         const RVec src = normals(a.size(), rng);
         kn::lanes_add(a.data(), src.data(), a.size());
         ref::lanes_add(b.data(), src.data(), b.size());
         d.same(a, b, shape({{"n", n}, {"nl", nl}}));
       });
     }},
    {"lanes_biquad",
     [](Diff& d) {
       // The Chebyshev channel filter's sections, whose small feed-forward
       // taps hide a rounding of b*x, plus one section with large taps.
       Rng rng(122);
       std::vector<wlansim::dsp::Biquad> sections =
           wlansim::dsp::design_chebyshev1_lowpass(7, 1.0, 0.1075).sections();
       sections.push_back(wlansim::dsp::Biquad{0.9, -1.7, 0.82, -1.6, 0.71});
       for_lane_grid(rng, [&](std::size_t n, std::size_t nl, RVec a) {
         RVec b = a;
         for (const wlansim::dsp::Biquad& sec : sections) {
           RVec sa = normals(4 * nl, rng), sb = sa;  // carried-in state
           kn::lanes_biquad(a.data(), n, nl, sec.b0, sec.b1, sec.b2, sec.a1,
                            sec.a2, sa.data());
           ref::lanes_biquad(b.data(), n, nl, sec.b0, sec.b1, sec.b2, sec.a1,
                             sec.a2, sb.data());
           d.same(sa, sb, shape({{"n", n}, {"nl", nl}}) + " (state)");
         }
         d.same(a, b, shape({{"n", n}, {"nl", nl}}));
       });
     }},
    {"lanes_mix_unity_lo",
     [](Diff& d) {
       Rng rng(123);
       for_lane_grid(rng, [&](std::size_t n, std::size_t nl, RVec soa) {
         for (const kn::MixParams& p : mix_cases()) {
           RVec a = soa, b = soa;
           kn::lanes_mix_unity_lo(a.data(), n, nl, p);
           ref::lanes_mix_unity_lo(b.data(), n, nl, p);
           d.same(a, b, shape({{"n", n}, {"nl", nl},
                               {"image", p.image_amp > 0.0},
                               {"iq", p.iq_active}}));
         }
       });
     }},
    {"lanes_amp_rapp_p2",
     [](Diff& d) {
       Rng rng(124);
       const double lin_gain = 5.62, inv_vsat2 = 1.0 / 0.031623;
       // The clone computes sqrt and division packed: every third rail
       // takes a value at the edge of the range, so lanes meet signed
       // zeros, denormals, squares that underflow or overflow, infinities
       // (inf * 0 makes a NaN) and NaN next to ordinary samples.
       using lim = std::numeric_limits<double>;
       const double extremes[] = {
           0.0,    -0.0,   lim::denorm_min(), -3e-310,          1e150,
           -1e150, 1e-150, -1e-150,           lim::infinity(), -lim::infinity(),
           lim::quiet_NaN()};
       for_lane_grid(rng, [&](std::size_t n, std::size_t nl, RVec a) {
         for (std::size_t j = 0; j < a.size(); j += 3)
           a[j] = extremes[(j / 3) % std::size(extremes)];
         RVec b = a;
         kn::lanes_amp_rapp_p2(a.data(), n, nl, lin_gain, lin_gain * lin_gain,
                               inv_vsat2);
         ref::lanes_amp_rapp_p2(b.data(), n, nl, lin_gain,
                                lin_gain * lin_gain, inv_vsat2);
         d.same(a, b, shape({{"n", n}, {"nl", nl}}));
       });
     }},
    {"lanes_fir_decim",
     [](Diff& d) {
       Rng rng(125);
       for_lane_grid(rng, [&](std::size_t n, std::size_t nl, RVec soa) {
         for (std::size_t ntaps = 1; ntaps <= kMaxTaps; ++ntaps) {
           const RVec taps = normals(ntaps, rng);
           for (std::size_t decim : {1, 4})
             for (std::size_t lane : {std::size_t{0}, nl - 1}) {
               const std::size_t m = (n + decim - 1) / decim;
               CVec a(m), b(m);
               kn::lanes_fir_decim(soa.data(), n, nl, lane, taps.data(), ntaps,
                                   decim, a.data());
               ref::lanes_fir_decim(soa.data(), n, nl, lane, taps.data(),
                                    ntaps, decim, b.data());
               d.same(a, b, shape({{"n", n}, {"nl", nl}, {"ntaps", ntaps},
                                   {"decim", decim}, {"lane", lane}}));
             }
         }
       });
     }},
};

}  // namespace

TEST(KernelsLanes, DispatchedAgreesWithRef) {
  // One row per kernel declared in dsp/kernels.h.
  EXPECT_EQ(std::size(kOracle), 21u);
  for (const OracleRow& row : kOracle) {
    Diff d;
    row.run(d);
    EXPECT_TRUE(d.first.empty())
        << row.kernel << " differs from kernels::ref at " << d.first;
  }
}
