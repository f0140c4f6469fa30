// The kernel layer's exactness contract: each kernel, on the clone the
// loader picked for this host, must be componentwise-identical to
// `kernels::ref::`, the same source compiled at the baseline ISA (the AVX2
// clone has no FMA to contract into, and the reduction orders are fixed),
// and the streaming kernels must reproduce FirFilter's classic per-sample
// arithmetic bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <utility>

#include "dsp/fir.h"
#include "dsp/kernels.h"
#include "dsp/resample.h"
#include "dsp/types.h"
#include "kernels_reference.h"

namespace wlansim::dsp {
namespace {

CVec random_cvec(std::size_t n, std::mt19937_64& gen) {
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  CVec v(n);
  for (Cplx& x : v) x = Cplx{d(gen), d(gen)};
  return v;
}

RVec random_rvec(std::size_t n, std::mt19937_64& gen) {
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  RVec v(n);
  for (double& x : v) x = d(gen);
  return v;
}

void expect_exact(const CVec& a, const CVec& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].real(), b[i].real()) << "i=" << i;
    EXPECT_EQ(a[i].imag(), b[i].imag()) << "i=" << i;
  }
}

TEST(Kernels, MixConstLoMatchesReference) {
  // A constant LO is the mixer's phase kernel at a constant phase: the
  // shipped mix_phase must equal the reference constant-LO arithmetic.
  std::mt19937_64 gen(11);
  const CVec in = random_cvec(501, gen);
  kernels::MixParams p;
  p.gain = 1.234;
  p.image_amp = 0.01;
  p.iq_eps = 0.98;
  p.iq_sin = std::sin(0.02);
  p.iq_cos = std::cos(0.02);
  p.iq_active = true;
  p.dc = Cplx{1e-3, -2e-3};
  const RVec phase(in.size(), 0.7);
  const Cplx lo{std::cos(0.7), std::sin(0.7)};
  CVec a(in.size()), b(in.size());
  kernels::mix_phase(in.data(), phase.data(), in.size(), p, a.data());
  kernels::ref::mix_const_lo(in.data(), in.size(), lo, p, b.data());
  expect_exact(a, b);

  // All impairments off: the plain-gain specialization.
  kernels::MixParams plain;
  plain.gain = 0.5;
  kernels::mix_phase(in.data(), phase.data(), in.size(), plain, a.data());
  kernels::ref::mix_const_lo(in.data(), in.size(), lo, plain, b.data());
  expect_exact(a, b);
}

TEST(Kernels, MixPhaseMatchesReference) {
  std::mt19937_64 gen(12);
  const CVec in = random_cvec(257, gen);
  const RVec phase = random_rvec(in.size(), gen);
  kernels::MixParams p;
  p.gain = 0.9;
  p.image_amp = 0.05;
  CVec a(in.size()), b(in.size());
  kernels::mix_phase(in.data(), phase.data(), in.size(), p, a.data());
  kernels::ref::mix_phase(in.data(), phase.data(), in.size(), p, b.data());
  expect_exact(a, b);
}

TEST(Kernels, FirStreamMatchesStep) {
  std::mt19937_64 gen(13);
  const RVec taps = random_rvec(33, gen);
  const CVec in = random_cvec(300, gen);

  FirFilter stepwise(taps);
  CVec want(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) want[i] = stepwise.step(in[i]);

  // Through the kernel (FirFilter::process_into is a thin wrapper, but
  // exercise the raw entry too), split across two chunks so the carried
  // delay-line state is covered.
  FirFilter blockwise(taps);
  CVec got(in.size());
  blockwise.process_into(std::span<const Cplx>(in).first(101),
                         std::span<Cplx>(got).first(101));
  blockwise.process_into(std::span<const Cplx>(in).subspan(101),
                         std::span<Cplx>(got).subspan(101));
  expect_exact(got, want);
}

TEST(Kernels, FirStreamDispatchMatchesReference) {
  std::mt19937_64 gen(14);
  const RVec taps = random_rvec(21, gen);
  const CVec in = random_cvec(190, gen);
  CVec delay_a(2 * taps.size(), Cplx{0.0, 0.0});
  CVec delay_b(2 * taps.size(), Cplx{0.0, 0.0});
  CVec a(in.size()), b(in.size());
  const std::size_t pa = kernels::fir_stream(
      taps.data(), taps.size(), delay_a.data(), 0, in.data(), in.size(),
      a.data());
  const std::size_t pb = kernels::ref::fir_stream(
      taps.data(), taps.size(), delay_b.data(), 0, in.data(), in.size(),
      b.data());
  EXPECT_EQ(pa, pb);
  expect_exact(a, b);
  expect_exact(delay_a, delay_b);
}

TEST(Kernels, FirStreamDecimMatchesKeptOutputs) {
  std::mt19937_64 gen(15);
  const RVec taps = random_rvec(27, gen);
  for (const std::size_t decim : {std::size_t{2}, std::size_t{4}}) {
    const CVec in = random_cvec(64 * decim, gen);

    FirFilter stepwise(taps);
    CVec want;
    for (std::size_t i = 0; i < in.size(); ++i) {
      const Cplx y = stepwise.step(in[i]);
      if (i % decim == 0) want.push_back(y);
    }

    FirFilter decimating(taps);
    CVec got(want.size());
    decimating.process_decim_into(in, decim, got);
    expect_exact(got, want);
  }
}

TEST(Kernels, FirStreamDecimFlatPathMatchesStepwiseAcrossCalls) {
  // Long blocks take the flat fast path (dots straight off the input, eight
  // in flight, delay line rebuilt at the end). Outputs AND the carried
  // filter state must stay bit-identical to per-sample stepping — the
  // second and third calls only see the right answers if the first call's
  // delay/pos writeback reproduced the streaming state exactly. Covers
  // block lengths that are not multiples of decim and a real 119-tap
  // resampling filter alongside a short one.
  std::mt19937_64 gen(35);
  for (const std::size_t ntaps : {std::size_t{27}, std::size_t{119}}) {
    const RVec taps = random_rvec(ntaps, gen);
    for (const std::size_t decim : {std::size_t{2}, std::size_t{4}}) {
      FirFilter stepwise(taps);
      FirFilter decimating(taps);
      // Mix of long blocks (flat path), a short block (rolling path), and
      // lengths that are not multiples of decim. The phase counter restarts
      // at 0 each call; only the delay line carries over, so the stepwise
      // model keeps local indices i % decim == 0.
      for (const std::size_t m :
           {8 * ntaps, 8 * ntaps + 3, ntaps / 2, 8 * ntaps + 1}) {
        const CVec in = random_cvec(m, gen);
        CVec want;
        for (std::size_t i = 0; i < m; ++i) {
          const Cplx y = stepwise.step(in[i]);
          if (i % decim == 0) want.push_back(y);
        }
        CVec got(want.size());
        decimating.process_decim_into(in, decim, got);
        expect_exact(got, want);
      }
    }
  }
}

TEST(Kernels, FirStreamDecimFlatPathStateMatchesRolling) {
  // The fast path's final delay-line contents and returned position must
  // equal the rolling formulation's, slot for slot (both mirrored halves).
  std::mt19937_64 gen(36);
  const RVec taps = random_rvec(31, gen);
  const std::size_t nt = taps.size();
  for (const std::size_t m : {2 * nt, 8 * nt + 5, 3 * nt + 1}) {
    const CVec in = random_cvec(m, gen);
    const std::size_t decim = 4;
    const std::size_t nout = (m + decim - 1) / decim;

    CVec delay_k(2 * nt, Cplx{0.0, 0.0});
    CVec out_k(nout);
    const std::size_t pos_k =
        kernels::fir_stream_decim(taps.data(), nt, delay_k.data(), 0,
                                  in.data(), m, decim, out_k.data());

    // Trusted rolling model, written out longhand.
    CVec delay_r(2 * nt, Cplx{0.0, 0.0});
    CVec out_r(nout);
    std::size_t pos_r = 0, o = 0;
    for (std::size_t i = 0; i < m; ++i) {
      pos_r = (pos_r == 0) ? nt - 1 : pos_r - 1;
      delay_r[pos_r] = delay_r[pos_r + nt] = in[i];
      if (i % decim == 0) {
        double re = 0.0, im = 0.0;
        for (std::size_t k = 0; k < nt; ++k) {
          re += taps[k] * delay_r[pos_r + k].real();
          im += taps[k] * delay_r[pos_r + k].imag();
        }
        out_r[o++] = Cplx{re, im};
      }
    }
    EXPECT_EQ(pos_k, pos_r) << "m=" << m;
    expect_exact(out_k, out_r);
    expect_exact(delay_k, delay_r);
  }
}

TEST(Kernels, FirInterpMatchesZeroStuffedStream) {
  std::mt19937_64 gen(16);
  for (const std::size_t os : {std::size_t{2}, std::size_t{4}}) {
    const RVec& taps = resampling_taps(os);
    const CVec src = random_cvec(200, gen);
    const std::size_t nout = (src.size() + 16) * os;
    const double scale = static_cast<double>(os);

    // Reference: zero-stuff + scale, stream from cleared state.
    CVec stuffed(nout, Cplx{0.0, 0.0});
    for (std::size_t i = 0; i < src.size(); ++i)
      stuffed[i * os] = scale * src[i];
    FirFilter f(taps);
    CVec want(nout);
    f.process_into(stuffed, want);

    CVec got(nout);
    kernels::fir_interp(taps.data(), taps.size(), os, src.data(), src.size(),
                        scale, got.data(), nout);
    expect_exact(got, want);
  }
}

TEST(Kernels, PowerSumAndEvmMatchReference) {
  std::mt19937_64 gen(17);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                              std::size_t{4}, std::size_t{257}}) {
    const CVec x = random_cvec(n, gen);
    const CVec y = random_cvec(n, gen);
    EXPECT_EQ(kernels::power_sum(x.data(), n),
              kernels::ref::power_sum(x.data(), n));
    double e1 = 0.25, r1 = 0.5, e2 = 0.25, r2 = 0.5;  // nonzero carry-in
    kernels::evm_accum(x.data(), y.data(), n, &e1, &r1);
    kernels::ref::evm_accum(x.data(), y.data(), n, &e2, &r2);
    EXPECT_EQ(e1, e2);
    EXPECT_EQ(r1, r2);
  }
}

TEST(Kernels, ScaleAndAddScaledPairsMatchReference) {
  std::mt19937_64 gen(18);
  const RVec base = random_rvec(129, gen);
  RVec a = base, b = base;
  kernels::scale(a.data(), a.size(), 0.8125);
  kernels::ref::scale(b.data(), b.size(), 0.8125);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);

  // The noise add, at width 1 the reference's AoS add_scaled_pairs.
  const CVec cbase = random_cvec(77, gen);
  const RVec units = random_rvec(2 * cbase.size(), gen);
  CVec ca = cbase, cb = cbase;
  const double* unit_ptr = units.data();
  kernels::lanes_add_scaled_pairs_multi(reinterpret_cast<double*>(ca.data()),
                                        ca.size(), 1, 0.37, &unit_ptr);
  kernels::ref::add_scaled_pairs(cb.data(), cb.size(), 0.37, units.data());
  expect_exact(ca, cb);

  // And the semantic definition: a[i] += Cplx{s*u0, s*u1}.
  CVec cc = cbase;
  for (std::size_t i = 0; i < cc.size(); ++i)
    cc[i] += Cplx{0.37 * units[2 * i], 0.37 * units[2 * i + 1]};
  expect_exact(ca, cc);
}

TEST(Kernels, QuantizeClampMatchesStdRoundBitExactly) {
  // quantize_clamp computes std::round arithmetically; it must be
  // bit-identical (including the sign of zero) to the literal
  // clamp(round(v*inv_step)*step, -fs, fs) form for every input —
  // especially the x.5 ties, where round-half-away and the 2^52
  // round-to-nearest-even shift disagree before the tie correction.
  const auto bits = [](double x) {
    std::uint64_t u;
    std::memcpy(&u, &x, sizeof(u));
    return u;
  };
  // step = 0.25 makes v*inv_step exact for v = k/8, so ties are hit
  // exactly; fs slightly off-grid exercises the rail clamp path too.
  for (const auto& [step, fs] : {std::pair{0.25, 1.1}, std::pair{0.1, 1.0}}) {
    const double inv_step = 1.0 / step;
    RVec rails = {0.0,   -0.0,  0.125, -0.125, 0.375,  -0.375, 0.625,
                  1.0,   -1.0,  1.125, -1.125, 5.0,    -5.0,   0.5,
                  -0.5,  1e-12, -1e-12, 0x1p52, -0x1p52, 0x1p52 + 1.0,
                  0x1p52 - 0.5, std::numeric_limits<double>::infinity(),
                  -std::numeric_limits<double>::infinity(),
                  std::numeric_limits<double>::denorm_min(),
                  -std::numeric_limits<double>::denorm_min()};
    std::mt19937_64 gen(44);
    std::uniform_real_distribution<double> d(-2.0, 2.0);
    for (int i = 0; i < 4096; ++i) rails.push_back(d(gen));
    // Every k/8 grid point across the rails, to sweep all tie parities.
    for (int k = -40; k <= 40; ++k) rails.push_back(k * 0.125);

    ASSERT_EQ(rails.size() % 2, 0u);
    CVec in(rails.size() / 2);
    std::memcpy(in.data(), rails.data(), rails.size() * sizeof(double));
    CVec got(in.size()), got_ref(in.size());
    kernels::quantize_clamp(in.data(), in.size(), inv_step, step, fs,
                            got.data());
    kernels::ref::quantize_clamp(in.data(), in.size(), inv_step, step, fs,
                                 got_ref.data());
    const double* have = reinterpret_cast<const double*>(got.data());
    const double* have_ref = reinterpret_cast<const double*>(got_ref.data());
    for (std::size_t j = 0; j < rails.size(); ++j) {
      const double v = rails[j];
      const double want =
          std::clamp(std::round(v * inv_step) * step, -fs, fs);
      EXPECT_EQ(bits(have[j]), bits(want)) << "v=" << v << " step=" << step;
      EXPECT_EQ(bits(have[j]), bits(have_ref[j])) << "v=" << v;
    }
    // In-place call gives the same answer.
    CVec inplace = in;
    kernels::quantize_clamp(inplace.data(), inplace.size(), inv_step, step,
                            fs, inplace.data());
    expect_exact(inplace, got);
  }
}

TEST(Kernels, CfirConvMatchesComplexLoopAndReference) {
  std::mt19937_64 gen(19);
  for (const std::size_t ntaps : {std::size_t{1}, std::size_t{3},
                                  std::size_t{9}, std::size_t{300}}) {
    for (const std::size_t n : {std::size_t{1}, std::size_t{5},
                                std::size_t{256}}) {
      const CVec taps = random_cvec(ntaps, gen);
      const CVec in = random_cvec(n, gen);

      // Semantic definition: the std::complex tapped-delay loop.
      CVec want(n, Cplx{0.0, 0.0});
      for (std::size_t i = 0; i < n; ++i) {
        Cplx acc{0.0, 0.0};
        const std::size_t kmax = std::min(ntaps, i + 1);
        for (std::size_t k = 0; k < kmax; ++k) acc += taps[k] * in[i - k];
        want[i] = acc;
      }

      CVec a(n), b(n);
      kernels::cfir_conv(taps.data(), ntaps, in.data(), n, a.data());
      kernels::ref::cfir_conv(taps.data(), ntaps, in.data(), n, b.data());
      expect_exact(a, want);
      expect_exact(a, b);
    }
  }
}

TEST(Kernels, FftButterfliesBatchDispatchMatchesReference) {
  std::mt19937_64 gen(20);
  for (const std::size_t n : {std::size_t{8}, std::size_t{64}}) {
    CVec twiddle(n / 2);
    for (std::size_t k = 0; k < n / 2; ++k) {
      const double ang = -2.0 * kPi * static_cast<double>(k) /
                         static_cast<double>(n);
      twiddle[k] = Cplx{std::cos(ang), std::sin(ang)};
    }
    for (const std::size_t rows : {std::size_t{1}, std::size_t{7},
                                   std::size_t{32}}) {
      const CVec in = random_cvec(rows * n, gen);
      CVec a = in, b = in;
      kernels::fft_butterflies_batch(a.data(), rows, n, twiddle.data());
      kernels::ref::fft_butterflies_batch(b.data(), rows, n, twiddle.data());
      expect_exact(a, b);
    }
  }
}

}  // namespace
}  // namespace wlansim::dsp
