#include "dsp/fft.h"

#include <cmath>

#include <gtest/gtest.h>

#include "dsp/mathutil.h"
#include "dsp/rng.h"
#include "kernels_reference.h"

namespace wlansim::dsp {
namespace {

TEST(Fft, RejectsNonPowerOfTwo) {
  EXPECT_THROW(Fft(0), std::invalid_argument);
  EXPECT_THROW(Fft(1), std::invalid_argument);
  EXPECT_THROW(Fft(48), std::invalid_argument);
  EXPECT_NO_THROW(Fft(64));
}

TEST(Fft, DeltaTransformsToFlatSpectrum) {
  CVec x(8, Cplx{0.0, 0.0});
  x[0] = 1.0;
  const CVec X = fft(x);
  for (const Cplx& v : X) {
    EXPECT_NEAR(v.real(), 1.0, 1e-12);
    EXPECT_NEAR(v.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, SingleToneLandsInOneBin) {
  const std::size_t n = 64;
  const std::size_t k0 = 5;
  CVec x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double ang = kTwoPi * static_cast<double>(k0 * i) / static_cast<double>(n);
    x[i] = {std::cos(ang), std::sin(ang)};
  }
  const CVec X = fft(x);
  for (std::size_t k = 0; k < n; ++k) {
    if (k == k0) {
      EXPECT_NEAR(std::abs(X[k]), static_cast<double>(n), 1e-9);
    } else {
      EXPECT_NEAR(std::abs(X[k]), 0.0, 1e-9);
    }
  }
}

TEST(Fft, RoundTripIsIdentity) {
  Rng rng(7);
  for (std::size_t n : {2u, 8u, 64u, 256u, 1024u}) {
    CVec x(n);
    for (Cplx& v : x) v = rng.cgaussian(1.0);
    const CVec y = ifft(fft(x));
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(std::abs(y[i] - x[i]), 0.0, 1e-10) << "n=" << n << " i=" << i;
    }
  }
}

TEST(Fft, ParsevalHolds) {
  Rng rng(11);
  const std::size_t n = 128;
  CVec x(n);
  for (Cplx& v : x) v = rng.cgaussian(2.0);
  const CVec X = fft(x);
  double pt = 0.0, pf = 0.0;
  for (const Cplx& v : x) pt += std::norm(v);
  for (const Cplx& v : X) pf += std::norm(v);
  EXPECT_NEAR(pf, pt * static_cast<double>(n), 1e-6 * pf);
}

TEST(Fft, LinearityHolds) {
  Rng rng(3);
  const std::size_t n = 32;
  CVec a(n), b(n), sum(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = rng.cgaussian(1.0);
    b[i] = rng.cgaussian(1.0);
    sum[i] = 2.0 * a[i] + Cplx{0.0, 3.0} * b[i];
  }
  const CVec A = fft(a), B = fft(b), S = fft(sum);
  for (std::size_t k = 0; k < n; ++k) {
    const Cplx expect = 2.0 * A[k] + Cplx{0.0, 3.0} * B[k];
    EXPECT_NEAR(std::abs(S[k] - expect), 0.0, 1e-9);
  }
}

TEST(Fft, ShiftCentersDc) {
  CVec x = {Cplx{0.0, 0}, Cplx{1.0, 0}, Cplx{2.0, 0}, Cplx{3.0, 0}};
  const CVec y = fftshift(x);
  EXPECT_DOUBLE_EQ(y[0].real(), 2.0);
  EXPECT_DOUBLE_EQ(y[1].real(), 3.0);
  EXPECT_DOUBLE_EQ(y[2].real(), 0.0);
  EXPECT_DOUBLE_EQ(y[3].real(), 1.0);
}

TEST(Fft, InPlaceMatchesOutOfPlace) {
  Rng rng(5);
  const std::size_t n = 64;
  CVec x(n);
  for (Cplx& v : x) v = rng.cgaussian(1.0);
  const Fft engine(n);
  const CVec ref = engine.forward(std::span<const Cplx>(x));
  CVec inplace = x;
  engine.forward(std::span<Cplx>(inplace));
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(std::abs(inplace[i] - ref[i]), 0.0, 1e-12);
}

/// One n-point transform written out independently of dsp::Fft: a
/// bit-reversed copy of `in`, the kernel oracle's butterflies at one row
/// over twiddles e^{-j 2 pi k / n} (conjugated for the inverse), and the
/// inverse's 1/n scale.
CVec reference_row(const Cplx* in, std::size_t n, bool inverse) {
  std::size_t log2n = 0;
  while ((std::size_t{1} << log2n) < n) ++log2n;
  CVec row(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t r = 0;
    for (std::size_t b = 0; b < log2n; ++b)
      if (i & (std::size_t{1} << b)) r |= std::size_t{1} << (log2n - 1 - b);
    row[i] = in[r];
  }
  CVec twiddle(n / 2);
  for (std::size_t k = 0; k < n / 2; ++k) {
    const double ang = -kTwoPi * static_cast<double>(k) / static_cast<double>(n);
    twiddle[k] = {std::cos(ang), std::sin(ang)};
    if (inverse) twiddle[k] = std::conj(twiddle[k]);
  }
  kernels::ref::fft_butterflies_batch(row.data(), 1, n, twiddle.data());
  if (inverse) {
    const double s = 1.0 / static_cast<double>(n);
    for (Cplx& v : row) v *= s;
  }
  return row;
}

void expect_rows_equal(const Cplx* got, const CVec& want, const char* what,
                       std::size_t m, std::size_t r) {
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].real(), want[i].real())
        << what << " m=" << m << " r=" << r << " i=" << i;
    EXPECT_EQ(got[i].imag(), want[i].imag())
        << what << " m=" << m << " r=" << r << " i=" << i;
  }
}

TEST(Fft, ForwardBatchMatchesPerRowExactly) {
  Rng rng(21);
  const std::size_t n = 64;
  const Fft engine(n);
  for (const std::size_t m : {1u, 8u, 32u}) {
    for (const std::size_t stride : {n, std::size_t{80}}) {
      // Lay rows out `stride` apart, as the OFDM symbol matrix does.
      CVec in((m - 1) * stride + n);
      for (Cplx& v : in) v = rng.cgaussian(1.0);
      CVec batch(m * n);
      engine.forward_batch(in.data(), stride, batch.data(), m);
      for (std::size_t r = 0; r < m; ++r) {
        const CVec want = reference_row(in.data() + r * stride, n, false);
        expect_rows_equal(batch.data() + r * n, want, "batch", m, r);
        CVec row(n);
        engine.forward(std::span<const Cplx>(in.data() + r * stride, n),
                       std::span<Cplx>(row));
        expect_rows_equal(row.data(), want, "single", m, r);
      }
    }
  }
}

TEST(Fft, InverseBatchMatchesPerRowExactly) {
  Rng rng(22);
  const std::size_t n = 64;
  const Fft engine(n);
  for (const std::size_t m : {1u, 8u, 32u}) {
    CVec in(m * n);
    for (Cplx& v : in) v = rng.cgaussian(1.0);
    CVec batch(m * n);
    engine.inverse_batch(in.data(), n, batch.data(), m);
    for (std::size_t r = 0; r < m; ++r) {
      const CVec want = reference_row(in.data() + r * n, n, true);
      expect_rows_equal(batch.data() + r * n, want, "batch", m, r);
      CVec row(n);
      engine.inverse(std::span<const Cplx>(in.data() + r * n, n),
                     std::span<Cplx>(row));
      expect_rows_equal(row.data(), want, "single", m, r);
    }
  }
}

}  // namespace
}  // namespace wlansim::dsp
