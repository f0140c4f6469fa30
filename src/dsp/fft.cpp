#include "dsp/fft.h"

#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "dsp/kernels.h"
#include "dsp/mathutil.h"

namespace wlansim::dsp {

Fft::Fft(std::size_t n) : n_(n) {
  if (!is_pow2(n) || n < 2)
    throw std::invalid_argument("Fft: size must be a power of two >= 2");
  bitrev_.resize(n);
  std::size_t log2n = 0;
  while ((std::size_t{1} << log2n) < n) ++log2n;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t r = 0;
    for (std::size_t b = 0; b < log2n; ++b)
      if (i & (std::size_t{1} << b)) r |= std::size_t{1} << (log2n - 1 - b);
    bitrev_[i] = r;
  }
  twiddle_fwd_.resize(n / 2);
  twiddle_inv_.resize(n / 2);
  for (std::size_t k = 0; k < n / 2; ++k) {
    const double ang = -kTwoPi * static_cast<double>(k) / static_cast<double>(n);
    twiddle_fwd_[k] = {std::cos(ang), std::sin(ang)};
    twiddle_inv_[k] = std::conj(twiddle_fwd_[k]);
  }
}

void Fft::permute_in_place(std::span<Cplx> x) const {
  if (x.size() != n_) throw std::invalid_argument("Fft: size mismatch");
  for (std::size_t i = 0; i < n_; ++i) {
    const std::size_t j = bitrev_[i];
    if (j > i) std::swap(x[i], x[j]);
  }
}

void Fft::forward(std::span<Cplx> x) const {
  permute_in_place(x);
  kernels::fft_butterflies_batch(x.data(), 1, n_, twiddle_fwd_.data());
}

void Fft::inverse(std::span<Cplx> x) const {
  permute_in_place(x);
  kernels::fft_butterflies_batch(x.data(), 1, n_, twiddle_inv_.data());
  const double s = 1.0 / static_cast<double>(n_);
  for (Cplx& v : x) v *= s;
}

void Fft::forward(std::span<const Cplx> in, std::span<Cplx> out) const {
  if (in.size() != n_ || out.size() != n_)
    throw std::invalid_argument("Fft: size mismatch");
  forward_batch(in.data(), n_, out.data(), 1);
}

void Fft::inverse(std::span<const Cplx> in, std::span<Cplx> out) const {
  if (in.size() != n_ || out.size() != n_)
    throw std::invalid_argument("Fft: size mismatch");
  inverse_batch(in.data(), n_, out.data(), 1);
}

void Fft::permute_rows(const Cplx* in, std::size_t in_stride, Cplx* out,
                       std::size_t m) const {
  if (in_stride < n_)
    throw std::invalid_argument("Fft: batch stride below size");
  const std::size_t* __restrict rev = bitrev_.data();
  for (std::size_t r = 0; r < m; ++r) {
    const Cplx* __restrict src = in + r * in_stride;
    Cplx* __restrict dst = out + r * n_;
    for (std::size_t i = 0; i < n_; ++i) dst[i] = src[rev[i]];
  }
}

void Fft::forward_batch(const Cplx* in, std::size_t in_stride, Cplx* out,
                        std::size_t m) const {
  permute_rows(in, in_stride, out, m);
  kernels::fft_butterflies_batch(out, m, n_, twiddle_fwd_.data());
}

void Fft::inverse_batch(const Cplx* in, std::size_t in_stride, Cplx* out,
                        std::size_t m) const {
  permute_rows(in, in_stride, out, m);
  kernels::fft_butterflies_batch(out, m, n_, twiddle_inv_.data());
  const double s = 1.0 / static_cast<double>(n_);
  for (std::size_t i = 0; i < m * n_; ++i) out[i] *= s;
}

CVec Fft::forward(std::span<const Cplx> x) const {
  CVec out(n_);
  forward(x, std::span<Cplx>(out));
  return out;
}

CVec Fft::inverse(std::span<const Cplx> x) const {
  CVec out(n_);
  inverse(x, std::span<Cplx>(out));
  return out;
}

const Fft& fft_plan(std::size_t n) {
  static std::mutex mu;
  static std::map<std::size_t, std::unique_ptr<Fft>>* cache =
      new std::map<std::size_t, std::unique_ptr<Fft>>();  // leaked: immortal
  std::lock_guard<std::mutex> lock(mu);
  auto it = cache->find(n);
  if (it == cache->end())
    it = cache->emplace(n, std::make_unique<Fft>(n)).first;
  return *it->second;
}

CVec fft(std::span<const Cplx> x) { return fft_plan(x.size()).forward(x); }
CVec ifft(std::span<const Cplx> x) { return fft_plan(x.size()).inverse(x); }

CVec fftshift(std::span<const Cplx> x) {
  CVec out(x.size());
  const std::size_t h = x.size() / 2;
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = x[(i + h) % x.size()];
  return out;
}

RVec fftshift(std::span<const double> x) {
  RVec out(x.size());
  const std::size_t h = x.size() / 2;
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = x[(i + h) % x.size()];
  return out;
}

}  // namespace wlansim::dsp
