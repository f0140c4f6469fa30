// Radix-2 decimation-in-time FFT with cached twiddle tables.
//
// 802.11a OFDM uses 64-point transforms; spectral measurements use up to a
// few thousand points. An iterative radix-2 kernel with per-size twiddle
// caching is sufficient and allocation-free on the hot path.
//
// Hot-path design notes:
//  * every transform runs the one butterfly loop,
//    kernels::fft_butterflies_batch (AVX2-cloned), a single transform as
//    one row;
//  * forward and inverse twiddles are both precomputed, so the butterfly
//    inner loop carries no direction branch and no per-butterfly conj;
//  * the out-of-place transforms copy the input in bit-reversed order,
//    which removes the separate in-place permutation pass;
//  * `fft()`/`ifft()` draw their engine from a process-wide plan cache
//    keyed by size instead of rebuilding twiddle tables per call.
#pragma once

#include <cstddef>
#include <span>

#include "dsp/types.h"

namespace wlansim::dsp {

/// FFT engine for one fixed power-of-two size. Reusable and cheap to copy.
class Fft {
 public:
  /// `n` must be a power of two >= 2.
  explicit Fft(std::size_t n);

  std::size_t size() const { return n_; }

  /// In-place forward transform (engineering sign convention:
  /// X[k] = sum_n x[n] e^{-j 2 pi k n / N}); `x.size()` must equal size().
  void forward(std::span<Cplx> x) const;

  /// In-place inverse transform including the 1/N factor, so that
  /// inverse(forward(x)) == x.
  void inverse(std::span<Cplx> x) const;

  /// Out-of-place transforms into a caller-provided buffer (`out` must not
  /// alias `in`; both sized size()): forward_batch / inverse_batch at
  /// m = 1. Allocation-free.
  void forward(std::span<const Cplx> in, std::span<Cplx> out) const;
  void inverse(std::span<const Cplx> in, std::span<Cplx> out) const;

  /// Out-of-place convenience wrappers.
  CVec forward(std::span<const Cplx> x) const;
  CVec inverse(std::span<const Cplx> x) const;

  /// Batched out-of-place transforms: `m` stacked size()-point transforms
  /// through one twiddle walk (kernels::fft_butterflies_batch). Row r
  /// reads in[r*in_stride .. r*in_stride+size()) in bit-reversed order and
  /// writes the contiguous row out[r*size() ..). Rows are independent, so
  /// each row's result does not depend on m. `in_stride >= size()` lets
  /// callers lift symbol windows straight out of a longer signal (e.g.
  /// 80-sample OFDM symbol spacing) without a gather pass. `out` must not
  /// alias `in`. Allocation-free.
  void forward_batch(const Cplx* in, std::size_t in_stride, Cplx* out,
                     std::size_t m) const;
  void inverse_batch(const Cplx* in, std::size_t in_stride, Cplx* out,
                     std::size_t m) const;

 private:
  /// Bit-reversal permutation of one transform, in place.
  void permute_in_place(std::span<Cplx> x) const;
  /// Bit-reversed copy of m rows (the batch transforms' input pass).
  void permute_rows(const Cplx* in, std::size_t in_stride, Cplx* out,
                    std::size_t m) const;

  std::size_t n_;
  std::vector<std::size_t> bitrev_;
  CVec twiddle_fwd_;  // e^{-j 2 pi k / N}, k = 0..N/2-1
  CVec twiddle_inv_;  // conj(twiddle_fwd_), hoisted out of the inner loop
};

/// Process-wide plan cache: the shared engine for size `n` (power of two
/// >= 2). Thread-safe; the returned reference lives for the process.
const Fft& fft_plan(std::size_t n);

/// One-shot FFT of any power-of-two-length signal (plan-cached).
CVec fft(std::span<const Cplx> x);

/// One-shot inverse FFT (includes 1/N; plan-cached).
CVec ifft(std::span<const Cplx> x);

/// Rotate a spectrum so DC is centered (bin N/2), matching analyzer plots.
CVec fftshift(std::span<const Cplx> x);

/// fftshift for real vectors (e.g. PSD arrays).
RVec fftshift(std::span<const double> x);

}  // namespace wlansim::dsp
