// FIR filter design (windowed-sinc) and streaming FIR filtering.
#pragma once

#include <cstddef>
#include <span>

#include "dsp/types.h"
#include "dsp/window.h"

namespace wlansim::dsp {

/// Lowpass FIR taps via windowed sinc. `cutoff_norm` is the -6 dB cutoff as
/// a fraction of the sample rate (0 < cutoff_norm < 0.5). `taps` must be odd.
RVec design_lowpass_fir(std::size_t taps, double cutoff_norm,
                        WindowType window = WindowType::kHamming,
                        double kaiser_beta = 8.6);

/// Kaiser-designed lowpass meeting `atten_db` stopband attenuation with the
/// given transition width (fraction of fs). Tap count chosen automatically.
RVec design_kaiser_lowpass(double cutoff_norm, double transition_norm,
                           double atten_db);

/// Streaming FIR filter over complex samples with real taps. Keeps state
/// across process() calls so a long signal can be filtered in chunks.
///
/// The delay line is stored twice back to back so the newest-to-oldest
/// window is always contiguous: no modulo in the inner loop and the
/// compiler can vectorize the dot product. Summation order matches the
/// classic circular implementation (taps ascending, samples newest first),
/// so results are bit-identical to it.
class FirFilter {
 public:
  explicit FirFilter(RVec taps);

  std::size_t num_taps() const { return taps_.size(); }
  const RVec& taps() const { return taps_; }

  /// Group delay in samples ((taps-1)/2 for the symmetric designs above).
  double group_delay() const {
    return (static_cast<double>(taps_.size()) - 1.0) / 2.0;
  }

  /// Filter one sample.
  Cplx step(Cplx in);

  /// Filter a block; output has the same length (streaming convolution).
  CVec process(std::span<const Cplx> in);

  /// Filter a block into a caller-provided buffer (`out.size()` must equal
  /// `in.size()`; `out` may alias `in` for in-place use). Allocation-free.
  void process_into(std::span<const Cplx> in, std::span<Cplx> out);

  /// Filter a block but evaluate only every `decim`-th output (input phase
  /// 0), writing ceil(in.size()/decim) samples to `out`. The delay line
  /// advances for every input, so the kept outputs are bit-identical to
  /// step()-ing each sample and keeping indices i % decim == 0.
  void process_decim_into(std::span<const Cplx> in, std::size_t decim,
                          std::span<Cplx> out);

  /// Clear the delay line.
  void reset();

  /// Complex frequency response at normalized frequency f (fraction of fs,
  /// may be negative).
  Cplx response(double f_norm) const;

 private:
  RVec taps_;
  CVec delay_;       // doubled delay line (size 2 * num_taps)
  std::size_t pos_;  // newest-sample index, in [0, num_taps)
};

/// Streaming FIR with complex taps — needed for baseband-equivalent
/// responses of passband systems, which are not conjugate-symmetric.
class CFirFilter {
 public:
  explicit CFirFilter(CVec taps);

  std::size_t num_taps() const { return taps_.size(); }
  const CVec& taps() const { return taps_; }

  Cplx step(Cplx in);
  CVec process(std::span<const Cplx> in);

  /// Filter a block into a caller-provided buffer (`out.size()` must equal
  /// `in.size()`; `out` may alias `in`). Allocation-free once the
  /// convolution work buffers are warm.
  ///
  /// Buffers much longer than the tap count are evaluated by FFT
  /// overlap-save block convolution (the direct complex dot costs ~8
  /// scalar flops per tap per sample; the black-box surrogate's 61-tap
  /// linear part dominates its runtime otherwise). The result is the same
  /// filter to within FFT rounding (~1e-15 relative), but unlike step(),
  /// the exact floating-point values depend on how the stream is split
  /// into calls. The delay line is kept consistent, so mixing step() and
  /// block calls is fine.
  void process_into(std::span<const Cplx> in, std::span<Cplx> out);

  void reset();

  /// Complex frequency response at normalized frequency f (may be
  /// negative).
  Cplx response(double f_norm) const;

 private:
  void build_ols();  // lazily set up the overlap-save engine

  CVec taps_;
  CVec delay_;       // doubled delay line (size 2 * num_taps)
  std::size_t pos_;  // newest-sample index, in [0, num_taps)

  // Overlap-save state, built on the first long process_into() call.
  std::size_t ols_n_ = 0;  // FFT size (0 until built)
  std::size_t ols_l_ = 0;  // new samples per block (= ols_n_ - taps + 1)
  CVec ols_h_;             // FFT of the zero-padded taps
  CVec ols_x_;             // staging: [taps-1 history | <= ols_l_ new]
  CVec ols_f_;             // frequency-domain work buffer
  CVec ols_y_;             // time-domain block output
};

}  // namespace wlansim::dsp
