// IIR filtering: biquad cascades with classic analog-prototype designs
// (Butterworth, Chebyshev type I) mapped through the bilinear transform.
//
// These model the channel-selection and DC-blocking filters of the RF
// receiver chain. Chebyshev-I lowpass is the paper's Fig. 5 subject
// ("impact of the chebyshev filter bandwidth to the BER").
#pragma once

#include <cstddef>
#include <span>

#include "dsp/types.h"

namespace wlansim::dsp {

/// Second-order section with real coefficients, direct form II transposed.
/// Filters complex samples (applied independently to I and Q).
struct Biquad {
  // y[n] = b0 x[n] + b1 x[n-1] + b2 x[n-2] - a1 y[n-1] - a2 y[n-2]
  double b0 = 1.0, b1 = 0.0, b2 = 0.0;
  double a1 = 0.0, a2 = 0.0;

  Cplx s1{0.0, 0.0}, s2{0.0, 0.0};  // state

  Cplx step(Cplx x);
  void reset() { s1 = s2 = Cplx{0.0, 0.0}; }

  /// Complex response at normalized frequency f (fraction of fs).
  Cplx response(double f_norm) const;
};

/// Cascade of biquads with an overall scalar gain.
class BiquadCascade {
 public:
  BiquadCascade() = default;
  BiquadCascade(std::vector<Biquad> sections, double gain)
      : sections_(std::move(sections)), gain_(gain) {}

  std::size_t num_sections() const { return sections_.size(); }
  double gain() const { return gain_; }
  /// Coefficient access for the width-W packet-lane path, which runs the
  /// same sections over SoA rails with external per-lane state.
  const std::vector<Biquad>& sections() const { return sections_; }

  Cplx step(Cplx x);
  CVec process(std::span<const Cplx> in);

  /// Filter a block into a caller-provided buffer (`out.size()` must equal
  /// `in.size()`; `out` may alias `in`). Allocation-free.
  void process_into(std::span<const Cplx> in, std::span<Cplx> out);

  void reset();

  Cplx response(double f_norm) const;

 private:
  std::vector<Biquad> sections_;
  double gain_ = 1.0;
};

/// Butterworth lowpass: `order` poles, -3 dB at `cutoff_norm` (fraction of
/// fs, in (0, 0.5)).
BiquadCascade design_butterworth_lowpass(std::size_t order, double cutoff_norm);

/// Butterworth highpass, -3 dB at `cutoff_norm`.
BiquadCascade design_butterworth_highpass(std::size_t order, double cutoff_norm);

/// Chebyshev type-I lowpass with `ripple_db` passband ripple; the passband
/// edge (where the response first leaves the ripple band) is `edge_norm`.
BiquadCascade design_chebyshev1_lowpass(std::size_t order, double ripple_db,
                                        double edge_norm);

}  // namespace wlansim::dsp
