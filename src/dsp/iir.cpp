#include "dsp/iir.h"

#include <cmath>
#include <stdexcept>

#include "dsp/mathutil.h"

namespace wlansim::dsp {

Cplx Biquad::step(Cplx x) {
  // Direct form II transposed.
  const Cplx y = b0 * x + s1;
  s1 = b1 * x - a1 * y + s2;
  s2 = b2 * x - a2 * y;
  return y;
}

Cplx Biquad::response(double f_norm) const {
  const double w = kTwoPi * f_norm;
  const Cplx z1{std::cos(-w), std::sin(-w)};  // z^-1
  const Cplx z2 = z1 * z1;
  return (b0 + b1 * z1 + b2 * z2) / (1.0 + a1 * z1 + a2 * z2);
}

Cplx BiquadCascade::step(Cplx x) {
  Cplx y = gain_ * x;
  for (Biquad& s : sections_) y = s.step(y);
  return y;
}

CVec BiquadCascade::process(std::span<const Cplx> in) {
  CVec out(in.size());
  process_into(in, out);
  return out;
}

void BiquadCascade::process_into(std::span<const Cplx> in,
                                 std::span<Cplx> out) {
  // Stage-outer: each section streams over the whole block with its state
  // and coefficients in registers, instead of walking the section vector
  // per sample. Values are identical to the step() form — every sample
  // still passes through the stages in the same order with the same
  // recurrence; only the iteration order over (sample, stage) changes, and
  // no arithmetic is reassociated.
  const std::size_t n = in.size();
  const Cplx* src = in.data();  // may alias dst (in-place is allowed)
  Cplx* dst = out.data();
  const double g = gain_;
  for (std::size_t i = 0; i < n; ++i) dst[i] = g * src[i];
  for (Biquad& s : sections_) {
    const double b0 = s.b0, b1 = s.b1, b2 = s.b2, a1 = s.a1, a2 = s.a2;
    Cplx s1 = s.s1, s2 = s.s2;
    for (std::size_t i = 0; i < n; ++i) {
      const Cplx x = dst[i];
      const Cplx y = b0 * x + s1;
      s1 = b1 * x - a1 * y + s2;
      s2 = b2 * x - a2 * y;
      dst[i] = y;
    }
    s.s1 = s1;
    s.s2 = s2;
  }
}

void BiquadCascade::reset() {
  for (Biquad& s : sections_) s.reset();
}

Cplx BiquadCascade::response(double f_norm) const {
  Cplx h{gain_, 0.0};
  for (const Biquad& s : sections_) h *= s.response(f_norm);
  return h;
}

namespace {

void check_cutoff(std::size_t order, double cutoff_norm) {
  if (order == 0) throw std::invalid_argument("IIR design: order must be >= 1");
  if (cutoff_norm <= 0.0 || cutoff_norm >= 0.5)
    throw std::invalid_argument("IIR design: cutoff must be in (0, 0.5)");
}

/// Normalized (cutoff 1 rad/s) Butterworth prototype poles, left half plane.
std::vector<Cplx> butterworth_poles(std::size_t order) {
  std::vector<Cplx> p;
  p.reserve(order);
  for (std::size_t k = 0; k < order; ++k) {
    const double theta = kPi / 2.0 + kPi * (2.0 * static_cast<double>(k) + 1.0) /
                                         (2.0 * static_cast<double>(order));
    p.emplace_back(std::cos(theta), std::sin(theta));
  }
  return p;
}

/// Chebyshev-I prototype poles (passband edge at 1 rad/s) and the gain of
/// the prototype at the reference frequency (DC): 1/sqrt(1+eps^2) for even
/// order, 1 for odd.
std::vector<Cplx> chebyshev1_poles(std::size_t order, double ripple_db,
                                   double* ref_gain) {
  const double eps = std::sqrt(std::pow(10.0, ripple_db / 10.0) - 1.0);
  const double mu = std::asinh(1.0 / eps) / static_cast<double>(order);
  std::vector<Cplx> p;
  p.reserve(order);
  for (std::size_t k = 0; k < order; ++k) {
    const double theta = kPi * (2.0 * static_cast<double>(k) + 1.0) /
                         (2.0 * static_cast<double>(order));
    // Poles on an ellipse: -sinh(mu) sin(theta) + j cosh(mu) cos(theta).
    p.emplace_back(-std::sinh(mu) * std::sin(theta),
                   std::cosh(mu) * std::cos(theta));
  }
  *ref_gain = (order % 2 == 0) ? 1.0 / std::sqrt(1.0 + eps * eps) : 1.0;
  return p;
}

/// Map analog prototype poles (cutoff 1 rad/s) to a digital biquad cascade
/// via LP->LP (or LP->HP) frequency transform and the bilinear transform.
/// `ref_gain` is the desired magnitude at DC (lowpass) or Nyquist (highpass).
BiquadCascade realize(const std::vector<Cplx>& proto_poles, double cutoff_norm,
                      bool highpass, double ref_gain) {
  // Prewarp the cutoff for the bilinear transform with fs = 1.
  const double wc = 2.0 * std::tan(kPi * cutoff_norm);
  const double fs2 = 2.0;  // 2 * fs

  std::vector<Cplx> poles;
  poles.reserve(proto_poles.size());
  for (const Cplx& p : proto_poles)
    poles.push_back(highpass ? wc / p : p * wc);

  // The prototype generators emit poles so that index k and index n-1-k are
  // conjugates; pair them from both ends. An odd order leaves one real pole.
  std::vector<Biquad> sections;
  std::size_t lo = 0, hi = poles.size();
  while (hi - lo >= 2) {
    const Cplx p = poles[lo];
    const Cplx zp = (fs2 + p) / (fs2 - p);  // bilinear-mapped z-pole
    Biquad s;
    s.a1 = -2.0 * zp.real();
    s.a2 = std::norm(zp);
    if (highpass) {
      s.b0 = 1.0; s.b1 = -2.0; s.b2 = 1.0;  // zeros at z = +1
    } else {
      s.b0 = 1.0; s.b1 = 2.0; s.b2 = 1.0;   // zeros at z = -1
    }
    sections.push_back(s);
    ++lo;
    --hi;
  }
  if (hi - lo == 1) {
    const Cplx p = poles[lo];
    const double zp = ((fs2 + p) / (fs2 - p)).real();
    Biquad s;
    s.a1 = -zp;
    s.a2 = 0.0;
    s.b0 = 1.0;
    s.b1 = highpass ? -1.0 : 1.0;
    s.b2 = 0.0;
    sections.push_back(s);
  }

  const BiquadCascade unity(sections, 1.0);
  const double fref = highpass ? 0.5 : 0.0;
  const double mag = std::abs(unity.response(fref));
  if (mag <= 0.0) throw std::runtime_error("IIR design: degenerate response");
  return BiquadCascade(std::move(sections), ref_gain / mag);
}

}  // namespace

BiquadCascade design_butterworth_lowpass(std::size_t order, double cutoff_norm) {
  check_cutoff(order, cutoff_norm);
  return realize(butterworth_poles(order), cutoff_norm, /*highpass=*/false, 1.0);
}

BiquadCascade design_butterworth_highpass(std::size_t order, double cutoff_norm) {
  check_cutoff(order, cutoff_norm);
  return realize(butterworth_poles(order), cutoff_norm, /*highpass=*/true, 1.0);
}

BiquadCascade design_chebyshev1_lowpass(std::size_t order, double ripple_db,
                                        double edge_norm) {
  check_cutoff(order, edge_norm);
  if (ripple_db <= 0.0)
    throw std::invalid_argument("Chebyshev design: ripple must be > 0 dB");
  double ref_gain = 1.0;
  const auto poles = chebyshev1_poles(order, ripple_db, &ref_gain);
  return realize(poles, edge_norm, /*highpass=*/false, ref_gain);
}

}  // namespace wlansim::dsp
