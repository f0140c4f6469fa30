#include "dsp/fir.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dsp/fft.h"
#include "dsp/kernels.h"
#include "dsp/mathutil.h"

namespace wlansim::dsp {

namespace {

void check_design(std::size_t taps, double cutoff_norm) {
  if (taps < 3 || taps % 2 == 0)
    throw std::invalid_argument("FIR design: taps must be odd and >= 3");
  if (cutoff_norm <= 0.0 || cutoff_norm >= 0.5)
    throw std::invalid_argument("FIR design: cutoff must be in (0, 0.5)");
}

}  // namespace

RVec design_lowpass_fir(std::size_t taps, double cutoff_norm, WindowType window,
                        double kaiser_beta) {
  check_design(taps, cutoff_norm);
  const RVec w = make_window(window, taps, kaiser_beta);
  RVec h(taps);
  const double m = (static_cast<double>(taps) - 1.0) / 2.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < taps; ++i) {
    const double t = static_cast<double>(i) - m;
    h[i] = 2.0 * cutoff_norm * sinc(2.0 * cutoff_norm * t) * w[i];
    sum += h[i];
  }
  // Normalize to unity DC gain.
  for (double& v : h) v /= sum;
  return h;
}

RVec design_kaiser_lowpass(double cutoff_norm, double transition_norm,
                           double atten_db) {
  const std::size_t taps = kaiser_length(atten_db, transition_norm);
  const double beta = kaiser_beta_for_attenuation(atten_db);
  return design_lowpass_fir(taps, cutoff_norm, WindowType::kKaiser, beta);
}

FirFilter::FirFilter(RVec taps) : taps_(std::move(taps)), pos_(0) {
  if (taps_.empty()) throw std::invalid_argument("FirFilter: empty taps");
  delay_.assign(2 * taps_.size(), Cplx{0.0, 0.0});
}

Cplx FirFilter::step(Cplx in) {
  const std::size_t n = taps_.size();
  pos_ = (pos_ == 0) ? n - 1 : pos_ - 1;
  delay_[pos_] = delay_[pos_ + n] = in;
  // delay_[pos_ + k] is the k-th most recent sample: contiguous window,
  // taps ascending — the same summation order as a circular delay line.
  const Cplx* w = delay_.data() + pos_;
  double re = 0.0, im = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    re += taps_[k] * w[k].real();
    im += taps_[k] * w[k].imag();
  }
  return {re, im};
}

CVec FirFilter::process(std::span<const Cplx> in) {
  CVec out(in.size());
  process_into(in, out);
  return out;
}

void FirFilter::process_into(std::span<const Cplx> in, std::span<Cplx> out) {
  // Same per-sample arithmetic as step(), block-wise on the kernel layer.
  pos_ = kernels::fir_stream(taps_.data(), taps_.size(), delay_.data(), pos_,
                             in.data(), in.size(), out.data());
}

void FirFilter::process_decim_into(std::span<const Cplx> in, std::size_t decim,
                                   std::span<Cplx> out) {
  pos_ = kernels::fir_stream_decim(taps_.data(), taps_.size(), delay_.data(),
                                   pos_, in.data(), in.size(), decim,
                                   out.data());
}

void FirFilter::reset() {
  delay_.assign(2 * taps_.size(), Cplx{0.0, 0.0});
  pos_ = 0;
}

Cplx FirFilter::response(double f_norm) const {
  Cplx acc{0.0, 0.0};
  for (std::size_t k = 0; k < taps_.size(); ++k) {
    const double ang = -kTwoPi * f_norm * static_cast<double>(k);
    acc += taps_[k] * Cplx{std::cos(ang), std::sin(ang)};
  }
  return acc;
}

CFirFilter::CFirFilter(CVec taps) : taps_(std::move(taps)), pos_(0) {
  if (taps_.empty()) throw std::invalid_argument("CFirFilter: empty taps");
  delay_.assign(2 * taps_.size(), Cplx{0.0, 0.0});
}

#if defined(__GNUC__) && !defined(__clang__)
// GCC 12's tree vectorizer turns the four-chain complex dot product below
// into shuffle-heavy SSE2 (unpck/movhpd per element plus accumulator
// spills) that runs ~2x slower than the scalar chains; keep it scalar.
__attribute__((optimize("no-tree-vectorize")))
#endif
Cplx CFirFilter::step(Cplx in) {
  const std::size_t n = taps_.size();
  pos_ = (pos_ == 0) ? n - 1 : pos_ - 1;
  delay_[pos_] = delay_[pos_ + n] = in;
  const Cplx* w = delay_.data() + pos_;
  const Cplx* t = taps_.data();
  // Four stride-4 partial chains per rail, combined as (a0+a1)+(a2+a3):
  // a single loop-carried accumulator pair serializes the 61-tap black-box
  // filter on one add latency per tap, which dominates the surrogate's
  // runtime. The chain structure is fixed (step and process_into agree bit
  // for bit), not a build-dependent reassociation.
  double re[4] = {0.0, 0.0, 0.0, 0.0};
  double im[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    for (std::size_t l = 0; l < 4; ++l) {
      const double tr = t[k + l].real(), ti = t[k + l].imag();
      const double xr = w[k + l].real(), xi = w[k + l].imag();
      re[l] += tr * xr - ti * xi;
      im[l] += tr * xi + ti * xr;
    }
  }
  for (; k < n; ++k) {
    const double tr = t[k].real(), ti = t[k].imag();
    const double xr = w[k].real(), xi = w[k].imag();
    re[0] += tr * xr - ti * xi;
    im[0] += tr * xi + ti * xr;
  }
  return {(re[0] + re[1]) + (re[2] + re[3]),
          (im[0] + im[1]) + (im[2] + im[3])};
}

CVec CFirFilter::process(std::span<const Cplx> in) {
  CVec out(in.size());
  process_into(in, out);
  return out;
}

void CFirFilter::build_ols() {
  const std::size_t n = taps_.size();
  // Smallest power of two giving a valid-block length of at least ~7x the
  // overlap: FFT cost per output sample is flat across nearby sizes, so
  // just keep the overlap fraction small.
  std::size_t fft_n = 64;
  while (fft_n < 8 * n) fft_n *= 2;
  ols_n_ = fft_n;
  ols_l_ = fft_n - (n - 1);
  CVec padded(fft_n, Cplx{0.0, 0.0});
  std::copy(taps_.begin(), taps_.end(), padded.begin());
  ols_h_ = fft_plan(fft_n).forward(std::span<const Cplx>(padded));
  ols_x_.assign(fft_n, Cplx{0.0, 0.0});
  ols_f_.assign(fft_n, Cplx{0.0, 0.0});
  ols_y_.assign(fft_n, Cplx{0.0, 0.0});
}

void CFirFilter::process_into(std::span<const Cplx> in, std::span<Cplx> out) {
  const std::size_t n = taps_.size();
  const std::size_t m = in.size();
  if (m < 8 * n) {  // short call: direct evaluation is cheaper than FFTs
    for (std::size_t i = 0; i < m; ++i) out[i] = step(in[i]);
    return;
  }
  if (ols_n_ == 0) build_ols();
  const std::size_t ov = n - 1;
  const Fft& plan = fft_plan(ols_n_);
  // Seed the staging history with the delay line in chronological order
  // (w[0] is the newest sample), so the block path continues the stream.
  const Cplx* w = delay_.data() + pos_;
  for (std::size_t k = 0; k < ov; ++k) ols_x_[k] = w[ov - 1 - k];
  std::size_t done = 0;
  while (done < m) {
    const std::size_t take = std::min(ols_l_, m - done);
    // Copy this block's inputs into staging before writing any of its
    // outputs: with out aliasing in, previously written outputs all lie
    // strictly below in[done].
    std::copy(in.begin() + done, in.begin() + done + take,
              ols_x_.begin() + ov);
    std::fill(ols_x_.begin() + ov + take, ols_x_.end(), Cplx{0.0, 0.0});
    plan.forward(ols_x_, ols_f_);
    for (std::size_t k = 0; k < ols_n_; ++k) ols_f_[k] *= ols_h_[k];
    plan.inverse(ols_f_, ols_y_);
    // Circular wrap-around only contaminates the first ov outputs; the
    // next `take` are the exact linear convolution for this block.
    std::copy(ols_y_.begin() + ov, ols_y_.begin() + ov + take,
              out.begin() + done);
    // Slide: the last ov filled staging samples become the next history.
    std::copy(ols_x_.begin() + take, ols_x_.begin() + take + ov,
              ols_x_.begin());
    done += take;
  }
  // Leave the delay line as a sample-by-sample run would (m >= n here):
  // the ov most recent inputs, newest first, mirrored for the doubled
  // layout. Slot n-1 is never read before the next step() overwrites it.
  // Read them from staging, not `in`, which may alias the outputs.
  pos_ = 0;
  for (std::size_t k = 0; k < ov; ++k)
    delay_[k] = delay_[k + n] = ols_x_[ov - 1 - k];
  delay_[ov] = delay_[ov + n] = Cplx{0.0, 0.0};
}

void CFirFilter::reset() {
  delay_.assign(2 * taps_.size(), Cplx{0.0, 0.0});
  pos_ = 0;
}

Cplx CFirFilter::response(double f_norm) const {
  Cplx acc{0.0, 0.0};
  for (std::size_t k = 0; k < taps_.size(); ++k) {
    const double ang = -kTwoPi * f_norm * static_cast<double>(k);
    acc += taps_[k] * Cplx{std::cos(ang), std::sin(ang)};
  }
  return acc;
}

}  // namespace wlansim::dsp
