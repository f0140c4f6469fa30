#include "rf/blackbox.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dsp/kernels.h"
#include "dsp/mathutil.h"
#include "rf/analyses.h"

namespace wlansim::rf {

namespace {

/// Run one tone through the DUT (after reset) and return the complex gain.
dsp::Cplx tone_gain(RfBlock& dut, double f_norm, double amp,
                    std::size_t settle, std::size_t n) {
  const std::size_t total = settle + n;
  dsp::CVec x(total);
  for (std::size_t i = 0; i < total; ++i) {
    const double ang = dsp::kTwoPi * f_norm * static_cast<double>(i);
    x[i] = amp * dsp::Cplx{std::cos(ang), std::sin(ang)};
  }
  dut.reset();
  const dsp::CVec y = dut.process(x);
  const std::span<const dsp::Cplx> settled(y.data() + settle, n);
  // Projection carries the phase of the settled window start: the input
  // tone at the window start has phase 2*pi*f*settle, divide it out.
  const dsp::Cplx out = tone_amplitude(settled, f_norm);
  const double ang0 = dsp::kTwoPi * f_norm * static_cast<double>(settle);
  const dsp::Cplx in0 = amp * dsp::Cplx{std::cos(ang0), std::sin(ang0)};
  return out / in0;
}

}  // namespace

dsp::CVec fit_complex_fir(const dsp::CVec& h) {
  const std::size_t t = h.size();
  if (t < 3 || t % 2 == 0)
    throw std::invalid_argument("fit_complex_fir: need an odd tap count >= 3");
  const double dcenter = (static_cast<double>(t) - 1.0) / 2.0;

  // Estimate the bulk group delay from the phase slope across strong bins
  // and re-center it so the impulse response fits the tap span.
  double dsum = 0.0, wsum = 0.0;
  double hmax = 0.0;
  for (const auto& v : h) hmax = std::max(hmax, std::abs(v));
  for (std::size_t k = 0; k + 1 < t; ++k) {
    const double w = std::min(std::abs(h[k]), std::abs(h[k + 1]));
    if (w < 0.1 * hmax) continue;
    const double dphi = std::arg(h[k + 1] * std::conj(h[k]));
    // Adjacent grid spacing is 1/T of fs: delay d gives dphi = -2 pi d / T.
    dsum += w * (-dphi * static_cast<double>(t) / dsp::kTwoPi);
    wsum += w;
  }
  const double bulk = wsum > 0.0 ? dsum / wsum : dcenter;
  const double shift = bulk - dcenter;  // delay to remove

  // Target response G_k = H_k * e^{+j 2 pi f_k shift}; then taps are the
  // inverse DFT on the centered grid f_k = (k - (t-1)/2)/t.
  dsp::CVec taps(t, dsp::Cplx{0.0, 0.0});
  for (std::size_t n = 0; n < t; ++n) {
    dsp::Cplx acc{0.0, 0.0};
    for (std::size_t k = 0; k < t; ++k) {
      const double fk = (static_cast<double>(k) - dcenter) / static_cast<double>(t);
      const dsp::Cplx g = h[k] * dsp::Cplx{std::cos(dsp::kTwoPi * fk * shift),
                                           std::sin(dsp::kTwoPi * fk * shift)};
      const double ang = dsp::kTwoPi * fk * static_cast<double>(n);
      acc += g * dsp::Cplx{std::cos(ang), std::sin(ang)};
    }
    taps[n] = acc / static_cast<double>(t);
  }
  return taps;
}

BlackBoxData extract_blackbox(RfBlock& dut, const ExtractionConfig& cfg) {
  if (cfg.fir_taps < 3 || cfg.fir_taps % 2 == 0)
    throw std::invalid_argument("extract_blackbox: fir_taps must be odd >= 3");
  BlackBoxData data;
  data.sample_rate_hz = cfg.sample_rate_hz;

  // --- small-signal frequency response on the uniform grid ---------------
  const std::size_t t = cfg.fir_taps;
  const double amp = std::sqrt(dsp::dbm_to_watts(cfg.smallsig_dbm));
  const double dcenter = (static_cast<double>(t) - 1.0) / 2.0;
  data.freq_hz.resize(t);
  data.h.resize(t);
  for (std::size_t k = 0; k < t; ++k) {
    const double fn = (static_cast<double>(k) - dcenter) / static_cast<double>(t);
    data.freq_hz[k] = fn * cfg.sample_rate_hz;
    data.h[k] =
        tone_gain(dut, fn, amp, cfg.settle_samples, cfg.tone_samples);
  }

  // --- envelope transfer at the reference frequency ----------------------
  const double fref_n =
      std::round(cfg.env_ref_hz / cfg.sample_rate_hz * static_cast<double>(t)) /
      static_cast<double>(t);
  dsp::Cplx g_small{0.0, 0.0};
  for (std::size_t i = 0; i < cfg.num_env_points; ++i) {
    const double dbm =
        cfg.env_start_dbm + (cfg.env_stop_dbm - cfg.env_start_dbm) *
                                static_cast<double>(i) /
                                static_cast<double>(cfg.num_env_points - 1);
    const double a = std::sqrt(dsp::dbm_to_watts(dbm));
    const dsp::Cplx g =
        tone_gain(dut, fref_n, a, cfg.settle_samples, cfg.tone_samples);
    if (i == 0) g_small = g;
    data.env_in.push_back(a);
    data.env_out.push_back(std::abs(g) * a);
    data.env_phase.push_back(std::arg(g * std::conj(g_small)));
  }

  // --- output noise -------------------------------------------------------
  dut.reset();
  dsp::CVec zeros(cfg.settle_samples + cfg.tone_samples, dsp::Cplx{0.0, 0.0});
  const dsp::CVec y = dut.process(zeros);
  double acc = 0.0;
  for (std::size_t i = cfg.settle_samples; i < y.size(); ++i)
    acc += std::norm(y[i]);
  data.noise_power = acc / static_cast<double>(cfg.tone_samples);

  return data;
}

std::shared_ptr<const BlackBoxFit> fit_blackbox(BlackBoxData data) {
  if (data.h.empty() || data.env_in.empty())
    throw std::invalid_argument("BlackBoxModel: empty extraction data");
  auto fit = std::make_shared<BlackBoxFit>();
  // Normalize the linear part to unit gain at the envelope reference (the
  // nonlinearity carries the absolute gain there). Reference gain =
  // small-signal envelope gain.
  const double gref = data.env_out.front() / data.env_in.front();
  dsp::CVec hn = data.h;
  for (auto& v : hn) v /= gref;
  fit->taps = fit_complex_fir(hn);
  fit->data = std::move(data);
  return fit;
}

BlackBoxModel::BlackBoxModel(std::shared_ptr<const BlackBoxFit> fit,
                             dsp::Rng rng)
    : fit_(std::move(fit)), filter_(fit_->taps), rng_(rng) {}

BlackBoxModel::BlackBoxModel(BlackBoxData data, dsp::Rng rng)
    : BlackBoxModel(fit_blackbox(std::move(data)), rng) {}

void BlackBoxModel::nl_gain_phase(double a, double* g, double* phi) const {
  const auto& xin = fit_->data.env_in;
  const auto& xout = fit_->data.env_out;
  const auto& ph = fit_->data.env_phase;
  if (a <= xin.front()) {
    *g = xout.front() / xin.front();
    *phi = ph.front();
    return;
  }
  if (a >= xin.back()) {
    *g = xout.back() / xin.back();
    *phi = ph.back();
    return;
  }
  const auto it = std::upper_bound(xin.begin(), xin.end(), a);
  const std::size_t i = static_cast<std::size_t>(it - xin.begin());
  const double w = (a - xin[i - 1]) / (xin[i] - xin[i - 1]);
  const double out = xout[i - 1] + w * (xout[i] - xout[i - 1]);
  *g = out / a;
  *phi = ph[i - 1] + w * (ph[i] - ph[i - 1]);
}

double BlackBoxModel::am_am_gain(double a) const {
  double g, phi;
  nl_gain_phase(a, &g, &phi);
  return g;
}

double BlackBoxModel::am_pm(double a) const {
  double g, phi;
  nl_gain_phase(a, &g, &phi);
  return phi;
}

void BlackBoxModel::begin_lanes(std::size_t nl) {
  if (nl != 1)
    throw std::invalid_argument("BlackBoxModel: runs at width 1 only");
}

void BlackBoxModel::process_tile_lanes(double* soa, std::size_t n,
                                       std::size_t nl) {
  begin_lanes(nl);
  // Three passes over the tile instead of one interleaved per-sample loop:
  // the nonlinearity is sample-local, the filter state consumes only the
  // NL outputs in order, and the noise stream is independent of the
  // signal. Note the linear part is evaluated by block convolution, whose
  // rounding depends on the call partition (see CFirFilter::process_into)
  // — this block is exempt from the tiling rule, as the RfBlock doc allows
  // for black-box models.
  const std::span<dsp::Cplx> x(reinterpret_cast<dsp::Cplx*>(soa), n);
  for (dsp::Cplx& v : x) {
    // sqrt(norm) instead of std::abs: the envelope range here is far from
    // over/underflow, and hypot's extra rounding care costs ~3x per sample.
    const double a = std::sqrt(std::norm(v));
    if (a > 0.0) {
      double g, phi;
      nl_gain_phase(a, &g, &phi);
      v = v * g * dsp::Cplx{std::cos(phi), std::sin(phi)};
    } else {
      v = dsp::Cplx{0.0, 0.0};
    }
  }
  filter_.process_into(x, x);
  if (fit_->data.noise_power > 0.0) {
    // Bulk form of x += cgaussian(p): the same stream drawn 2n at a time,
    // and s*u per rail with s = sqrt(p/2), as cgaussian evaluates it.
    noise_scratch_.resize(2 * n);
    rng_.fill_gaussian(noise_scratch_.data(), noise_scratch_.size());
    const double* units = noise_scratch_.data();
    dsp::kernels::lanes_add_scaled_pairs_multi(
        soa, n, 1, std::sqrt(fit_->data.noise_power / 2.0), &units);
  }
}

void BlackBoxModel::reset() { filter_.reset(); }

}  // namespace wlansim::rf
