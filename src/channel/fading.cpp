#include "channel/fading.h"

#include <cmath>
#include <stdexcept>

#include "dsp/kernels.h"
#include "dsp/mathutil.h"

namespace wlansim::channel {

FadingConfig environment_config(Environment env, double sample_rate_hz) {
  FadingConfig cfg;
  cfg.sample_rate_hz = sample_rate_hz;
  switch (env) {
    case Environment::kFlat: cfg.rms_delay_spread_s = 0.0; break;
    case Environment::kResidential: cfg.rms_delay_spread_s = 15e-9; break;
    case Environment::kOffice: cfg.rms_delay_spread_s = 50e-9; break;
    case Environment::kLargeOffice: cfg.rms_delay_spread_s = 100e-9; break;
    case Environment::kOpenSpace: cfg.rms_delay_spread_s = 150e-9; break;
  }
  return cfg;
}

MultipathChannel::MultipathChannel(const FadingConfig& cfg, dsp::Rng& rng) {
  if (cfg.rms_delay_spread_s < 0.0 || cfg.sample_rate_hz <= 0.0)
    throw std::invalid_argument("MultipathChannel: bad config");
  const double ts = 1.0 / cfg.sample_rate_hz;
  if (cfg.rms_delay_spread_s < ts / 10.0) {
    // Effectively flat: single Rayleigh tap.
    taps_ = {rng.cgaussian(1.0)};
  } else {
    // Exponential profile p_k ~ exp(-k Ts / tau), truncated.
    const double tau = cfg.rms_delay_spread_s;
    const std::size_t ntaps = static_cast<std::size_t>(
        std::ceil(-std::log(cfg.truncation) * tau / ts)) + 1;
    taps_.resize(ntaps);
    double norm = 0.0;
    for (std::size_t k = 0; k < ntaps; ++k) {
      const double p = std::exp(-static_cast<double>(k) * ts / tau);
      taps_[k] = rng.cgaussian(p);
      norm += p;
    }
    if (cfg.normalize) {
      const double g = 1.0 / std::sqrt(norm);
      for (auto& t : taps_) t *= g;
    }
  }
}

MultipathChannel::MultipathChannel(dsp::CVec taps) : taps_(std::move(taps)) {
  if (taps_.empty())
    throw std::invalid_argument("MultipathChannel: empty taps");
}

dsp::CVec MultipathChannel::apply(std::span<const dsp::Cplx> in) const {
  dsp::CVec out(in.size());
  apply_into(in, std::span<dsp::Cplx>(out));
  return out;
}

void MultipathChannel::apply_into(std::span<const dsp::Cplx> in,
                                  std::span<dsp::Cplx> out) const {
  if (out.size() != in.size())
    throw std::invalid_argument("MultipathChannel: output size mismatch");
  dsp::kernels::cfir_conv(taps_.data(), taps_.size(), in.data(), in.size(),
                          out.data());
}

dsp::Cplx MultipathChannel::response(double f_norm) const {
  dsp::Cplx acc{0.0, 0.0};
  for (std::size_t k = 0; k < taps_.size(); ++k) {
    const double ang = -dsp::kTwoPi * f_norm * static_cast<double>(k);
    acc += taps_[k] * dsp::Cplx{std::cos(ang), std::sin(ang)};
  }
  return acc;
}

}  // namespace wlansim::channel
