#include "rf_reference.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "dsp/mathutil.h"
#include "kernels_reference.h"
#include "rf/noise.h"

namespace wlansim::rf::ref {

namespace kref = dsp::kernels::ref;

dsp::CVec Block::process(std::span<const dsp::Cplx> in) {
  dsp::CVec out(in.size());
  process_tile(in, out);
  return out;
}

// ---- amplifier ---------------------------------------------------------------

namespace {
const double kComp1dB = 1.0 - std::pow(10.0, -1.0 / 20.0);
}  // namespace

Amplifier::Amplifier(const AmplifierConfig& cfg, double sample_rate_hz,
                     dsp::Rng rng)
    : cfg_(cfg), rng_(rng) {
  lin_gain_ = std::pow(10.0, cfg_.gain_db / 20.0);
  a1db_ = std::sqrt(dsp::dbm_to_watts(cfg_.p1db_in_dbm));
  const double p = cfg_.rapp_smoothness;
  const double t = std::pow(10.0, p / 10.0) - 1.0;
  vsat_rapp_ = lin_gain_ * a1db_ / std::pow(t, 1.0 / (2.0 * p));
  lin_gain2_ = lin_gain_ * lin_gain_;
  inv_vsat2_ = 1.0 / (vsat_rapp_ * vsat_rapp_);
  inv_2p_ = 1.0 / (2.0 * p);
  rapp_is_p2_ = (p == 2.0);
  cubic_a3_ = -kComp1dB / (a1db_ * a1db_);
  clip_in_ = a1db_ / std::sqrt(3.0 * kComp1dB);
  const double f = std::pow(10.0, cfg_.noise_figure_db / 10.0);
  noise_power_ = cfg_.noise_enabled && cfg_.noise_figure_db > 0.0
                     ? dsp::kBoltzmann * dsp::kT0 * sample_rate_hz * (f - 1.0)
                     : 0.0;
}

double Amplifier::rapp_gain_from_norm(double n2) const {
  const double r2 = lin_gain2_ * n2 * inv_vsat2_;
  if (rapp_is_p2_) return lin_gain_ / std::sqrt(std::sqrt(1.0 + r2 * r2));
  return lin_gain_ /
         std::pow(1.0 + std::pow(r2, cfg_.rapp_smoothness), inv_2p_);
}

double Amplifier::am_am(double a) const {
  switch (cfg_.model) {
    case NonlinearityModel::kLinear:
      return lin_gain_ * a;
    case NonlinearityModel::kRapp:
      return a * rapp_gain_from_norm(a * a);
    case NonlinearityModel::kClippedCubic: {
      const double ac = std::min(a, clip_in_);
      return lin_gain_ * (ac + cubic_a3_ * ac * ac * ac);
    }
  }
  throw std::logic_error("Amplifier: bad model");
}

double Amplifier::am_pm(double a) const {
  if (cfg_.am_pm_max_deg == 0.0) return 0.0;
  const double max_rad = cfg_.am_pm_max_deg * dsp::kPi / 180.0;
  const double r = (a * a) / (a1db_ * a1db_);
  return max_rad * r / (1.0 + r);
}

dsp::Cplx Amplifier::rapp_sample(dsp::Cplx x) const {
  const double n2 = x.real() * x.real() + x.imag() * x.imag();
  return x * rapp_gain_from_norm(n2);
}

dsp::Cplx Amplifier::envelope_sample(dsp::Cplx x, bool pm_active) const {
  const double a = std::abs(x);
  if (a <= 0.0) return dsp::Cplx{0.0, 0.0};
  const double g = am_am(a) / a;
  if (!pm_active) return x * g;
  const double phi = am_pm(a);
  return x * g * dsp::Cplx{std::cos(phi), std::sin(phi)};
}

void Amplifier::process_tile(std::span<const dsp::Cplx> in,
                             std::span<dsp::Cplx> out) {
  const std::size_t n = in.size();
  const dsp::Cplx* src = in.data();
  dsp::Cplx* dst = out.data();
  if (noise_power_ > 0.0) {
    if (dst != src) std::copy(src, src + n, dst);
    noise_scratch_.resize(2 * n);
    rng_.fill_gaussian(noise_scratch_.data(), noise_scratch_.size());
    const double s = std::sqrt(noise_power_ / 2.0);
    kref::add_scaled_pairs(dst, n, s, noise_scratch_.data());
    src = dst;
  }
  const bool pm_active = cfg_.am_pm_max_deg != 0.0;
  if (!pm_active && cfg_.model == NonlinearityModel::kRapp) {
    for (std::size_t i = 0; i < n; ++i) dst[i] = rapp_sample(src[i]);
    return;
  }
  if (!pm_active && cfg_.model == NonlinearityModel::kLinear) {
    for (std::size_t i = 0; i < n; ++i) dst[i] = src[i] * lin_gain_;
    return;
  }
  for (std::size_t i = 0; i < n; ++i)
    dst[i] = envelope_sample(src[i], pm_active);
}

// ---- mixer -------------------------------------------------------------------

Mixer::Mixer(const MixerConfig& cfg, double sample_rate_hz, dsp::Rng rng)
    : cfg_(cfg), rng_(rng) {
  gain_ = std::pow(10.0, cfg_.conversion_gain_db / 20.0);
  dphi_lo_ = dsp::kTwoPi * cfg_.lo_offset_hz / sample_rate_hz;
  const double lw = cfg_.phase_noise.linewidth_hz();
  pn_sigma_ = (cfg_.noise_enabled && lw > 0.0)
                  ? std::sqrt(dsp::kTwoPi * lw / sample_rate_hz)
                  : 0.0;
  image_amp_ = cfg_.image_rejection_db >= 200.0
                   ? 0.0
                   : std::pow(10.0, -cfg_.image_rejection_db / 20.0);
  iq_eps_ = std::pow(10.0, cfg_.iq_gain_imbalance_db / 20.0);
  iq_phi_ = cfg_.iq_phase_error_deg * dsp::kPi / 180.0;
}

void Mixer::process_tile(std::span<const dsp::Cplx> in,
                         std::span<dsp::Cplx> out) {
  const std::size_t n = in.size();
  if (n == 0) return;
  dsp::kernels::MixParams p;
  p.gain = gain_;
  p.image_amp = image_amp_;
  p.iq_active = iq_eps_ != 1.0 || iq_phi_ != 0.0;
  p.iq_eps = iq_eps_;
  p.iq_sin = std::sin(iq_phi_);
  p.iq_cos = std::cos(iq_phi_);
  p.dc = cfg_.dc_offset;

  const bool constant_lo = pn_sigma_ <= 0.0 && dphi_lo_ == 0.0;
  if (constant_lo && lo_phase_ <= 64.0 * dsp::kPi) {
    const double phi = lo_phase_ + pn_phase_;
    const dsp::Cplx lo{std::cos(phi), std::sin(phi)};
    kref::mix_const_lo(in.data(), n, lo, p, out.data());
    return;
  }
  phase_scratch_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (pn_sigma_ > 0.0) pn_phase_ += rng_.gaussian(pn_sigma_);
    phase_scratch_[i] = lo_phase_ + pn_phase_;
    lo_phase_ += dphi_lo_;
    if (lo_phase_ > 64.0 * dsp::kPi) lo_phase_ = dsp::wrap_phase(lo_phase_);
    if (pn_phase_ > 64.0 * dsp::kPi || pn_phase_ < -64.0 * dsp::kPi)
      pn_phase_ = dsp::wrap_phase(pn_phase_);
  }
  kref::mix_phase(in.data(), phase_scratch_.data(), n, p, out.data());
}

// ---- filters, AGC, ADC ---------------------------------------------------------

void Biquads::process_tile(std::span<const dsp::Cplx> in,
                           std::span<dsp::Cplx> out) {
  filt_.process_into(in, out);
}

Agc::Agc(const AgcConfig& cfg)
    : cfg_(cfg),
      gain_db_(cfg.initial_gain_db),
      alpha_(1.0 / std::max(1.0, cfg.detector_time_const)),
      cached_gain_db_(std::numeric_limits<double>::quiet_NaN()) {
  unlock_lo_w_ =
      dsp::dbm_to_watts(cfg_.target_power_dbm - cfg_.unlock_window_db) *
      (1.0 + 1e-9);
  unlock_hi_w_ =
      dsp::dbm_to_watts(cfg_.target_power_dbm + cfg_.unlock_window_db) *
      (1.0 - 1e-9);
}

void Agc::process_tile(std::span<const dsp::Cplx> in,
                       std::span<dsp::Cplx> out) {
  const double target_dbm = cfg_.target_power_dbm;
  const dsp::Cplx* src = in.data();
  dsp::Cplx* dst = out.data();
  for (std::size_t i = 0; i < in.size(); ++i) {
    if (gain_db_ != cached_gain_db_) {
      cached_gain_db_ = gain_db_;
      cached_gain_lin_ = std::pow(10.0, gain_db_ / 20.0);
    }
    const dsp::Cplx y = cached_gain_lin_ * src[i];
    dst[i] = y;

    det_power_ += alpha_ * (std::norm(y) - det_power_);
    if (det_power_ > 1e-30) {
      if (locked_) {
        if (det_power_ < unlock_lo_w_ || det_power_ > unlock_hi_w_) {
          const double err_db = target_dbm - dsp::watts_to_dbm(det_power_);
          if (std::abs(err_db) > cfg_.unlock_window_db) {
            locked_ = false;
            settled_run_ = 0;
          }
        }
      }
      if (!locked_) {
        const double err_db = target_dbm - dsp::watts_to_dbm(det_power_);
        const double step =
            std::clamp(cfg_.loop_gain * err_db, -cfg_.attack_db_per_sample,
                       cfg_.decay_db_per_sample);
        gain_db_ =
            std::clamp(gain_db_ + step, cfg_.min_gain_db, cfg_.max_gain_db);
        if (cfg_.lock_count > 0) {
          if (std::abs(err_db) < cfg_.lock_window_db) {
            if (++settled_run_ >= cfg_.lock_count) locked_ = true;
          } else {
            settled_run_ = 0;
          }
        }
      }
    }
  }
}

Adc::Adc(const AdcConfig& cfg) : cfg_(cfg) {
  step_ = 2.0 * cfg_.full_scale /
          static_cast<double>((std::size_t{1} << cfg_.bits) - 1);
  inv_step_ = 1.0 / step_;
}

void Adc::process_tile(std::span<const dsp::Cplx> in,
                       std::span<dsp::Cplx> out) {
  if (!cfg_.enabled) {
    if (out.data() != in.data())
      std::copy(in.begin(), in.end(), out.begin());
    return;
  }
  kref::quantize_clamp(in.data(), in.size(), inv_step_, step_,
                       cfg_.full_scale, out.data());
}

// ---- noise sources -------------------------------------------------------------

FlickerNoise::FlickerNoise(double power_watts, double corner_low_hz,
                           double corner_high_hz, double sample_rate_hz,
                           dsp::Rng rng)
    : stages_(flicker_sections(corner_low_hz, corner_high_hz, sample_rate_hz)),
      rng_(rng) {
  drive_sigma_ = flicker_drive_sigma(power_watts, stages_, corner_low_hz,
                                     corner_high_hz, sample_rate_hz);
}

void FlickerNoise::process_tile(std::span<const dsp::Cplx> in,
                                std::span<dsp::Cplx> out) {
  if (out.data() != in.data())
    std::copy(in.begin(), in.end(), out.begin());
  if (drive_sigma_ <= 0.0) return;
  const std::size_t n = in.size();
  scratch_.resize(n);
  dsp::Cplx* w = scratch_.data();
  rscratch_.resize(2 * n);
  rng_.fill_gaussian(rscratch_.data(), rscratch_.size());
  const double s0 = std::sqrt(1.0 / 2.0);
  for (std::size_t i = 0; i < n; ++i)
    w[i] = dsp::Cplx{s0 * rscratch_[2 * i], s0 * rscratch_[2 * i + 1]} *
           drive_sigma_;
  for (auto& s : stages_) {
    const double b0 = s.b0, b1 = s.b1, b2 = s.b2, a1 = s.a1, a2 = s.a2;
    dsp::Cplx s1 = s.s1, s2 = s.s2;
    for (std::size_t i = 0; i < n; ++i) {
      const dsp::Cplx x = w[i];
      const dsp::Cplx y = b0 * x + s1;
      s1 = b1 * x - a1 * y + s2;
      s2 = b2 * x - a2 * y;
      w[i] = y;
    }
    s.s1 = s1;
    s.s2 = s2;
  }
  for (std::size_t i = 0; i < n; ++i) out[i] += w[i];
}

WanderingDc::WanderingDc(double rms_amplitude, double bandwidth_hz,
                         double sample_rate_hz, dsp::Rng rng)
    : rms_(rms_amplitude), rng_(rng) {
  alpha_ = 1.0 - std::exp(-dsp::kTwoPi * bandwidth_hz / sample_rate_hz);
  const double var_per_rail = rms_ * rms_ / 2.0;
  drive_std_ = std::sqrt(var_per_rail * (2.0 - alpha_) / alpha_);
  state_ = {rng_.gaussian(std::sqrt(var_per_rail)),
            rng_.gaussian(std::sqrt(var_per_rail))};
}

void WanderingDc::process_tile(std::span<const dsp::Cplx> in,
                               std::span<dsp::Cplx> out) {
  if (out.data() != in.data())
    std::copy(in.begin(), in.end(), out.begin());
  if (rms_ <= 0.0) return;
  const std::size_t n = out.size();
  scratch_.resize(2 * n);
  rng_.fill_gaussian(scratch_.data(), scratch_.size());
  dsp::Cplx state = state_;
  for (std::size_t i = 0; i < n; ++i) {
    state += alpha_ * (dsp::Cplx{drive_std_ * scratch_[2 * i],
                                 drive_std_ * scratch_[2 * i + 1]} -
                       state);
    out[i] += state;
  }
  state_ = state;
}

// ---- cascades ------------------------------------------------------------------

void Chain::process_tile(std::span<const dsp::Cplx> in,
                         std::span<dsp::Cplx> out) {
  if (out.data() != in.data())
    std::copy(in.begin(), in.end(), out.begin());
  for (auto& b : blocks_) b->process_tile(out, out);
}

std::unique_ptr<Chain> double_conversion_receiver(
    const DoubleConversionConfig& cfg, dsp::Rng rng) {
  const double fs = cfg.sample_rate_hz;
  auto chain = std::make_unique<Chain>();

  AmplifierConfig lna;
  lna.label = "lna";
  lna.gain_db = cfg.lna_gain_db;
  lna.noise_figure_db = cfg.lna_nf_db;
  lna.model = cfg.lna_model;
  lna.p1db_in_dbm = cfg.lna_p1db_in_dbm;
  lna.am_pm_max_deg = cfg.lna_am_pm_max_deg;
  lna.noise_enabled = cfg.noise_enabled;
  chain->append(std::make_unique<Amplifier>(lna, fs, rng.fork()));

  MixerConfig m1;
  m1.conversion_gain_db = cfg.mixer1_gain_db;
  m1.lo_offset_hz = cfg.lo_offset_hz;
  m1.phase_noise = cfg.lo_phase_noise;
  m1.image_rejection_db = cfg.mixer1_image_rejection_db;
  m1.noise_enabled = cfg.noise_enabled;
  chain->append(std::make_unique<Mixer>(m1, fs, rng.fork()));

  const auto hpf = [&] {
    return std::make_unique<Biquads>(dsp::design_butterworth_highpass(
        cfg.hpf_order, cfg.hpf_cutoff_hz / fs));
  };
  chain->append(hpf());

  MixerConfig m2;
  m2.conversion_gain_db = cfg.mixer2_gain_db;
  m2.dc_offset = cfg.mixer2_dc_offset;
  m2.noise_enabled = cfg.noise_enabled;
  chain->append(std::make_unique<Mixer>(m2, fs, rng.fork()));

  if (cfg.noise_enabled && cfg.mixer2_flicker_power_dbm > -150.0) {
    chain->append(std::make_unique<FlickerNoise>(
        dsp::dbm_to_watts(cfg.mixer2_flicker_power_dbm), 1e3,
        cfg.flicker_corner_hz, fs, rng.fork()));
  }
  chain->append(hpf());
  chain->append(std::make_unique<Biquads>(dsp::design_chebyshev1_lowpass(
      cfg.bb_filter_order, cfg.bb_filter_ripple_db,
      cfg.bb_filter_edge_hz * cfg.bb_bandwidth_factor / fs)));
  chain->append(std::make_unique<Agc>(cfg.agc));
  chain->append(std::make_unique<Adc>(cfg.adc));
  return chain;
}

Cosim::Cosim(const DoubleConversionConfig& rf_cfg, const sim::CosimConfig& cfg,
             dsp::Rng rng)
    : r_(cfg.analog_oversample), fine_(cfg.analog_oversample) {
  const double r = static_cast<double>(r_);
  DoubleConversionConfig fine = rf_cfg;
  fine.sample_rate_hz = rf_cfg.sample_rate_hz * r;
  fine.noise_enabled = rf_cfg.noise_enabled && cfg.supports_noise_functions;
  fine.agc.attack_db_per_sample /= r;
  fine.agc.decay_db_per_sample /= r;
  fine.agc.loop_gain /= r;
  fine.agc.detector_time_const *= r;
  analog_ = double_conversion_receiver(fine, rng);
}

void Cosim::process_tile(std::span<const dsp::Cplx> in,
                         std::span<dsp::Cplx> out) {
  for (std::size_t i = 0; i < in.size(); ++i) {
    const dsp::Cplx x = in[i];
    for (std::size_t k = 0; k < r_; ++k) {
      const double a =
          (static_cast<double>(k) + 1.0) / static_cast<double>(r_);
      fine_[k] = prev_in_ + a * (x - prev_in_);
    }
    prev_in_ = x;
    analog_->process_tile(fine_, fine_);
    out[i] = fine_.back();
  }
}

}  // namespace wlansim::rf::ref
