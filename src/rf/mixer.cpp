#include "rf/mixer.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dsp/kernels.h"
#include "dsp/mathutil.h"

namespace wlansim::rf {

double PhaseNoiseSpec::linewidth_hz() const {
  if (!enabled()) return 0.0;
  return dsp::kPi * offset_hz * offset_hz * std::pow(10.0, level_dbc_hz / 10.0);
}

Mixer::Mixer(const MixerConfig& cfg, double sample_rate_hz, dsp::Rng rng)
    : cfg_(cfg) {
  if (sample_rate_hz <= 0.0)
    throw std::invalid_argument("Mixer: bad sample rate");
  gain_ = std::pow(10.0, cfg_.conversion_gain_db / 20.0);
  dphi_lo_ = dsp::kTwoPi * cfg_.lo_offset_hz / sample_rate_hz;

  // Wiener phase noise: variance per sample = 2 pi * linewidth / fs.
  const double lw = cfg_.phase_noise.linewidth_hz();
  pn_sigma_ = (cfg_.noise_enabled && lw > 0.0)
                  ? std::sqrt(dsp::kTwoPi * lw / sample_rate_hz)
                  : 0.0;

  image_amp_ = cfg_.image_rejection_db >= 200.0
                   ? 0.0
                   : std::pow(10.0, -cfg_.image_rejection_db / 20.0);
  iq_eps_ = std::pow(10.0, cfg_.iq_gain_imbalance_db / 20.0);
  iq_phi_ = cfg_.iq_phase_error_deg * dsp::kPi / 180.0;
  begin_lanes(1);
  set_lane_rng(0, rng);
}

dsp::kernels::MixParams Mixer::mix_params() const {
  dsp::kernels::MixParams p;
  p.gain = gain_;
  p.image_amp = image_amp_;
  p.iq_active = iq_eps_ != 1.0 || iq_phi_ != 0.0;
  p.iq_eps = iq_eps_;
  p.iq_sin = std::sin(iq_phi_);
  p.iq_cos = std::cos(iq_phi_);
  p.dc = cfg_.dc_offset;
  return p;
}

void Mixer::advance_phase(double& lo, double& pn, dsp::Rng& rng,
                          double* phase, std::size_t n) const {
  for (std::size_t i = 0; i < n; ++i) {
    if (pn_sigma_ > 0.0) pn += rng.gaussian(pn_sigma_);
    phase[i] = lo + pn;
    lo += dphi_lo_;
    if (lo > 64.0 * dsp::kPi) lo = dsp::wrap_phase(lo);
    if (pn > 64.0 * dsp::kPi || pn < -64.0 * dsp::kPi)
      pn = dsp::wrap_phase(pn);
  }
}

void Mixer::reset() {
  std::fill(lane_lo_phase_.begin(), lane_lo_phase_.end(), 0.0);
  std::fill(lane_pn_phase_.begin(), lane_pn_phase_.end(), 0.0);
}

void Mixer::begin_lanes(std::size_t nl) {
  const std::size_t oscillators = constant_lo() ? 0 : nl;
  lane_lo_phase_.assign(oscillators, 0.0);
  lane_pn_phase_.assign(oscillators, 0.0);
  lane_rng_.assign(oscillators, dsp::Rng{});
}

void Mixer::process_tile_lanes(double* soa, std::size_t n, std::size_t nl) {
  const dsp::kernels::MixParams p = mix_params();
  if (constant_lo()) {
    // With no LO offset and no phase noise the LO phasor is the constant
    // {1, 0}: no state advances and no per-sample cos/sin — the bulk of
    // this block's cost in the default receiver chain — is evaluated.
    dsp::kernels::lanes_mix_unity_lo(soa, n, nl, p);
    return;
  }
  // General case, per lane: fill the per-sample phase stream (the
  // sequential part — phase-noise draws and accumulator wrapping) on the
  // lane's own oscillator, then mix element-wise.
  phase_scratch_.resize(n);
  lane_tile_.resize(n);
  for (std::size_t l = 0; l < nl; ++l) {
    advance_phase(lane_lo_phase_[l], lane_pn_phase_[l], lane_rng_[l],
                  phase_scratch_.data(), n);
    dsp::kernels::lanes_unpack(soa, n, nl, l, lane_tile_.data());
    dsp::kernels::mix_phase(lane_tile_.data(), phase_scratch_.data(), n, p,
                            lane_tile_.data());
    dsp::kernels::lanes_pack(lane_tile_.data(), n, nl, l, soa);
  }
}

}  // namespace wlansim::rf
