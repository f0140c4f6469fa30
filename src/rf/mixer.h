// Behavioral mixer at complex baseband: conversion gain, LO frequency
// error, LO phase noise, IQ imbalance, finite image rejection, and LO
// self-mixing DC offset.
//
// The paper's double-conversion receiver (Fig. 2) uses two mixer stages at
// the same 2.6 GHz LO; the first has a benign image (no signal near 0 Hz),
// the second contributes DC offset and flicker noise, which are modeled
// here and removed by the interstage high-pass filters.
#pragma once

#include "dsp/rng.h"
#include "rf/rfblock.h"

namespace wlansim::dsp::kernels {
struct MixParams;
}

namespace wlansim::rf {

/// Lorentzian (Wiener-process) LO phase noise specified the way a datasheet
/// does: L dBc/Hz at a given offset.
struct PhaseNoiseSpec {
  double level_dbc_hz = -200.0;  ///< <= -200 disables
  double offset_hz = 100e3;

  bool enabled() const { return level_dbc_hz > -199.0; }

  /// Equivalent Lorentzian linewidth [Hz]: L(f) ~ df / (pi f^2) for
  /// f >> df, so df = pi f^2 10^{L/10}.
  double linewidth_hz() const;
};

struct MixerConfig {
  std::string label = "mixer";
  double conversion_gain_db = 0.0;
  double lo_offset_hz = 0.0;        ///< LO frequency error (CFO source)
  PhaseNoiseSpec phase_noise;
  double iq_gain_imbalance_db = 0.0;  ///< Q-rail gain relative to I
  double iq_phase_error_deg = 0.0;    ///< quadrature error
  double image_rejection_db = 200.0;  ///< >= 200 = perfect
  dsp::Cplx dc_offset{0.0, 0.0};      ///< LO self-mixing product [sqrt(W)]
  bool noise_enabled = true;          ///< gates phase noise (AMS gap, §5.1)
};

class Mixer : public RfBlock {
 public:
  Mixer(const MixerConfig& cfg, double sample_rate_hz, dsp::Rng rng);

  void reset() override;
  std::string name() const override { return cfg_.label; }

  /// Every lane keeps its own LO phase, phase-noise phase and rng. A config
  /// without LO offset or phase noise keeps no per-lane state at all.
  void begin_lanes(std::size_t nl) override;
  void process_tile_lanes(double* soa, std::size_t n, std::size_t nl) override;

  /// Per-lane phase-noise generator (see Amplifier::set_lane_rng); ignored
  /// by a constant LO.
  void set_lane_rng(std::size_t lane, dsp::Rng rng) {
    if (lane < lane_rng_.size()) lane_rng_[lane] = rng;
  }

  const MixerConfig& config() const { return cfg_; }

 private:
  /// No LO offset and no phase noise: the LO phasor is constant.
  bool constant_lo() const { return pn_sigma_ <= 0.0 && dphi_lo_ == 0.0; }
  dsp::kernels::MixParams mix_params() const;
  /// Fill phase[0..n) with the LO phase of the next n samples and advance
  /// the oscillator state (lo, pn, rng) past them.
  void advance_phase(double& lo, double& pn, dsp::Rng& rng, double* phase,
                     std::size_t n) const;

  MixerConfig cfg_;
  double gain_;
  double dphi_lo_;       ///< LO offset phase increment per sample
  double pn_sigma_;      ///< phase noise random-walk step std dev
  double image_amp_;     ///< conj-term amplitude from image rejection
  double iq_eps_;        ///< Q gain factor
  double iq_phi_;        ///< quadrature phase error [rad]
  dsp::RVec phase_scratch_;  ///< per-sample LO phase (SoA) for the kernel
  dsp::RVec lane_lo_phase_;
  dsp::RVec lane_pn_phase_;
  std::vector<dsp::Rng> lane_rng_;
  dsp::CVec lane_tile_;  ///< one lane's tile, gathered for mix_phase
};

}  // namespace wlansim::rf
