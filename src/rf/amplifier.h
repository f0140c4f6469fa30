// Behavioral amplifier: gain, thermal noise (noise figure), and a
// memoryless envelope nonlinearity (Rapp SSPA or clipped-cubic) with
// optional AM/PM conversion.
//
// This is the model whose compression point the paper sweeps in Fig. 6
// ("ratio between compression point and BER with and without adjacent
// channel") and whose IP3 it examines in §4.1.
#pragma once

#include "dsp/rng.h"
#include "rf/rfblock.h"

namespace wlansim::rf {

enum class NonlinearityModel {
  kLinear,       ///< no compression (ideal)
  kRapp,         ///< smooth saturating SSPA model
  kClippedCubic  ///< third-order polynomial, hard-limited at saturation
};

struct AmplifierConfig {
  std::string label = "amp";
  double gain_db = 20.0;
  double noise_figure_db = 0.0;      ///< 0 = noiseless
  NonlinearityModel model = NonlinearityModel::kRapp;
  /// Input-referred 1 dB compression point [dBm]; ignored for kLinear.
  double p1db_in_dbm = -20.0;
  double rapp_smoothness = 2.0;      ///< Rapp "p" parameter
  /// AM/PM conversion: maximum phase deviation approached in saturation
  /// [degrees]; 0 disables. (The paper notes SpectreRF models include
  /// AM/PM while SPW models need extra blocks — §6.)
  double am_pm_max_deg = 0.0;
  bool noise_enabled = true;         ///< master switch (AMS noise gap, §5.1)
};

class Amplifier : public RfBlock {
 public:
  Amplifier(const AmplifierConfig& cfg, double sample_rate_hz, dsp::Rng rng);

  std::string name() const override { return cfg_.label; }

  /// Every model, per lane: the additive noise (per-lane draws), then the
  /// envelope map.
  void begin_lanes(std::size_t nl) override;
  void process_tile_lanes(double* soa, std::size_t n, std::size_t nl) override;

  /// Per-lane noise generator: with the rng a fresh block would receive,
  /// lane `lane` reproduces that block.
  void set_lane_rng(std::size_t lane, dsp::Rng rng) { lane_rng_[lane] = rng; }

  /// Optional per-lane unit-normal tape: when the tape already holds this
  /// packet's draws they are replayed instead of regenerated (bit-identical
  /// by construction — the tape was recorded from the same lane rng); when
  /// it is being extended in order, fresh draws are appended. Pass nullptr
  /// (the default after begin_lanes) to always draw.
  void set_lane_tape(std::size_t lane, dsp::RVec* tape) {
    lane_tape_[lane] = tape;
  }

  /// Instantaneous output envelope for input envelope `a` (volts); exposes
  /// the static AM/AM curve for characterization tests.
  double am_am(double a) const;

  /// Static AM/PM phase shift [radians] at input envelope `a`.
  double am_pm(double a) const;

  const AmplifierConfig& config() const { return cfg_; }

  /// Derived input-referred IIP3 estimate [dBm] for the cubic model
  /// (classic 9.6 dB above P1dB); meaningful for kClippedCubic.
  double iip3_dbm() const { return cfg_.p1db_in_dbm + 9.6; }

 private:
  /// Envelope gain (am_am(a)/a) computed from |x|^2, avoiding the per-sample
  /// sqrt of |x|: the Rapp curve only needs the envelope squared, and for
  /// the default smoothness p == 2 the two pow() calls collapse to two
  /// sqrt() (g / (1 + (g^2 n2 / Vsat^2)^2)^(1/4)).
  double rapp_gain_from_norm(double n2) const;

  /// The per-sample maps of the lane loop: the norm-domain Rapp curve (no
  /// AM/PM), and the general envelope map (clipped-cubic, or any model with
  /// AM/PM).
  dsp::Cplx rapp_sample(dsp::Cplx x) const;
  dsp::Cplx envelope_sample(dsp::Cplx x, bool pm_active) const;

  AmplifierConfig cfg_;
  double lin_gain_;       ///< voltage gain
  double a1db_;           ///< input envelope at the compression point
  double vsat_rapp_;      ///< Rapp saturation parameter
  double lin_gain2_;      ///< lin_gain_^2 (hot-loop constant)
  double inv_vsat2_;      ///< 1 / vsat_rapp_^2
  double inv_2p_;         ///< 1 / (2 * rapp_smoothness)
  bool rapp_is_p2_;       ///< smoothness == 2: sqrt-only fast curve
  double cubic_a3_;       ///< cubic coefficient (envelope domain)
  double clip_in_;        ///< cubic model: input clip level
  double noise_power_;    ///< input-referred added noise power [W]
  dsp::RVec noise_scratch_;  ///< per-tile unit normals, lane after lane
  std::vector<dsp::Rng> lane_rng_;
  std::vector<dsp::RVec*> lane_tape_;
  std::vector<std::size_t> lane_tape_pos_;
  std::vector<const double*> lane_units_;  ///< per-lane tile unit pointers
};

}  // namespace wlansim::rf
