// Noise sources: flicker (1/f) noise and a wandering DC offset. (Thermal
// noise is the amplifier's noise figure; a static offset is the mixer's
// dc_offset.)
//
// These are the behavioral equivalents of the Verilog-A white_noise /
// flicker_noise functions whose absence in the AMS Designer transient
// analysis the paper calls out in §4.3/§5.1.
#pragma once

#include "dsp/iir.h"
#include "dsp/rng.h"
#include "rf/lane_tape.h"
#include "rf/rfblock.h"

namespace wlansim::rf {

/// The flicker source's shaping filter: log-spaced first-order pole/zero
/// sections approximating a -10 dB/decade slope between the corners, then
/// a 2nd-order Butterworth lowpass at the upper corner. Throws
/// std::invalid_argument unless 0 < f_lo < f_hi < fs/2.
std::vector<dsp::Biquad> flicker_sections(double f_lo, double f_hi,
                                          double fs);

/// The drive standard deviation that makes `sections` (designed for these
/// corners and rate) output `power_watts`, from a fixed-seed calibration
/// measured once per shape in the process; 0 for power_watts <= 0.
double flicker_drive_sigma(double power_watts,
                           const std::vector<dsp::Biquad>& sections,
                           double corner_low_hz, double corner_high_hz,
                           double sample_rate_hz);

/// Additive 1/f (flicker) noise: white noise shaped by a cascade of
/// first-order sections approximating a -10 dB/decade slope between
/// `corner_low_hz` and `corner_high_hz`. `power_watts` is the total added
/// power integrated over that band.
class FlickerNoiseSource : public RfBlock {
 public:
  FlickerNoiseSource(double power_watts, double corner_low_hz,
                     double corner_high_hz, double sample_rate_hz,
                     dsp::Rng rng);

  void reset() override;
  std::string name() const override { return "flicker_noise"; }

  /// Per-lane drive draws + stage-outer lanes_biquad shaping, or the shaped
  /// noise replayed from the lanes' tapes.
  void begin_lanes(std::size_t nl) override;
  void process_tile_lanes(double* soa, std::size_t n, std::size_t nl) override;
  /// Per-lane drive generator (see Amplifier::set_lane_rng). The
  /// calibration in the constructor uses its own fixed-seed rng, so
  /// reset() plus this makes a persistent source equivalent to a fresh one.
  void set_lane_rng(std::size_t lane, dsp::Rng rng) { lane_rng_[lane] = rng; }
  /// Per-lane shaped-noise tape (see rf/lane_tape.h). An empty tape records
  /// the lane's noise after the shaping filter, stamped with this source's
  /// shape. When every lane holds a complete tape of that shape, a tile adds
  /// the taped noise and runs no draw and no filter section; otherwise every
  /// lane draws from its rng, and a tape of another shape is left as it is.
  void set_lane_tape(std::size_t lane, ShapedNoiseTape* tape) {
    lane_tape_[lane] = tape;
  }

 private:
  /// Bit patterns of (power, lower corner, upper corner, sample rate): with
  /// the unit normals they fix the shaped noise exactly.
  NoiseShape shape_;
  double drive_sigma_;
  std::vector<dsp::Biquad> stages_;  ///< coefficients; registers per lane
  dsp::RVec rscratch_;  ///< per-tile unit normals for the bulk fill
  dsp::RVec w_soa_;     ///< per-tile SoA noise stream
  dsp::RVec lane_state_;  ///< per-stage s1/s2 rows (4*nl doubles each)
  std::vector<dsp::Rng> lane_rng_;
  std::vector<ShapedNoiseTape*> lane_tape_;
  std::vector<std::size_t> lane_tape_pos_;
  std::vector<const double*> lane_units_;  ///< per-lane tile pointers
};

/// Slowly wandering complex offset: LO leakage reflecting off the moving
/// environment self-mixes into a baseband product that drifts within
/// `bandwidth_hz` of DC. At zero IF it lands inside the occupied signal
/// (no servo fast enough removes it without eating the signal); in the
/// paper's half-RF double conversion the same product appears between the
/// stages where the interstage high-pass kills it before it can reach the
/// baseband in-band.
class WanderingDcSource : public RfBlock {
 public:
  WanderingDcSource(double rms_amplitude, double bandwidth_hz,
                    double sample_rate_hz, dsp::Rng rng);

  void reset() override;
  std::string name() const override { return "wandering_dc"; }

  /// Width 1 only: the zero-IF receiver that uses it is built per packet.
  /// begin_lanes() and process_tile_lanes() throw std::invalid_argument
  /// for any other width.
  void begin_lanes(std::size_t nl) override;
  void process_tile_lanes(double* soa, std::size_t n, std::size_t nl) override;

  /// Replace the rng and redo the construction-time draw of the walk's
  /// start, so the source behaves exactly like a new one.
  void reseed(dsp::Rng rng);

 private:
  double rms_;
  double alpha_;       ///< one-pole smoothing factor
  double drive_std_;   ///< per-sample drive giving the target RMS
  dsp::Cplx state_{0.0, 0.0};
  dsp::Rng rng_;
  dsp::RVec scratch_;  ///< per-tile unit normals for the bulk fill
};

}  // namespace wlansim::rf
