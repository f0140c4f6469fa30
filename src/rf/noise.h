// Noise sources: thermal (white) and flicker (1/f) noise generators.
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

/// Additive white Gaussian noise with a one-sided density of `psd_w_per_hz`
/// watts/Hz over the complex bandwidth fs (total power = psd * fs).
class WhiteNoiseSource : public RfBlock {
 public:
  WhiteNoiseSource(double psd_w_per_hz, double sample_rate_hz, dsp::Rng rng);

  dsp::CVec process(std::span<const dsp::Cplx> in) override;
  void process_into(std::span<const dsp::Cplx> in, dsp::CVec& out) override;
  void process_tile(std::span<const dsp::Cplx> in,
                    std::span<dsp::Cplx> out) override;
  std::string name() const override { return "white_noise"; }

  /// Replace the noise generator (see Amplifier::set_rng).
  void set_rng(dsp::Rng rng) { rng_ = rng; }

  double total_power_watts() const { return power_; }

 private:
  double power_;
  dsp::Rng rng_;
  dsp::RVec scratch_;  ///< per-tile unit normals for the bulk fill
};

/// Additive 1/f (flicker) noise: white noise shaped by a cascade of
/// first-order sections approximating a -10 dB/decade slope between
/// `corner_low_hz` and `corner_high_hz`. `power_watts` is the total added
/// power integrated over that band.
class FlickerNoiseSource : public RfBlock {
 public:
  FlickerNoiseSource(double power_watts, double corner_low_hz,
                     double corner_high_hz, double sample_rate_hz,
                     dsp::Rng rng);

  dsp::CVec process(std::span<const dsp::Cplx> in) override;
  void process_into(std::span<const dsp::Cplx> in, dsp::CVec& out) override;
  void process_tile(std::span<const dsp::Cplx> in,
                    std::span<dsp::Cplx> out) override;
  void reset() override;
  std::string name() const override { return "flicker_noise"; }

  /// Replace the drive generator (the calibration in the constructor uses
  /// its own fixed-seed rng, so reset() + set_rng() makes a persistent
  /// source equivalent to a freshly constructed one).
  void set_rng(dsp::Rng rng) { rng_ = rng; }

  /// Lane path: per-lane drive draws + stage-outer lanes_biquad shaping,
  /// or the shaped noise replayed from the lanes' tapes.
  void begin_lanes(std::size_t nl) override;
  void process_tile_lanes(double* soa, std::size_t n, std::size_t nl) override;
  /// Per-lane drive generator (see Amplifier::set_lane_rng).
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
  std::vector<dsp::Biquad> stages_;
  dsp::Rng rng_;
  dsp::CVec scratch_;   ///< per-tile noise stream for stage-outer shaping
  dsp::RVec rscratch_;  ///< per-tile unit normals for the bulk fill
  dsp::RVec w_soa_;     ///< lane path: per-tile SoA noise stream
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

  dsp::CVec process(std::span<const dsp::Cplx> in) override;
  void process_into(std::span<const dsp::Cplx> in, dsp::CVec& out) override;
  void process_tile(std::span<const dsp::Cplx> in,
                    std::span<dsp::Cplx> out) override;
  void reset() override;
  std::string name() const override { return "wandering_dc"; }

  /// Replace the rng and redo the construction-time draw of the initial
  /// walk state, so the source behaves exactly like a new one.
  void reseed(dsp::Rng rng);

 private:
  double rms_;
  double alpha_;       ///< one-pole smoothing factor
  double drive_std_;   ///< per-sample drive giving the target RMS
  dsp::Cplx state_{0.0, 0.0};
  dsp::Rng rng_;
  dsp::RVec scratch_;  ///< per-tile unit normals for the bulk fill
};

/// Static complex DC offset (e.g. LO self-mixing in the second mixer of
/// the double-conversion receiver).
class DcOffsetSource : public RfBlock {
 public:
  explicit DcOffsetSource(dsp::Cplx offset) : offset_(offset) {}

  dsp::CVec process(std::span<const dsp::Cplx> in) override;
  void process_into(std::span<const dsp::Cplx> in, dsp::CVec& out) override;
  void process_tile(std::span<const dsp::Cplx> in,
                    std::span<dsp::Cplx> out) override;
  std::string name() const override { return "dc_offset"; }

  dsp::Cplx offset() const { return offset_; }

 private:
  dsp::Cplx offset_;
};

}  // namespace wlansim::rf
