// Automatic gain-controlled amplifier: a one-pole power detector drives a
// proportional logarithmic gain loop toward a target output power (the
// "BB Amp" of the paper's Fig. 2). The proportional loop converges without
// the limit cycle a fixed-step (bang-bang) loop exhibits, so the gain is
// quiet once settled and the constellation does not breathe.
#pragma once

#include "rf/rfblock.h"

namespace wlansim::rf {

struct AgcConfig {
  std::string label = "agc";
  double target_power_dbm = 0.0;
  double max_gain_db = 60.0;
  double min_gain_db = -20.0;
  /// Proportional loop gain: dB of gain correction per dB of detector
  /// error per sample. Stability requires loop_gain * detector_time_const
  /// comfortably below 1.
  double loop_gain = 0.005;
  /// Per-sample slew limits [dB]: attack = max gain reduction, decay = max
  /// gain increase.
  double attack_db_per_sample = 0.05;
  double decay_db_per_sample = 0.01;
  /// Power detector averaging constant (samples).
  double detector_time_const = 128.0;
  double initial_gain_db = 0.0;

  /// Auto-lock: once the detector error stays within `lock_window_db` for
  /// `lock_count` consecutive samples the gain freezes (real WLAN AGCs lock
  /// during the PLCP preamble so the constellation does not breathe); a
  /// level jump beyond `unlock_window_db` re-opens the loop. Set
  /// lock_count = 0 to disable.
  double lock_window_db = 1.5;
  std::size_t lock_count = 256;
  double unlock_window_db = 10.0;
};

class Agc : public RfBlock {
 public:
  explicit Agc(const AgcConfig& cfg);

  dsp::CVec process(std::span<const dsp::Cplx> in) override;
  void process_into(std::span<const dsp::Cplx> in, dsp::CVec& out) override;
  void process_tile(std::span<const dsp::Cplx> in,
                    std::span<dsp::Cplx> out) override;
  void reset() override;
  std::string name() const override { return cfg_.label; }

  double current_gain_db() const;

  /// Manual freeze/unfreeze of the loop (in addition to auto-lock).
  void freeze(bool on) { frozen_ = on; }

  /// True once the loop has auto-locked on a settled level.
  bool locked() const { return locked_; }

  /// Lane path: the same per-sample loop, lanes-inner, with fully
  /// independent per-lane loop state initialized as reset() leaves the
  /// scalar block.
  void begin_lanes(std::size_t nl) override;
  void process_tile_lanes(double* soa, std::size_t n, std::size_t nl) override;

 private:
  struct LaneState {
    double gain_db;
    double det_power;
    double cached_gain_db;
    double cached_gain_lin;
    bool locked;
    std::size_t settled_run;
  };
  std::vector<LaneState> lanes_;

  AgcConfig cfg_;
  double gain_db_;
  double det_power_;  ///< smoothed power estimate [W]
  double alpha_;      ///< detector smoothing factor
  bool frozen_ = false;
  bool locked_ = false;
  std::size_t settled_run_ = 0;
  /// pow(10, gain_db_/20) memoized on gain_db_: once the loop locks (or a
  /// step lands on the slew clamp) the gain repeats for long runs and the
  /// per-sample pow() disappears. Keyed on NaN initially so the first
  /// sample always computes.
  double cached_gain_db_;
  double cached_gain_lin_ = 1.0;
  /// Slightly widened linear-domain [W] brackets of the unlock window:
  /// while det_power_ sits inside them the dB-domain unlock test cannot
  /// fire, so the locked steady state skips the per-sample log10; outside
  /// them the exact legacy comparison runs, preserving its boundary.
  double unlock_lo_w_;
  double unlock_hi_w_;
};

}  // namespace wlansim::rf
