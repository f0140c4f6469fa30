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

  void reset() override;
  std::string name() const override { return cfg_.label; }

  /// Lane 0's gain [dB].
  double current_gain_db() const { return lanes_[0].gain_db; }

  /// True once lane 0's loop has auto-locked on a settled level.
  bool locked() const { return lanes_[0].locked; }

  /// The per-sample loop, lanes inner, each lane with its own loop state.
  void begin_lanes(std::size_t nl) override;
  void process_tile_lanes(double* soa, std::size_t n, std::size_t nl) override;

 private:
  struct LaneState {
    double gain_db;
    double det_power;  ///< smoothed power estimate [W]
    /// pow(10, gain_db/20) memoized on gain_db: once the loop locks (or a
    /// step lands on the slew clamp) the gain repeats for long runs and the
    /// per-sample pow() disappears. Keyed on NaN initially so the first
    /// sample always computes.
    double cached_gain_db;
    double cached_gain_lin;
    bool locked;
    std::size_t settled_run;
  };

  AgcConfig cfg_;
  double alpha_;      ///< detector smoothing factor
  /// Slightly widened linear-domain [W] brackets of the unlock window:
  /// while a detector sits inside them the dB-domain unlock test cannot
  /// fire, so the locked steady state skips the per-sample log10; outside
  /// them the exact dB comparison runs, preserving its boundary.
  double unlock_lo_w_;
  double unlock_hi_w_;
  std::vector<LaneState> lanes_;
};

}  // namespace wlansim::rf
