#include "rf/agc.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "dsp/mathutil.h"

namespace wlansim::rf {

Agc::Agc(const AgcConfig& cfg)
    : cfg_(cfg), alpha_(1.0 / std::max(1.0, cfg.detector_time_const)) {
  if (cfg_.min_gain_db > cfg_.max_gain_db)
    throw std::invalid_argument("Agc: min gain above max gain");
  if (cfg_.attack_db_per_sample < 0.0 || cfg_.decay_db_per_sample < 0.0 ||
      cfg_.loop_gain < 0.0)
    throw std::invalid_argument("Agc: negative loop parameters");
  // Widen the brackets by 1e-9 relative — orders of magnitude beyond the
  // rounding error of dbm_to_watts — so they are a strict superset of the
  // set where the exact dB comparison could unlock. Inside them, skipping
  // the comparison is decision-identical to the exact dB comparison.
  unlock_lo_w_ =
      dsp::dbm_to_watts(cfg_.target_power_dbm - cfg_.unlock_window_db) *
      (1.0 + 1e-9);
  unlock_hi_w_ =
      dsp::dbm_to_watts(cfg_.target_power_dbm + cfg_.unlock_window_db) *
      (1.0 - 1e-9);
  begin_lanes(1);
}

void Agc::begin_lanes(std::size_t nl) {
  lanes_.assign(nl, LaneState{cfg_.initial_gain_db, 0.0,
                              std::numeric_limits<double>::quiet_NaN(), 1.0,
                              false, 0});
}

void Agc::reset() { begin_lanes(lanes_.size()); }

void Agc::process_tile_lanes(double* soa, std::size_t n, std::size_t nl) {
  // Sample-outer, lane-inner: every lane carries its own gain, detector and
  // lock state and makes its own per-sample decisions. The pow/log10 calls
  // are rare (gain memoization, linear-domain unlock brackets).
  const double target_dbm = cfg_.target_power_dbm;
  for (std::size_t i = 0; i < n; ++i) {
    double* re = soa + i * 2 * nl;
    double* im = re + nl;
    for (std::size_t l = 0; l < nl; ++l) {
      LaneState& st = lanes_[l];
      if (st.gain_db != st.cached_gain_db) {
        st.cached_gain_db = st.gain_db;
        st.cached_gain_lin = std::pow(10.0, st.gain_db / 20.0);
      }
      const double yr = st.cached_gain_lin * re[l];
      const double yi = st.cached_gain_lin * im[l];
      re[l] = yr;
      im[l] = yi;

      st.det_power += alpha_ * ((yr * yr + yi * yi) - st.det_power);
      if (st.det_power > 1e-30) {
        if (st.locked) {
          // Level jumped: re-acquire. The cheap linear-domain bracket test
          // rules out an unlock in the common settled case; only near or
          // beyond the window does the exact dB comparison run.
          if (st.det_power < unlock_lo_w_ || st.det_power > unlock_hi_w_) {
            const double err_db = target_dbm - dsp::watts_to_dbm(st.det_power);
            if (std::abs(err_db) > cfg_.unlock_window_db) {
              st.locked = false;
              st.settled_run = 0;
            }
          }
        }
        if (!st.locked) {
          const double err_db = target_dbm - dsp::watts_to_dbm(st.det_power);
          const double step =
              std::clamp(cfg_.loop_gain * err_db, -cfg_.attack_db_per_sample,
                         cfg_.decay_db_per_sample);
          st.gain_db =
              std::clamp(st.gain_db + step, cfg_.min_gain_db, cfg_.max_gain_db);
          if (cfg_.lock_count > 0) {
            if (std::abs(err_db) < cfg_.lock_window_db) {
              if (++st.settled_run >= cfg_.lock_count) st.locked = true;
            } else {
              st.settled_run = 0;
            }
          }
        }
      }
    }
  }
}

}  // namespace wlansim::rf
