#include "sim/cosim.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace wlansim::sim {

CosimRfReceiver::CosimRfReceiver(const rf::DoubleConversionConfig& rf_cfg,
                                 const CosimConfig& cosim_cfg, dsp::Rng rng)
    : cfg_(cosim_cfg) {
  if (cfg_.analog_oversample == 0)
    throw std::invalid_argument("CosimRfReceiver: zero oversample");

  rf::DoubleConversionConfig fine = rf_cfg;
  fine.sample_rate_hz =
      rf_cfg.sample_rate_hz * static_cast<double>(cfg_.analog_oversample);
  // The analog transient drops the noise functions unless supported
  // (white_noise/flicker_noise limitation, paper §4.3).
  fine.noise_enabled = rf_cfg.noise_enabled && cfg_.supports_noise_functions;
  // AGC/ADC loop rates are per-sample quantities; rescale the loop so the
  // behavior matches the system-rate model.
  fine.agc.attack_db_per_sample /= static_cast<double>(cfg_.analog_oversample);
  fine.agc.decay_db_per_sample /= static_cast<double>(cfg_.analog_oversample);
  fine.agc.loop_gain /= static_cast<double>(cfg_.analog_oversample);
  fine.agc.detector_time_const *= static_cast<double>(cfg_.analog_oversample);

  // A width-1 receiver whose fine chain keeps the rngs forked from `rng`.
  analog_ = std::make_unique<rf::DoubleConversionReceiver>(fine, rng);
  lane_prev_.assign(2, 0.0);
  lane_fine_.resize(2 * cfg_.analog_oversample);
}

void CosimRfReceiver::handshake() {
  // Event synchronization handshake between the two simulators.
  double h = 0.0;
  for (std::size_t k = 0; k < cfg_.sync_overhead_ops; ++k)
    h += std::sqrt(static_cast<double>(k + 1));
  sync_sink_ = h;
}

void CosimRfReceiver::reset() {
  analog_->reset();
  std::fill(lane_prev_.begin(), lane_prev_.end(), 0.0);
  analog_steps_ = 0;
}

void CosimRfReceiver::begin_lanes(std::size_t nl) {
  analog_->begin_lanes(nl);
  lane_prev_.assign(2 * nl, 0.0);
  lane_fine_.resize(2 * nl * cfg_.analog_oversample);
  analog_steps_ = 0;
}

void CosimRfReceiver::process_tile_lanes(double* soa, std::size_t n,
                                         std::size_t nl) {
  const std::size_t r = cfg_.analog_oversample;
  const std::size_t w = 2 * nl;
  double* prev = lane_prev_.data();
  double* fine = lane_fine_.data();
  for (std::size_t i = 0; i < n; ++i) {
    double* row = soa + i * w;
    // Event synchronization: one handshake per packet per system sample.
    for (std::size_t l = 0; l < nl; ++l) handshake();

    // First-order hold, rail by rail: the analog solver sees a continuous
    // ramp between consecutive digital samples.
    for (std::size_t k = 0; k < r; ++k) {
      const double a =
          (static_cast<double>(k) + 1.0) / static_cast<double>(r);
      double* f = fine + k * w;
      for (std::size_t c = 0; c < w; ++c)
        f[c] = prev[c] + a * (row[c] - prev[c]);
    }
    std::copy(row, row + w, prev);

    analog_->process_tile_lanes(fine, r, nl);
    analog_steps_ += r;
    // The value at the synchronization boundary: the last fine row.
    std::copy(fine + (r - 1) * w, fine + r * w, row);
  }
}

}  // namespace wlansim::sim
