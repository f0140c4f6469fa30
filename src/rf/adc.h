// ADC model: full-scale clipping and uniform quantization on each rail
// (the boundary between the paper's analog RF subsystem and the DSP part,
// Fig. 1 "RF Rx -> ADC").
#pragma once

#include "rf/rfblock.h"

namespace wlansim::rf {

struct AdcConfig {
  std::string label = "adc";
  std::size_t bits = 10;
  /// Full-scale amplitude per rail [sqrt(W)]; inputs beyond clip.
  double full_scale = 1.0;
  bool enabled = true;  ///< false = transparent (ideal infinite-resolution)
};

class Adc : public RfBlock {
 public:
  explicit Adc(const AdcConfig& cfg);

  std::string name() const override { return cfg_.label; }

  /// Quantize one rail value.
  double quantize(double v) const;

  /// quantize_clamp is element-wise per rail, so the SoA buffer quantizes
  /// as n*nl contiguous complex samples.
  void process_tile_lanes(double* soa, std::size_t n, std::size_t nl) override;

  const AdcConfig& config() const { return cfg_; }

 private:
  AdcConfig cfg_;
  double step_;
  double inv_step_;  ///< 1/step_: the hot loop multiplies instead of divides
};

}  // namespace wlansim::rf
