#include "rf/adc.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dsp/kernels.h"

namespace wlansim::rf {

Adc::Adc(const AdcConfig& cfg) : cfg_(cfg) {
  if (cfg_.bits < 1 || cfg_.bits > 24)
    throw std::invalid_argument("Adc: bits must be 1..24");
  if (cfg_.full_scale <= 0.0)
    throw std::invalid_argument("Adc: full scale must be positive");
  step_ = 2.0 * cfg_.full_scale /
          static_cast<double>((std::size_t{1} << cfg_.bits) - 1);
  inv_step_ = 1.0 / step_;
}

double Adc::quantize(double v) const {
  // Mid-tread rounding, then clip at the rails (the rail value itself need
  // not sit on the quantization grid — it is the saturated output). The
  // reciprocal multiply replaces a ~20-cycle divide; it can pick the
  // neighboring code only when v/step_ rounds within one ulp of a x.5
  // boundary, where the two codes are equally valid quantizations.
  return std::clamp(std::round(v * inv_step_) * step_, -cfg_.full_scale,
                    cfg_.full_scale);
}

void Adc::process_tile_lanes(double* soa, std::size_t n, std::size_t nl) {
  if (!cfg_.enabled) return;
  // Element-wise per rail: the 2*n*nl SoA doubles quantize exactly as the
  // same rails would in AoS order. The kernel computes quantize()'s
  // std::round arithmetically and is pinned bit-identical to it by
  // tests/dsp/test_kernels.cpp.
  dsp::Cplx* samples = reinterpret_cast<dsp::Cplx*>(soa);
  dsp::kernels::quantize_clamp(samples, n * nl, inv_step_, step_,
                               cfg_.full_scale, samples);
}

}  // namespace wlansim::rf
