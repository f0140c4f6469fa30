#include "rf/filters.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dsp/kernels.h"

namespace wlansim::rf {

bool corner_fits_rate(double f_hz, double fs_hz) {
  const double fn = f_hz / fs_hz;
  return fs_hz > 0.0 && fn > 0.0 && fn < 0.5;
}

namespace {
double checked_norm(double f_hz, double fs_hz) {
  if (fs_hz <= 0.0) throw std::invalid_argument("RF filter: bad sample rate");
  if (!corner_fits_rate(f_hz, fs_hz))
    throw std::invalid_argument("RF filter: corner beyond Nyquist");
  return f_hz / fs_hz;
}
}  // namespace

BiquadBlock::BiquadBlock(dsp::BiquadCascade design, double sample_rate_hz,
                         std::string label)
    : label_(std::move(label)),
      sample_rate_hz_(sample_rate_hz),
      design_(std::move(design)) {
  begin_lanes(1);
}

void BiquadBlock::begin_lanes(std::size_t nl) {
  lane_state_.assign(design_.num_sections() * 4 * nl, 0.0);
}

void BiquadBlock::reset() {
  std::fill(lane_state_.begin(), lane_state_.end(), 0.0);
}

void BiquadBlock::process_tile_lanes(double* soa, std::size_t n,
                                     std::size_t nl) {
  dsp::kernels::scale(soa, 2 * n * nl, design_.gain());
  double* st = lane_state_.data();
  for (const dsp::Biquad& s : design_.sections()) {
    dsp::kernels::lanes_biquad(soa, n, nl, s.b0, s.b1, s.b2, s.a1, s.a2, st);
    st += 4 * nl;
  }
}

double BiquadBlock::magnitude_at(double f_hz) const {
  return std::abs(design_.response(f_hz / sample_rate_hz_));
}

ChebyshevLowpass::ChebyshevLowpass(std::size_t order, double ripple_db,
                                   double edge_hz, double sample_rate_hz,
                                   std::string label)
    : BiquadBlock(dsp::design_chebyshev1_lowpass(
                      order, ripple_db, checked_norm(edge_hz, sample_rate_hz)),
                  sample_rate_hz, std::move(label)) {}

DcBlockHighpass::DcBlockHighpass(std::size_t order, double cutoff_hz,
                                 double sample_rate_hz, std::string label)
    : BiquadBlock(dsp::design_butterworth_highpass(
                      order, checked_norm(cutoff_hz, sample_rate_hz)),
                  sample_rate_hz, std::move(label)) {}

}  // namespace wlansim::rf
