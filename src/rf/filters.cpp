#include "rf/filters.h"

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

// Width-W form of BiquadCascade::process_into: gain pre-scale pass, then
// stage-outer lanes_biquad over all 2*nl rails with the section states
// carried in `state` (4*nl doubles per section, +0.0 after begin_lanes —
// exactly a reset() scalar cascade per lane).
void cascade_begin_lanes(const dsp::BiquadCascade& c, dsp::RVec& state,
                         std::size_t nl) {
  state.assign(c.num_sections() * 4 * nl, 0.0);
}

void cascade_lanes(const dsp::BiquadCascade& c, dsp::RVec& state, double* soa,
                   std::size_t n, std::size_t nl) {
  dsp::kernels::scale(soa, 2 * n * nl, c.gain());
  double* st = state.data();
  for (const dsp::Biquad& s : c.sections()) {
    dsp::kernels::lanes_biquad(soa, n, nl, s.b0, s.b1, s.b2, s.a1, s.a2, st);
    st += 4 * nl;
  }
}
}  // namespace

ChebyshevLowpass::ChebyshevLowpass(std::size_t order, double ripple_db,
                                   double edge_hz, double sample_rate_hz,
                                   std::string label)
    : label_(std::move(label)),
      edge_hz_(edge_hz),
      sample_rate_hz_(sample_rate_hz),
      filt_(dsp::design_chebyshev1_lowpass(
          order, ripple_db, checked_norm(edge_hz, sample_rate_hz))) {}

dsp::CVec ChebyshevLowpass::process(std::span<const dsp::Cplx> in) {
  return filt_.process(in);
}

void ChebyshevLowpass::process_into(std::span<const dsp::Cplx> in,
                                    dsp::CVec& out) {
  out.resize(in.size());
  filt_.process_into(in, std::span<dsp::Cplx>(out.data(), out.size()));
}

void ChebyshevLowpass::process_tile(std::span<const dsp::Cplx> in,
                                    std::span<dsp::Cplx> out) {
  filt_.process_into(in, out);
}

void ChebyshevLowpass::begin_lanes(std::size_t nl) {
  cascade_begin_lanes(filt_, lane_state_, nl);
}

void ChebyshevLowpass::process_tile_lanes(double* soa, std::size_t n, std::size_t nl) {
  cascade_lanes(filt_, lane_state_, soa, n, nl);
}

double ChebyshevLowpass::magnitude_at(double f_hz) const {
  return std::abs(filt_.response(f_hz / sample_rate_hz_));
}

DcBlockHighpass::DcBlockHighpass(std::size_t order, double cutoff_hz,
                                 double sample_rate_hz, std::string label)
    : label_(std::move(label)),
      cutoff_hz_(cutoff_hz),
      filt_(dsp::design_butterworth_highpass(
          order, checked_norm(cutoff_hz, sample_rate_hz))) {}

dsp::CVec DcBlockHighpass::process(std::span<const dsp::Cplx> in) {
  return filt_.process(in);
}

void DcBlockHighpass::process_into(std::span<const dsp::Cplx> in,
                                   dsp::CVec& out) {
  out.resize(in.size());
  filt_.process_into(in, std::span<dsp::Cplx>(out.data(), out.size()));
}

void DcBlockHighpass::process_tile(std::span<const dsp::Cplx> in,
                                   std::span<dsp::Cplx> out) {
  filt_.process_into(in, out);
}

void DcBlockHighpass::begin_lanes(std::size_t nl) {
  cascade_begin_lanes(filt_, lane_state_, nl);
}

void DcBlockHighpass::process_tile_lanes(double* soa, std::size_t n, std::size_t nl) {
  cascade_lanes(filt_, lane_state_, soa, n, nl);
}

ButterworthLowpass::ButterworthLowpass(std::size_t order, double cutoff_hz,
                                       double sample_rate_hz, std::string label)
    : label_(std::move(label)),
      filt_(dsp::design_butterworth_lowpass(
          order, checked_norm(cutoff_hz, sample_rate_hz))) {}

dsp::CVec ButterworthLowpass::process(std::span<const dsp::Cplx> in) {
  return filt_.process(in);
}

void ButterworthLowpass::process_into(std::span<const dsp::Cplx> in,
                                      dsp::CVec& out) {
  out.resize(in.size());
  filt_.process_into(in, std::span<dsp::Cplx>(out.data(), out.size()));
}

void ButterworthLowpass::process_tile(std::span<const dsp::Cplx> in,
                                      std::span<dsp::Cplx> out) {
  filt_.process_into(in, out);
}

void ButterworthLowpass::begin_lanes(std::size_t nl) {
  cascade_begin_lanes(filt_, lane_state_, nl);
}

void ButterworthLowpass::process_tile_lanes(double* soa, std::size_t n, std::size_t nl) {
  cascade_lanes(filt_, lane_state_, soa, n, nl);
}

}  // namespace wlansim::rf
