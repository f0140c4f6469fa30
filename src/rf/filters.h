// RF filter blocks with physical (Hz) parameters: the Chebyshev
// channel-selection lowpass whose bandwidth the paper sweeps in Fig. 5 and
// the interstage DC-blocking high-pass of the double-conversion receiver.
#pragma once

#include "dsp/iir.h"
#include "rf/rfblock.h"

namespace wlansim::rf {

/// True when a filter corner at `f_hz` can be designed at `fs_hz`:
/// fs_hz > 0 and 0 < f_hz / fs_hz < 0.5. Every filter block below throws
/// std::invalid_argument on a corner outside this range.
bool corner_fits_rate(double f_hz, double fs_hz);

/// Chebyshev-I lowpass channel-select filter. The SpectreRF rflib has no
/// wideband bandpass model (paper §4.2), so — exactly like the authors —
/// we realize channel selection with low/high-pass sections.
class ChebyshevLowpass : public RfBlock {
 public:
  ChebyshevLowpass(std::size_t order, double ripple_db, double edge_hz,
                   double sample_rate_hz, std::string label = "bb_lpf");

  dsp::CVec process(std::span<const dsp::Cplx> in) override;
  void process_into(std::span<const dsp::Cplx> in, dsp::CVec& out) override;
  void process_tile(std::span<const dsp::Cplx> in,
                    std::span<dsp::Cplx> out) override;
  void reset() override { filt_.reset(); }
  std::string name() const override { return label_; }

  double edge_hz() const { return edge_hz_; }

  /// Magnitude response at frequency f [Hz].
  double magnitude_at(double f_hz) const;

  void begin_lanes(std::size_t nl) override;
  void process_tile_lanes(double* soa, std::size_t n, std::size_t nl) override;

 private:
  std::string label_;
  double edge_hz_;
  double sample_rate_hz_;
  dsp::BiquadCascade filt_;
  dsp::RVec lane_state_;  ///< per-section s1/s2 rows (4*nl doubles each)
};

/// Butterworth high-pass DC block (removes self-mixing DC offsets and
/// flicker noise between the mixer stages).
class DcBlockHighpass : public RfBlock {
 public:
  DcBlockHighpass(std::size_t order, double cutoff_hz, double sample_rate_hz,
                  std::string label = "hpf");

  dsp::CVec process(std::span<const dsp::Cplx> in) override;
  void process_into(std::span<const dsp::Cplx> in, dsp::CVec& out) override;
  void process_tile(std::span<const dsp::Cplx> in,
                    std::span<dsp::Cplx> out) override;
  void reset() override { filt_.reset(); }
  std::string name() const override { return label_; }

  double cutoff_hz() const { return cutoff_hz_; }

  void begin_lanes(std::size_t nl) override;
  void process_tile_lanes(double* soa, std::size_t n, std::size_t nl) override;

 private:
  std::string label_;
  double cutoff_hz_;
  dsp::BiquadCascade filt_;
  dsp::RVec lane_state_;  ///< per-section s1/s2 rows (4*nl doubles each)
};

/// Butterworth lowpass (anti-alias / generic band limiting).
class ButterworthLowpass : public RfBlock {
 public:
  ButterworthLowpass(std::size_t order, double cutoff_hz,
                     double sample_rate_hz, std::string label = "lpf");

  dsp::CVec process(std::span<const dsp::Cplx> in) override;
  void process_into(std::span<const dsp::Cplx> in, dsp::CVec& out) override;
  void process_tile(std::span<const dsp::Cplx> in,
                    std::span<dsp::Cplx> out) override;
  void reset() override { filt_.reset(); }
  std::string name() const override { return label_; }

  void begin_lanes(std::size_t nl) override;
  void process_tile_lanes(double* soa, std::size_t n, std::size_t nl) override;

 private:
  std::string label_;
  dsp::BiquadCascade filt_;
  dsp::RVec lane_state_;  ///< per-section s1/s2 rows (4*nl doubles each)
};

}  // namespace wlansim::rf
