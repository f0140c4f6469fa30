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

/// A cascade of biquad sections on lanes: a gain pre-scale pass, then each
/// section stage-outer over all 2*nl rails with its registers carried per
/// lane.
class BiquadBlock : public RfBlock {
 public:
  void begin_lanes(std::size_t nl) override;
  void process_tile_lanes(double* soa, std::size_t n, std::size_t nl) override;
  void reset() override;
  std::string name() const override { return label_; }

  /// Magnitude response at frequency f [Hz].
  double magnitude_at(double f_hz) const;

 protected:
  BiquadBlock(dsp::BiquadCascade design, double sample_rate_hz,
              std::string label);

 private:
  std::string label_;
  double sample_rate_hz_;
  dsp::BiquadCascade design_;  ///< coefficients and gain; its state unused
  dsp::RVec lane_state_;       ///< per-section s1/s2 rows (4*nl doubles each)
};

/// Chebyshev-I lowpass channel-select filter. The SpectreRF rflib has no
/// wideband bandpass model (paper §4.2), so — exactly like the authors —
/// we realize channel selection with low/high-pass sections.
class ChebyshevLowpass : public BiquadBlock {
 public:
  ChebyshevLowpass(std::size_t order, double ripple_db, double edge_hz,
                   double sample_rate_hz, std::string label = "bb_lpf");
};

/// Butterworth high-pass DC block (removes self-mixing DC offsets and
/// flicker noise between the mixer stages).
class DcBlockHighpass : public BiquadBlock {
 public:
  DcBlockHighpass(std::size_t order, double cutoff_hz, double sample_rate_hz,
                  std::string label = "hpf");
};

}  // namespace wlansim::rf
