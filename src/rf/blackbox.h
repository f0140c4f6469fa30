// Black-box ("J&K / K-model") extraction of a complete RF subsystem —
// the paper's alternative integration path (§4: "Extraction of a black-box
// model of the complete RF subsystem in SpectreRF simulation which can be
// instantiated in SPW (J&K models)", after Moult & Chen [6]).
//
// The extractor characterizes any RfBlock with tone sweeps:
//   * complex small-signal frequency response H(f) over the band,
//   * static AM/AM and AM/PM envelope transfer at a reference frequency,
//   * output noise power (equivalent white source).
// The extracted BlackBoxModel replays that behavior as
//   y = NL(|x|) * exp(j arg_nl(|x|)) filtered by H(f) + noise,
// i.e. a Hammerstein (static nonlinearity -> linear filter) surrogate.
// It is far cheaper than evaluating the full chain and is accurate in
// exactly the regime the J&K models target: a settled, weakly nonlinear
// front-end.
#pragma once

#include <memory>

#include "dsp/fir.h"
#include "dsp/rng.h"
#include "rf/rfblock.h"

namespace wlansim::rf {

/// Extraction settings.
struct ExtractionConfig {
  double sample_rate_hz = 80e6;
  /// The frequency response is sampled on a uniform grid of `fir_taps`
  /// tones across the whole complex band [-fs/2, fs/2) so the fitted FIR
  /// interpolates it exactly (frequency-sampling design). The grid must be
  /// dense enough for the DUT's sharpest feature (the channel filter edge);
  /// 61 taps at 80 Msps gives ~1.3 MHz spacing.
  std::size_t fir_taps = 61;
  /// Envelope sweep for AM/AM / AM/PM, in dBm at the input.
  double env_start_dbm = -70.0;
  double env_stop_dbm = -10.0;
  std::size_t num_env_points = 25;
  /// Reference frequency for the envelope sweep (inside the passband, away
  /// from the DC notch).
  double env_ref_hz = 2e6;
  /// Drive level for the frequency-response sweep (well below compression).
  double smallsig_dbm = -60.0;
  std::size_t tone_samples = 4096;
  std::size_t settle_samples = 4096;
};

/// The extracted characterization data (inspectable / serializable).
struct BlackBoxData {
  double sample_rate_hz = 0.0;
  /// Sampled small-signal response: freq_hz[i] -> h[i].
  std::vector<double> freq_hz;
  dsp::CVec h;
  /// Envelope transfer at band center: input amplitude -> output amplitude
  /// (through the *normalized* filter) and phase shift.
  std::vector<double> env_in;   ///< input envelope [sqrt(W)]
  std::vector<double> env_out;  ///< output envelope [sqrt(W)]
  std::vector<double> env_phase;  ///< AM/PM [rad]
  /// Equivalent output-referred white noise power [W].
  double noise_power = 0.0;
};

/// Characterize `dut` (resets it repeatedly).
BlackBoxData extract_blackbox(RfBlock& dut, const ExtractionConfig& cfg);

/// The fitted, immutable half of a surrogate: the extracted tables and the
/// linear part's FIR taps, normalized to unit gain at the envelope
/// reference. Fitting designs the FIR, which costs far more than a block's
/// per-packet state, so a link that builds a BlackBoxModel per packet fits
/// once and shares the result.
struct BlackBoxFit {
  BlackBoxData data;
  dsp::CVec taps;
};

/// Fit `data` (throws std::invalid_argument when a table is empty).
std::shared_ptr<const BlackBoxFit> fit_blackbox(BlackBoxData data);

/// Replayable surrogate built from extracted data.
class BlackBoxModel : public RfBlock {
 public:
  /// A model over a shared fit: only the filter delay line and `rng` are
  /// its own.
  BlackBoxModel(std::shared_ptr<const BlackBoxFit> fit, dsp::Rng rng);
  /// A model that fits `data` for itself.
  BlackBoxModel(BlackBoxData data, dsp::Rng rng);

  void reset() override;
  std::string name() const override { return "blackbox"; }

  /// Width 1 only: a link builds one model per packet. begin_lanes() and
  /// process_tile_lanes() throw std::invalid_argument for any other width.
  void begin_lanes(std::size_t nl) override;
  void process_tile_lanes(double* soa, std::size_t n, std::size_t nl) override;

  const BlackBoxData& data() const { return fit_->data; }

  /// Static envelope gain (|out|/|in|) at input envelope `a` —
  /// interpolated from the extracted AM/AM table.
  double am_am_gain(double a) const;

  /// Static phase shift at input envelope `a` [rad].
  double am_pm(double a) const;

 private:
  /// One table walk yielding both the AM/AM gain and the AM/PM shift at
  /// envelope `a` (am_am_gain and am_pm each repeat the same binary
  /// search; the replay loop needs both per sample).
  void nl_gain_phase(double a, double* g, double* phi) const;

  std::shared_ptr<const BlackBoxFit> fit_;
  dsp::CFirFilter filter_;  ///< normalized linear part H(f)/H(f_ref)
  dsp::Rng rng_;
  dsp::RVec noise_scratch_;  ///< per-call unit normals for the bulk fill
};

/// Frequency-sampling FIR fit: `h` sampled on the uniform grid
/// f_k = (k - (T-1)/2) / T of normalized frequency (T = h.size()); the
/// bulk group delay is re-centered to (T-1)/2 taps before inversion.
/// Exposed for tests.
dsp::CVec fit_complex_fir(const dsp::CVec& h);

}  // namespace wlansim::rf
