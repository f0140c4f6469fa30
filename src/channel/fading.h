// Block-static frequency-selective fading: an exponentially decaying
// Rayleigh power-delay profile, the standard indoor model for 802.11a
// evaluations (the "fading channel" option of the SPW demo system).
#pragma once

#include <span>

#include "dsp/rng.h"
#include "dsp/types.h"

namespace wlansim::channel {

struct FadingConfig {
  /// RMS delay spread [s]; typical office values are 25..100 ns.
  double rms_delay_spread_s = 50e-9;
  double sample_rate_hz = 20e6;
  /// Taps beyond this energy fraction of the profile are truncated.
  double truncation = 1e-3;
  /// Normalize so the expected channel power gain is one.
  bool normalize = true;
};

/// Standard indoor/office environment presets (RMS delay spreads in the
/// range the 802.11 channel-model work used: flat office through large
/// open space).
enum class Environment {
  kFlat,         ///< no delay spread (single Rayleigh tap)
  kResidential,  ///< ~15 ns RMS
  kOffice,       ///< ~50 ns RMS
  kLargeOffice,  ///< ~100 ns RMS
  kOpenSpace     ///< ~150 ns RMS
};

/// Preset fading configuration for an environment at the given rate.
FadingConfig environment_config(Environment env,
                                double sample_rate_hz = 20e6);

/// One realization of a multipath channel (FIR taps at the sample rate).
class MultipathChannel {
 public:
  /// Draw a new Rayleigh realization from the exponential profile.
  MultipathChannel(const FadingConfig& cfg, dsp::Rng& rng);

  /// Explicit taps (for tests and deterministic scenarios).
  explicit MultipathChannel(dsp::CVec taps);

  const dsp::CVec& taps() const { return taps_; }

  /// Convolve (same-length output; the tail is truncated) on
  /// kernels::cfir_conv: componentwise the std::complex tapped-delay loop.
  dsp::CVec apply(std::span<const dsp::Cplx> in) const;

  /// apply() into a caller-provided buffer (out.size() == in.size(),
  /// no aliasing) — the allocation-free form the packet hot path uses.
  void apply_into(std::span<const dsp::Cplx> in,
                  std::span<dsp::Cplx> out) const;

  /// Frequency response at normalized frequency f (fraction of fs).
  dsp::Cplx response(double f_norm) const;

 private:
  dsp::CVec taps_;
};

}  // namespace wlansim::channel
