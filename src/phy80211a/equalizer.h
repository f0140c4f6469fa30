// Channel estimation from the long training field and pilot-based common
// phase error tracking (the "Channel Correction" block of the paper's
// Fig. 1 receiver diagram).
#pragma once

#include <array>
#include <span>

#include "dsp/types.h"
#include "phy80211a/ofdm.h"
#include "phy80211a/params.h"

namespace wlansim::phy {

/// Frequency-domain channel estimate over the 53 occupied carriers
/// (-26..26; index k+26).
struct ChannelEstimate {
  std::array<dsp::Cplx, 53> h{};

  dsp::Cplx at_carrier(int k) const { return h[static_cast<std::size_t>(k + 26)]; }

  /// Per-data-carrier estimate in transmission order.
  std::array<dsp::Cplx, kNumDataCarriers> data_carriers() const;

  /// Per-pilot estimate.
  std::array<dsp::Cplx, kNumPilots> pilot_carriers() const;
};

/// Least-squares estimate from the two 64-sample long training symbols
/// (already time- and frequency-aligned). `lts` must hold 128 samples.
ChannelEstimate estimate_channel(std::span<const dsp::Cplx> lts);

/// Smooth an estimate across carriers with a short moving average
/// (odd `window` >= 1; 1 = no-op). Averaging neighboring carriers reduces
/// the estimation noise by ~window, at the cost of bias when the channel
/// is frequency-selective — the classic smoothing tradeoff, exposed as a
/// receiver option and quantified by bench/ablation_chanest.
ChannelEstimate smooth_channel(const ChannelEstimate& est, std::size_t window);

/// Equalize `nsym` demodulated symbols laid out flat (data[s*48 + i],
/// pilots[s*4 + i]) against `est`, writing points[s*48 + i] and the |H|^2
/// demap weights weights[s*48 + i]. With `track_phase` each symbol's
/// pilot-derived common complex gain error is removed; with `track_timing`
/// too, so is the pilot-derived linear phase slope across carriers
/// (sampling-clock / window drift: a timing shift of d samples rotates
/// carrier k by 2 pi k d / 64, which common-phase tracking cannot absorb).
/// Symbol s expects pilot polarity index first_symbol_index + s (0 =
/// SIGNAL, n+1 = DATA n).
void equalize_symbols(const dsp::Cplx* data, const dsp::Cplx* pilots,
                      std::size_t nsym, std::size_t first_symbol_index,
                      const ChannelEstimate& est, bool track_phase,
                      bool track_timing, dsp::Cplx* points, double* weights);

}  // namespace wlansim::phy
