// Symbol-at-a-time reference implementations of the 802.11a PHY, in the
// test-only `wlansim_reference` library. The shipped `wlansim_phy` runs
// every OFDM symbol, SIGNAL included, through one batch engine (batch
// FFTs, table-driven bin gathers, fused interleave+map gather, demap
// scattered straight into decoder order); these are the per-symbol
// definitions the equivalence tests pin it against, written without the
// batch functions: the interleaver is a scatter through fwd() or inv() and
// the mapper runs point by point.
#pragma once

#include <array>
#include <optional>
#include <span>

#include "dsp/types.h"
#include "phy80211a/equalizer.h"
#include "phy80211a/params.h"
#include "phy80211a/receiver.h"
#include "phy80211a/sync.h"
#include "phy80211a/transmitter.h"

namespace wlansim::phy::ref {

/// Assemble one time-domain OFDM symbol (CP + 64 samples) from 48 data
/// constellation points. `symbol_index` selects the pilot polarity (0 for
/// SIGNAL, n+1 for DATA symbol n).
dsp::CVec ofdm_modulate_symbol(std::span<const dsp::Cplx> data48,
                               std::size_t symbol_index);

/// FFT of one received symbol (64 samples, CP already removed) and
/// extraction of the 48 data bins and 4 pilot bins.
struct DemodulatedSymbol {
  std::array<dsp::Cplx, kNumDataCarriers> data;
  std::array<dsp::Cplx, kNumPilots> pilots;
};
DemodulatedSymbol ofdm_demodulate_symbol(std::span<const dsp::Cplx> time64);

/// Result of equalizing one OFDM data symbol.
struct EqualizedSymbol {
  std::array<dsp::Cplx, kNumDataCarriers> points;   ///< equalized data points
  std::array<double, kNumDataCarriers> weights;     ///< |H|^2 demap weights
  double common_phase_error = 0.0;                  ///< radians, from pilots
  double phase_slope = 0.0;  ///< radians/carrier (timing drift), from pilots
};

/// Equalize a demodulated symbol against `est`, removing the pilot-derived
/// common phase error when `track_phase` is set, and, when `track_timing`
/// is also set, the pilot-derived linear phase slope across carriers.
/// `symbol_index` selects the expected pilot polarity (0 = SIGNAL,
/// n+1 = DATA n).
EqualizedSymbol equalize_symbol(const DemodulatedSymbol& sym,
                                const ChannelEstimate& est,
                                std::size_t symbol_index,
                                bool track_phase = true,
                                bool track_timing = true);

/// O(N*W) packet detection (full window re-sum per position), the semantic
/// definition of phy::detect_packet.
std::optional<DetectionResult> detect_packet(std::span<const dsp::Cplx> rx,
                                             double threshold = 0.6);

/// LTS search by sequential complex accumulation with a full power re-sum
/// per position, the semantic definition of phy::locate_long_training.
std::optional<std::size_t> locate_long_training(std::span<const dsp::Cplx> rx,
                                                std::size_t search_start,
                                                std::size_t search_end);

/// The symbol-at-a-time modulator: per symbol, interleave through fwd(),
/// map point by point and modulate with ofdm_modulate_symbol, SIGNAL
/// first. Equals Transmitter(cfg).modulate(frame) bit for bit.
dsp::CVec modulate(const Transmitter::Config& cfg, const Frame& frame);

/// The symbol-at-a-time receiver: the shipped sync, CFO and channel
/// estimation, then per symbol (SIGNAL, then DATA) ofdm_demodulate_symbol,
/// equalize_symbol, a point-by-point soft demap scattered through inv(),
/// and the shipped decoder. Equals Receiver(cfg).receive(rx) bit for bit.
RxResult receive(const Receiver::Config& cfg, std::span<const dsp::Cplx> rx);

}  // namespace wlansim::phy::ref
