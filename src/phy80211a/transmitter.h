// 802.11a PPDU transmitter: PLCP preamble + SIGNAL + DATA
// (IEEE 802.11a-1999, 17.3.2 - 17.3.5). Output is 20 Msps complex baseband.
#pragma once

#include "dsp/types.h"
#include "phy80211a/bits.h"
#include "phy80211a/params.h"
#include "phy80211a/signal_field.h"

namespace wlansim::phy {

/// One frame to transmit.
struct Frame {
  Rate rate = Rate::kMbps6;
  Bytes psdu;  ///< MAC payload, 1..4095 bytes
};

class Transmitter {
 public:
  struct Config {
    std::uint8_t scrambler_seed = 0x5D;  ///< non-zero 7-bit seed
    double output_power_dbm = 0.0;       ///< mean power of the DATA portion
    /// Raised-cosine time-domain window overlap between OFDM symbols, in
    /// samples (Std 17.3.2.4's optional pulse shaping; smooths symbol
    /// transitions and improves the transmit spectral mask). 0 disables.
    /// Must stay a few samples below the cyclic prefix so receivers with a
    /// small timing backoff never see the crossfade region.
    std::size_t window_overlap = 0;
    /// PAPR clipping threshold [dB above the mean power]; envelope peaks
    /// beyond it are hard-limited (phase preserved). The classic crest-
    /// factor reduction: buys PA backoff at the price of in-band clipping
    /// noise (TX EVM) and spectral regrowth. <= 0 disables.
    double clip_papr_db = 0.0;
  };

  Transmitter();
  explicit Transmitter(Config cfg);

  /// Full PPDU: 320-sample preamble, SIGNAL symbol, N DATA symbols.
  /// Runs the batched pipeline (fused interleave+map gather into a flat
  /// points buffer, one batch IFFT over every DATA symbol, one-pass
  /// CP/window assembly). When `points` is given, the gather writes the
  /// DATA symbols' constellation points there, 48 a symbol in symbol order
  /// (the ideal reference of EVM measurement), reusing its capacity.
  dsp::CVec modulate(const Frame& frame, dsp::CVec* points = nullptr) const;

  /// The scrambled DATA-field bits after padding, before the convolutional
  /// encoder (one bit per trellis step), exposed for tests against the
  /// standard's reference flow.
  Bits encode_data_field(const Frame& frame) const;

  const Config& config() const { return cfg_; }

 private:
  Config cfg_;
};

}  // namespace wlansim::phy
