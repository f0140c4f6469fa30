// Complete 802.11a receiver (the DSP part of the paper's Fig. 1): packet
// detection, timing/frequency synchronization, OFDM demodulation, channel
// correction, demapping, deinterleaving, depuncturing, Viterbi decoding and
// descrambling. Also provides the genie-aided "ideal receiver" the paper
// uses for EVM measurements (§5.2).
#pragma once

#include <optional>
#include <span>

#include "dsp/types.h"
#include "phy80211a/bits.h"
#include "phy80211a/equalizer.h"
#include "phy80211a/signal_field.h"

namespace wlansim::phy {

/// Outcome of one receive attempt.
struct RxResult {
  bool detected = false;      ///< short-preamble plateau found
  bool header_ok = false;     ///< SIGNAL field decoded and parity passed
  SignalField signal;         ///< decoded header (valid if header_ok)
  Bytes psdu;                 ///< decoded payload (valid if header_ok)
  double cfo_norm = 0.0;      ///< total CFO estimate, cycles/sample
  std::size_t frame_start = 0;  ///< index of the first short-preamble sample
  /// Equalized data constellation points of every DATA symbol, for EVM and
  /// constellation plots.
  std::vector<dsp::CVec> data_points;
};

class Receiver {
 public:
  struct Config {
    bool track_phase = true;      ///< pilot common-phase-error correction
    /// Pilot linear-phase-slope (timing drift) correction; absorbs
    /// sampling-clock offset across long frames.
    bool track_timing = true;
    double detect_threshold = 0.6;
    /// Channel-estimate smoothing window across carriers (odd; 1 = off).
    /// Reduces estimation noise on near-flat channels, biases the estimate
    /// on frequency-selective ones (see bench/ablation_chanest).
    std::size_t chanest_smoothing = 1;
  };

  Receiver();
  explicit Receiver(Config cfg);

  /// Full reception with synchronization from the raw 20 Msps stream.
  RxResult receive(std::span<const dsp::Cplx> rx) const;

  /// Genie-aided reception: the caller supplies the exact index of the
  /// first preamble sample (e.g. from the test harness). Channel estimation
  /// still runs on the long training field; synchronization is bypassed.
  RxResult receive_at(std::span<const dsp::Cplx> rx, std::size_t frame_start,
                      double cfo_norm = 0.0) const;

 private:
  RxResult decode_from(std::span<const dsp::Cplx> aligned,
                       std::size_t frame_start, double cfo_total) const;

  /// Demodulate/equalize/demap the DATA symbols starting at `data_base`
  /// through one batch FFT, appending equalized points to res.data_points
  /// and decoder-ordered (deinterleaved) LLRs to soft_all. Returns false if
  /// the frame is truncated before `nsym` symbols.
  bool demod_data(std::span<const dsp::Cplx> rx, std::size_t data_base,
                  std::size_t nsym, Rate rate, const ChannelEstimate& est,
                  RxResult& res, SoftBits& soft_all) const;

  Config cfg_;
};

}  // namespace wlansim::phy
