// Timing and frequency synchronization on the received sample stream:
// Schmidl&Cox-style delay-correlation packet detection and coarse CFO on
// the short preamble, cross-correlation fine timing and lag-64 fine CFO on
// the long preamble.
#pragma once

#include <optional>
#include <span>

#include "dsp/types.h"

namespace wlansim::phy {

struct DetectionResult {
  std::size_t detect_index = 0;  ///< first sample where the plateau holds
  double coarse_cfo_norm = 0.0;  ///< CFO estimate, cycles/sample
};

/// Detect a frame via the 16-sample periodicity of the short preamble.
/// Returns nullopt if no plateau is found.
///
/// O(N): the 32-sample correlation, power, and mean windows advance by a
/// sliding-window recurrence (add the entering term, subtract the leaving
/// one) with an exact recomputation every few hundred positions to bound
/// rounding drift, instead of re-summing the window at every position.
/// The decision sequence matches a full re-sum per position on any signal
/// whose metric is not within ~1e-12 of the threshold.
std::optional<DetectionResult> detect_packet(std::span<const dsp::Cplx> rx,
                                             double threshold = 0.6);

/// Coarse CFO (cycles/sample) from lag-16 autocorrelation over `len`
/// samples starting at `start`.
double coarse_cfo(std::span<const dsp::Cplx> rx, std::size_t start,
                  std::size_t len = 128);

/// Fine CFO (cycles/sample) from the lag-64 correlation of the two long
/// training symbols; `lts_start` is the index of the first LTS symbol
/// (after its guard interval).
double fine_cfo(std::span<const dsp::Cplx> rx, std::size_t lts_start);

/// Locate the start of the first long training symbol by cross-correlating
/// with the known LTS within [search_start, search_end). Returns the index
/// of the first sample of the first 64-sample LTS.
///
/// The 64-sample window power slides by recurrence (exact recompute every
/// few hundred positions) and the cross-correlation runs on the
/// dsp::kernels xcorr_accum kernel (split re/im 4-lane chains, vectorized
/// in its AVX2 clone). Peak choice matches sequential complex accumulation
/// with a full power re-sum except for metric ties closer than the
/// accumulated ulp drift.
std::optional<std::size_t> locate_long_training(std::span<const dsp::Cplx> rx,
                                                std::size_t search_start,
                                                std::size_t search_end);

/// Multiply by e^{-j 2 pi cfo n} in place to remove a frequency offset
/// (n counted from the start of the span).
void correct_cfo(std::span<dsp::Cplx> rx, double cfo_norm);

}  // namespace wlansim::phy
