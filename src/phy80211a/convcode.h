// Rate-1/2 K=7 convolutional code (g0 = 133o, g1 = 171o) with the 802.11a
// puncturing patterns, plus a soft-decision Viterbi decoder
// (IEEE 802.11a-1999, 17.3.5.5 / 17.3.5.6).
#pragma once

#include <cstdint>
#include <vector>

#include "phy80211a/bits.h"
#include "phy80211a/params.h"

namespace wlansim::phy {

/// Soft bit metric: positive means "bit is more likely 0" (LLR convention
/// LLR = log P(b=0)/P(b=1)). Magnitude carries reliability; exact 0 means
/// "no information" (used for punctured positions).
using SoftBits = std::vector<double>;

/// Encode at mother rate 1/2; output has 2x input length, ordered A0 B0
/// A1 B1 ... The encoder starts and must end in the zero state (callers
/// append tail bits).
Bits convolutional_encode(const Bits& in);

/// Remove bits according to the puncturing pattern for `rate`. Identity for
/// kR12. Input length must be a multiple of the pattern period.
Bits puncture(const Bits& coded, CodeRate rate);

/// Reinsert zero-information soft values at punctured positions so the
/// decoder sees mother-rate metrics.
SoftBits depuncture(const SoftBits& soft, CodeRate rate);

/// Expected punctured length for `input_bits` information bits at `rate`.
std::size_t punctured_length(std::size_t input_bits, CodeRate rate);

/// Soft-decision Viterbi decoder for the mother code. `soft` holds
/// 2 * n_info metrics (A/B interlaced); returns n_info decoded bits.
/// With `terminated` the traceback starts from the zero state (valid when
/// the stream ends exactly at the tail, like the SIGNAL field); without it
/// the traceback starts from the best-metric state — required for the
/// DATA field, whose scrambled pad bits after the tail leave the encoder
/// in an arbitrary state.
Bits viterbi_decode(const SoftBits& soft, bool terminated = true);

/// Hard-decision convenience wrapper: converts bits to +/-1 metrics.
Bits viterbi_decode_hard(const Bits& coded, bool terminated = true);

}  // namespace wlansim::phy
