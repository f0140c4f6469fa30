// Reference Viterbi decoders the production `phy::viterbi_decode` is
// pinned against in tests/phy/test_viterbi_equivalence.cpp. They are built
// into the test-only `wlansim_reference` library, so the shipped
// `wlansim_phy` carries one decoder.
#pragma once

#include "phy80211a/convcode.h"

namespace wlansim::phy {

/// The straightforward pre-butterfly decoder (double metrics, -inf
/// sentinels). On soft inputs whose values and running metric sums are
/// exactly representable in float (e.g. small dyadic-rational LLRs), it and
/// the production decoder produce identical bits.
Bits viterbi_decode_reference(const SoftBits& soft, bool terminated = true);

/// The scalar butterfly decoder that preceded the four-wide one: float
/// metrics, the -1e9f sentinel, renormalization every 64 steps, one
/// butterfly per iteration. Its arithmetic per butterfly is the production
/// decoder's per lane, so the two agree bit for bit on any input.
Bits viterbi_decode_scalar_butterfly(const SoftBits& soft,
                                     bool terminated = true);

}  // namespace wlansim::phy
