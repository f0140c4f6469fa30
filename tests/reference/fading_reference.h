// The semantic definition of the fading tapped-delay line:
// channel::MultipathChannel::apply runs it on dsp::kernels::cfir_conv, and
// tests/channel pins the two bit for bit.
#pragma once

#include <span>

#include "dsp/types.h"

namespace wlansim::channel {

/// out[n] = sum over k <= min(taps.size() - 1, n) of taps[k] * in[n - k]
/// (same-length output, the tail truncated), accumulated in std::complex in
/// ascending k.
dsp::CVec multipath_reference(std::span<const dsp::Cplx> taps,
                              std::span<const dsp::Cplx> in);

}  // namespace wlansim::channel
