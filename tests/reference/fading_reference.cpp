#include "fading_reference.h"

#include <algorithm>

namespace wlansim::channel {

dsp::CVec multipath_reference(std::span<const dsp::Cplx> taps,
                              std::span<const dsp::Cplx> in) {
  dsp::CVec out(in.size(), dsp::Cplx{0.0, 0.0});
  for (std::size_t n = 0; n < in.size(); ++n) {
    dsp::Cplx acc{0.0, 0.0};
    const std::size_t kmax = std::min(taps.size(), n + 1);
    for (std::size_t k = 0; k < kmax; ++k) acc += taps[k] * in[n - k];
    out[n] = acc;
  }
  return out;
}

}  // namespace wlansim::channel
