// The library's one compilation of the kernel bodies (see dsp/kernels.h).
// `flatten` inlines the detail:: helpers into each clone, so no AVX2 clone
// calls back into baseline code. Under ThreadSanitizer the clones are
// compiled out: a TSan binary that calls an ifunc-dispatched function
// crashes before main.
#include "dsp/kernels.h"

#include <cmath>
#include <cstdint>

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__)
#define WLANSIM_KERNEL \
  __attribute__((target_clones("avx2", "default"), flatten))
#else
#define WLANSIM_KERNEL
#endif

namespace wlansim::dsp::kernels {
#include "dsp/kernels_impl.inc"
}  // namespace wlansim::dsp::kernels
