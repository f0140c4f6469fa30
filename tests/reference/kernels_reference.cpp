// The baseline-ISA build of the kernel bodies (see kernels_reference.h).
#include "kernels_reference.h"

#include <cmath>
#include <cstdint>

#define WLANSIM_KERNEL

namespace wlansim::dsp::kernels::ref {
#include "dsp/kernels_impl.inc"
}  // namespace wlansim::dsp::kernels::ref
