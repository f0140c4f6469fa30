#include "rf/chain_executor.h"

#include <algorithm>

#include "rf/rfblock.h"

namespace wlansim::rf {

void ChainExecutor::run(RfBlock* const* blocks, std::size_t nblocks,
                        std::span<const dsp::Cplx> in,
                        std::span<dsp::Cplx> out) {
  const std::size_t n = in.size();
  if (nblocks == 0) {
    if (out.data() != in.data())
      std::copy(in.begin(), in.end(), out.begin());
    return;
  }
  if (nblocks == 1) {
    // Nothing to fuse: one whole-buffer pass is the same arithmetic.
    blocks[0]->process_tile(in, out);
    return;
  }
  const std::size_t t = std::min(n != 0 ? n : std::size_t{1},
                                 effective_tile_size());
  tile_a_.resize(t);
  tile_b_.resize(t);
  for (std::size_t o = 0; o < n; o += t) {
    const std::size_t m = std::min(t, n - o);
    std::span<const dsp::Cplx> cur = in.subspan(o, m);
    for (std::size_t b = 0; b < nblocks; ++b) {
      std::span<dsp::Cplx> dst =
          (b + 1 == nblocks)
              ? out.subspan(o, m)
              : std::span<dsp::Cplx>((b % 2 == 0) ? tile_a_.data()
                                                  : tile_b_.data(),
                                     m);
      blocks[b]->process_tile(cur, dst);
      cur = dst;
    }
  }
}

}  // namespace wlansim::rf
