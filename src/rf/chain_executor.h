// Fused, cache-blocked execution of a serial RF block cascade.
//
// Block-at-a-time execution streams the whole oversampled buffer through
// every block in turn: N samples x B blocks of memory traffic, with each
// intermediate buffer evicted from cache before the next block reads it
// back. The executor instead pushes one L1-sized tile through the *entire*
// cascade before moving to the next tile, so each sample is loaded once
// and every intermediate value stays in two hot ping-pong tiles.
//
// Bit-exactness contract: every RfBlock's process_tile() must depend only
// on carried state plus the input samples in order (no per-call resets, no
// whole-buffer reductions). Under that contract, processing a buffer in
// consecutive tiles of any size is bit-identical to one whole-buffer call,
// and therefore fused execution is bit-identical to block-at-a-time
// execution — tests/rf/test_chain_executor.cpp asserts exact equality
// across tile sizes, including non-divisor tiles.
#pragma once

#include <cstddef>
#include <span>

#include "dsp/types.h"

namespace wlansim::rf {

class RfBlock;

class ChainExecutor {
 public:
  /// `tile_size` in samples; 0 = auto (see auto_tile_size()).
  explicit ChainExecutor(std::size_t tile_size = 0) : tile_(tile_size) {}

  std::size_t tile_size() const { return tile_; }
  void set_tile_size(std::size_t t) { tile_ = t; }

  /// The tile actually used when tile_size() == 0: the two ping-pong tiles
  /// of T complex<double> samples cost 32*T bytes, and T = 1024 keeps that
  /// 32 KiB working set inside a typical 32-48 KiB L1d with room for block
  /// state (biquad registers, AGC loop, RNG).
  static constexpr std::size_t auto_tile_size() { return 1024; }

  std::size_t effective_tile_size() const {
    return tile_ != 0 ? tile_ : auto_tile_size();
  }

  /// Run `in` through blocks[0..nblocks) tile by tile. `out` must be
  /// pre-sized to in.size(); it may alias `in` (each tile's reads complete
  /// before its region of `out` is written).
  void run(RfBlock* const* blocks, std::size_t nblocks,
           std::span<const dsp::Cplx> in, std::span<dsp::Cplx> out);

 private:
  std::size_t tile_ = 0;
  dsp::CVec tile_a_, tile_b_;  // ping-pong intermediates, warm across calls
};

}  // namespace wlansim::rf
