// Base interface for behavioral RF blocks operating on complex-baseband
// sample streams — the C++ equivalent of the SPW rflib / SpectreRF
// baseband models the paper evaluates.
//
// Conventions:
//  * signals are complex envelopes normalized to a 1-ohm system, so
//    power [W] == mean |x|^2 and a tone of amplitude A carries A^2 watts;
//  * every block is constructed with the sample rate it runs at, because
//    noise floors and filter corners are physical (Hz) quantities;
//  * blocks keep state across process() calls so long runs can stream.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dsp/types.h"
#include "rf/chain_executor.h"

namespace wlansim::rf {

class RfBlock {
 public:
  virtual ~RfBlock() = default;

  /// Process a chunk; output has the same length as the input.
  virtual dsp::CVec process(std::span<const dsp::Cplx> in) = 0;

  /// Process a chunk into a caller-provided vector, which is resized to the
  /// input length. Blocks on the packet hot path override this so that a
  /// warm `out` means zero heap allocation; the default delegates to
  /// process(). `out` must not alias `in`.
  virtual void process_into(std::span<const dsp::Cplx> in, dsp::CVec& out) {
    out = process(in);
  }

  /// Tile-safe streaming contract for the fused ChainExecutor: filter `in`
  /// into the pre-sized `out` (out.size() == in.size(), aliasing allowed).
  /// The output must depend only on carried state plus the input samples in
  /// order, so that processing a buffer in consecutive tiles of any size is
  /// bit-identical to one whole-buffer call. Every concrete block overrides
  /// this with its allocation-free core loop; the base default routes
  /// through process() (allocating) for blocks that never see the hot path
  /// (black-box table models, co-simulation wrappers).
  virtual void process_tile(std::span<const dsp::Cplx> in,
                            std::span<dsp::Cplx> out);

  /// Clear internal state (filters, AGC loops, oscillator phase).
  virtual void reset() {}

  /// Human-readable block name for reports.
  virtual std::string name() const = 0;

  // ---- width-W packet-lane interface (SoA, sample-major / packet-minor) ---
  //
  // The packet engine runs 1 to dsp::kernels::kLaneWidth same-config
  // packets in lockstep: sample i is one 2*nl-double row [re lanes][im
  // lanes] of a flat buffer. Every block of the double-conversion receiver
  // runs there, and lane l of its process_tile_lanes() must be
  // bit-identical to its scalar process_tile() on that lane's stream (same
  // carried state per lane, same per-sample arithmetic, per-lane RNG
  // streams drawn in the same call-granularity-invariant way). Tiling applies per the ChainExecutor
  // contract: consecutive lane tiles of any size must equal one
  // whole-buffer call.

  /// Prepare per-lane state for a batch of `nl` lanes, lane l seeded /
  /// reset exactly as reset() leaves the scalar block. Called once per
  /// wave, before any process_tile_lanes().
  virtual void begin_lanes(std::size_t nl) { (void)nl; }

  /// Process `n` SoA rows of `nl` lanes in place. The base aborts: blocks
  /// that never run inside a wave (black-box tables, the direct-conversion
  /// receiver) keep it, and a custom RF block runs in the wave through
  /// process_into(), one call per lane.
  virtual void process_tile_lanes(double* soa, std::size_t n, std::size_t nl);
};

/// A serial cascade of RF blocks, executed fused: L1-sized tiles stream
/// through the whole cascade (see ChainExecutor), bit-identical to the
/// retained block-at-a-time reference process_blockwise_into().
class RfChain : public RfBlock {
 public:
  RfChain() = default;

  /// Append a block; returns a handle for later inspection.
  template <typename T, typename... Args>
  T* emplace(Args&&... args) {
    auto block = std::make_unique<T>(std::forward<Args>(args)...);
    T* raw = block.get();
    raw_.push_back(raw);
    blocks_.push_back(std::move(block));
    return raw;
  }

  void append(std::unique_ptr<RfBlock> block) {
    raw_.push_back(block.get());
    blocks_.push_back(std::move(block));
  }

  std::size_t size() const { return blocks_.size(); }
  RfBlock& at(std::size_t i) { return *blocks_.at(i); }

  dsp::CVec process(std::span<const dsp::Cplx> in) override;
  void process_into(std::span<const dsp::Cplx> in, dsp::CVec& out) override;
  void process_tile(std::span<const dsp::Cplx> in,
                    std::span<dsp::Cplx> out) override;
  void reset() override;
  std::string name() const override { return "chain"; }

  /// Fused-execution tile size (samples); 0 = auto. Forwarded to the
  /// executor — see ChainExecutor::auto_tile_size() for the L1 model.
  void set_tile_size(std::size_t t) { exec_.set_tile_size(t); }
  std::size_t tile_size() const { return exec_.tile_size(); }

  /// Reference block-at-a-time execution (the pre-fusion semantics): each
  /// block does a full pass over the buffer, ping-ponging between `out` and
  /// a member scratch vector. Kept for the fused-vs-blockwise equivalence
  /// tests and the BM_RfChainBlockwise benchmark.
  void process_blockwise_into(std::span<const dsp::Cplx> in, dsp::CVec& out);

  void begin_lanes(std::size_t nl) override;
  /// Fused lane execution: one ~L1-sized tile of SoA rows (the scalar tile
  /// budget divided by nl) streams through the whole cascade in place
  /// before the next tile starts.
  void process_tile_lanes(double* soa, std::size_t n, std::size_t nl) override;

 private:
  std::vector<std::unique_ptr<RfBlock>> blocks_;
  std::vector<RfBlock*> raw_;  // same order; flat array for the executor
  ChainExecutor exec_;
  dsp::CVec scratch_;  // ping-pong partner of `out` in the blockwise path
};

}  // namespace wlansim::rf
