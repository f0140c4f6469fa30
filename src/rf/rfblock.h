// Base interface for behavioral RF blocks operating on complex-baseband
// sample streams — the C++ equivalent of the SPW rflib / SpectreRF
// baseband models the paper evaluates.
//
// Conventions:
//  * signals are complex envelopes normalized to a 1-ohm system, so
//    power [W] == mean |x|^2 and a tone of amplitude A carries A^2 watts;
//  * every block is constructed with the sample rate it runs at, because
//    noise floors and filter corners are physical (Hz) quantities;
//  * blocks keep state across calls so long runs can stream.
//
// One loop per block. A block runs 1 to dsp::kernels::kLaneWidth
// same-config streams ("lanes", one packet each) in lockstep: sample i is
// one 2*nl-double SoA row [re lanes][im lanes] of a flat buffer, and
// process_tile_lanes() is the block's only processing code. A width-1 row
// is [re, im], the memory layout of std::complex<double>, so process() and
// process_into() run that loop at width 1 in place on a complex buffer —
// the analyses, the dataflow graph and the packet wave all run the same
// arithmetic.
//
// The lane contract:
//  * a newly constructed block is a width-1 block; lane 0 draws from the
//    rng the constructor received;
//  * begin_lanes(nl) sets the width and clears every lane: its carried
//    state and its rng, which the block's per-lane rng setter then seeds;
//  * reset() clears every lane's carried state — filter registers, LO and
//    phase-noise phases, the AGC loop, co-simulation's hold value and step
//    count — and keeps each lane's rng;
//  * lane l of a block whose lane rngs were set to what fresh blocks would
//    receive reproduces such a fresh block on lane l's stream, bit for bit;
//  * a block that a link builds per packet (BlackBoxModel, the zero-IF
//    receiver and its WanderingDcSource, custom blocks) may run at width 1
//    only: its begin_lanes() and process_tile_lanes() throw
//    std::invalid_argument for any other width, and begin_lanes(1) changes
//    nothing;
//  * tiling: the output depends only on carried state plus the input rows
//    in order, so consecutive calls over tiles of any sizes equal one call
//    over the whole buffer. BlackBoxModel is exempt: its FIR's block
//    convolution rounds per call partition.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dsp/types.h"

namespace wlansim::rf {

class RfBlock {
 public:
  virtual ~RfBlock() = default;

  /// Process `n` SoA rows of `nl` lanes in place.
  virtual void process_tile_lanes(double* soa, std::size_t n,
                                  std::size_t nl) = 0;

  /// Set the width to `nl` lanes and clear every lane (see above).
  virtual void begin_lanes(std::size_t nl) { (void)nl; }

  /// Clear every lane's carried state; keep each lane's rng.
  virtual void reset() {}

  /// Human-readable block name for reports.
  virtual std::string name() const = 0;

  // Width-1 adapters. Each copies `in` to the output unless the two are the
  // same buffer, then runs process_tile_lanes() at width 1 in place on the
  // output. None calls begin_lanes(), so state streams across calls; the
  // block must be at width 1. A warm `out` means no heap allocation.

  /// Process a chunk; the output has the input's length.
  dsp::CVec process(std::span<const dsp::Cplx> in);
  /// process() into `out`, resized to the input length; `in` may be `out`.
  void process_into(std::span<const dsp::Cplx> in, dsp::CVec& out);
};

/// A serial cascade of RF blocks, run fused: one tile of rows streams
/// through every block before the next tile starts, so a tile's
/// intermediate values stay in L1 cache and each sample is loaded from
/// memory once. Under the tiling rule of the lane contract this is
/// bit-identical to running each block over the whole buffer in turn.
class RfChain : public RfBlock {
 public:
  /// Tile budget in complex samples: a tile of kTileSamples / nl rows of nl
  /// lanes is 16 KiB, which with the blocks' state (biquad registers, AGC
  /// loop, rng) stays inside a typical 32-48 KiB L1d.
  static constexpr std::size_t kTileSamples = 1024;

  RfChain() = default;

  /// Append a block; returns a handle for later inspection.
  template <typename T, typename... Args>
  T* emplace(Args&&... args) {
    auto block = std::make_unique<T>(std::forward<Args>(args)...);
    T* raw = block.get();
    blocks_.push_back(std::move(block));
    return raw;
  }

  void append(std::unique_ptr<RfBlock> block) {
    blocks_.push_back(std::move(block));
  }

  std::size_t size() const { return blocks_.size(); }
  RfBlock& at(std::size_t i) { return *blocks_.at(i); }

  void begin_lanes(std::size_t nl) override;
  void process_tile_lanes(double* soa, std::size_t n, std::size_t nl) override;
  void reset() override;
  std::string name() const override { return "chain"; }

 private:
  std::vector<std::unique_ptr<RfBlock>> blocks_;
};

}  // namespace wlansim::rf
