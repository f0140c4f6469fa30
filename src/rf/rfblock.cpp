#include "rf/rfblock.h"

#include <algorithm>
#include <cstdlib>

namespace wlansim::rf {

void RfBlock::process_tile(std::span<const dsp::Cplx> in,
                           std::span<dsp::Cplx> out) {
  const dsp::CVec tmp = process(in);
  std::copy(tmp.begin(), tmp.end(), out.begin());
}

dsp::CVec RfChain::process(std::span<const dsp::Cplx> in) {
  dsp::CVec out;
  process_into(in, out);
  return out;
}

void RfChain::process_into(std::span<const dsp::Cplx> in, dsp::CVec& out) {
  out.resize(in.size());
  process_tile(in, std::span<dsp::Cplx>(out.data(), out.size()));
}

void RfChain::process_tile(std::span<const dsp::Cplx> in,
                           std::span<dsp::Cplx> out) {
  exec_.run(raw_.data(), raw_.size(), in, out);
}

void RfChain::process_blockwise_into(std::span<const dsp::Cplx> in,
                                     dsp::CVec& out) {
  if (blocks_.empty()) {
    out.assign(in.begin(), in.end());
    return;
  }
  // Ping-pong between `out` and the member scratch buffer so each block
  // writes into a warm vector. Starting on `out` for odd cascades and on
  // the scratch for even ones makes the final block always land in `out`.
  dsp::CVec* dst = (blocks_.size() % 2 == 1) ? &out : &scratch_;
  dsp::CVec* alt = (blocks_.size() % 2 == 1) ? &scratch_ : &out;
  std::span<const dsp::Cplx> cur = in;
  for (auto& b : blocks_) {
    b->process_into(cur, *dst);
    cur = *dst;
    std::swap(dst, alt);
  }
}

void RfChain::reset() {
  for (auto& b : blocks_) b->reset();
}

void RfBlock::process_tile_lanes(double* soa, std::size_t n, std::size_t nl) {
  (void)soa;
  (void)n;
  (void)nl;
  // Reaching here means a block that never runs in a packet wave was put
  // in one.
  std::abort();
}

void RfChain::begin_lanes(std::size_t nl) {
  for (RfBlock* b : raw_) b->begin_lanes(nl);
}

void RfChain::process_tile_lanes(double* soa, std::size_t n, std::size_t nl) {
  // Same fused schedule as ChainExecutor::run, shrunk so a tile of SoA
  // rows costs what a scalar tile costs (16*nl bytes per row): push one
  // tile through every block before the next tile. Per the tile-invariance
  // contract this is bit-identical per lane to whole-buffer execution.
  std::size_t tile = ChainExecutor::auto_tile_size() / (nl ? nl : 1);
  if (tile == 0) tile = 1;
  for (std::size_t off = 0; off < n; off += tile) {
    const std::size_t len = std::min(tile, n - off);
    double* rows = soa + off * 2 * nl;
    for (RfBlock* b : raw_) b->process_tile_lanes(rows, len, nl);
  }
}

}  // namespace wlansim::rf
