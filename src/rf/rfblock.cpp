#include "rf/rfblock.h"

#include <algorithm>

namespace wlansim::rf {

namespace {
double* rows(dsp::Cplx* x) { return reinterpret_cast<double*>(x); }
}  // namespace

dsp::CVec RfBlock::process(std::span<const dsp::Cplx> in) {
  dsp::CVec out(in.begin(), in.end());
  process_tile_lanes(rows(out.data()), out.size(), 1);
  return out;
}

void RfBlock::process_into(std::span<const dsp::Cplx> in, dsp::CVec& out) {
  if (out.data() != in.data()) out.assign(in.begin(), in.end());
  process_tile_lanes(rows(out.data()), out.size(), 1);
}

void RfChain::begin_lanes(std::size_t nl) {
  for (auto& b : blocks_) b->begin_lanes(nl);
}

void RfChain::process_tile_lanes(double* soa, std::size_t n, std::size_t nl) {
  const std::size_t tile =
      std::max<std::size_t>(1, kTileSamples / std::max<std::size_t>(1, nl));
  for (std::size_t off = 0; off < n; off += tile) {
    const std::size_t len = std::min(tile, n - off);
    double* tile_rows = soa + off * 2 * nl;
    for (auto& b : blocks_) b->process_tile_lanes(tile_rows, len, nl);
  }
}

void RfChain::reset() {
  for (auto& b : blocks_) b->reset();
}

}  // namespace wlansim::rf
