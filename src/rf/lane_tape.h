// Per-lane noise record/replay for the width-W packet-lane path.
//
// The noisy front-end blocks draw signal-independent noise whose values
// depend only on the lane rng and the buffer length. For a memoized packet
// that noise is identical on every replay — the per-packet front-end rng is
// forked from the scene's saved post-TX rng, so its seed is a pure function
// of the packet index. A lane tape caches it in the TxScene: the first
// traversal records it, later traversals (other sweep points, same packet)
// read it back instead of re-deriving it. Replay is bit-identical by
// construction because the tape holds the exact doubles the first
// traversal computed. Two tapes exist:
//
//  * the LNA's thermal noise: a tape of unit normals (lane_tape_units_into).
//    Its noise enters before the compression, so the LNA re-adds it at every
//    point with that point's scale;
//  * mixer 2's flicker noise: a ShapedNoiseTape holding the noise after its
//    shaping filter, keyed by the source's shape. Flicker is additive, so a
//    replay adds the tape and runs neither the draws nor the filter.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "dsp/rng.h"
#include "dsp/types.h"

namespace wlansim::rf {

/// Return `need` unit normals for one lane tile: replayed from `tape` when
/// it already holds them at `pos`, otherwise drawn from `rng` into
/// caller-provided `seg` (`need` doubles, so a tile can keep every lane's
/// units alive at once for the fused multi-lane kernels) and appended to the
/// tape when extending it in order — any out-of-phase tape is left untouched
/// and the draw stands on its own. Advances `pos` past the samples consumed
/// or recorded.
inline const double* lane_tape_units_into(dsp::RVec* tape, std::size_t& pos,
                                          dsp::Rng& rng, double* seg,
                                          std::size_t need) {
  if (tape != nullptr && pos + need <= tape->size()) {
    const double* u = tape->data() + pos;
    pos += need;
    return u;
  }
  rng.fill_gaussian(seg, need);
  if (tape != nullptr && pos == tape->size()) {
    tape->insert(tape->end(), seg, seg + need);
    pos += need;
  }
  return seg;
}

/// What fixes a noise source's output for given unit normals: the bit
/// patterns of the constructor arguments that set its drive level and its
/// filter. Compared exactly, never hashed.
using NoiseShape = std::array<std::uint64_t, 4>;

/// One lane's shaped noise (2 doubles per sample, re/im interleaved) and
/// the shape it was recorded under. It replays only under an equal shape.
struct ShapedNoiseTape {
  NoiseShape shape{};
  dsp::RVec noise;
};

}  // namespace wlansim::rf
