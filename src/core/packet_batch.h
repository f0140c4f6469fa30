// Reusable workspace for WlanLink::run_packet_wave: W same-configuration
// packets carried as SoA lanes (sample-major, packet-minor) through the
// noise + RF + decimation half of the link. Allocate one per measurement
// thread and reuse it across waves — every buffer keeps its capacity.
#pragma once

#include <vector>

#include "core/link.h"
#include "dsp/rng.h"
#include "dsp/types.h"

namespace wlansim::core {

struct PacketBatch {
  /// The lane buffer: 2 * nl * n doubles, sample row i holding the lane
  /// re rails then the lane im rails (see dsp/kernels.h lane layout).
  /// Width 1 leaves it alone and runs in place on the link's scene.
  dsp::RVec soa;
  /// Per-lane scratch scenes for unmemoized waves (reset every wave, so a
  /// stale scene can never replay under a different sweep point).
  std::vector<TxScene> local_scenes;
  /// Per-lane packet RNG state at the noise fork (the packet rng right
  /// after build_scene_prenoise).
  std::vector<dsp::Rng> lane_rng;
};

/// A custom RF block runs while a wave holds this scratch, so it must not
/// run a WlanLink packet on its calling thread.
struct WlanLink::ThreadScratch {
  dsp::CVec padded;         ///< 20 Msps frame with lead/tail padding
  dsp::CVec jam;            ///< interferer waveform
  dsp::RVec noise_scratch;  ///< bulk unit normals for the AWGN fill
  PacketBatch batch;        ///< the per-packet calls' width-1 waves
};

}  // namespace wlansim::core
