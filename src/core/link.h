// End-to-end WLAN link: the verification testbench of the paper —
// "the model of the double conversion receiver ... is inserted in front of
// the DSP receiver part" of the IEEE 802.11a demo system (§4.1, Fig. 3).
//
// Each packet runs the chain
//
//   TX source (20 Msps) -> upsample -> [+ interferer] -> [+ AWGN]
//     -> RF front-end (system-level, custom or co-simulated) -> downsample
//     -> DSP receiver (sync, channel est., Viterbi)
//
// and reports bit errors and constellation quality. The chain runs on one
// of two engines with the same bits: the packet wave (1 to 8 packets in
// lockstep, see run_packet_wave), which runs every RF engine, co-simulation
// included, and the dataflow graph, the reference and the only home of
// interpreted mode. Both run each RF block's one loop (rf/rfblock.h): the
// wave at its width, the graph at width 1 through RfBlock::process().
#pragma once

#include <limits>
#include <memory>

#include "core/linkconfig.h"
#include "dsp/rng.h"
#include "phy80211a/measure.h"
#include "phy80211a/receiver.h"
#include "phy80211a/transmitter.h"
#include "rf/lane_tape.h"

namespace wlansim::core {

/// Memoized TX scene for one (configuration, packet index) pair: the
/// payload and its constellation points, the pre-noise oversampled
/// composite (TX waveform + impairments + interferer), the RNG state at
/// the noise-injection point, the unit noise normals, and the lane path's
/// front-end noise tapes. Everything stored here is independent of the
/// noise level (SNR / antenna noise density), so a BER sweep can build the
/// scene once at the first SNR point and replay it bit-identically at
/// every other — see WlanLink::run_packet_memo. The one stored value that
/// depends on the front end's configuration, the shaped flicker noise,
/// carries the shape it was made under and replays only under that shape.
class TxScene {
 public:
  TxScene() = default;

  bool valid() const { return valid_; }
  std::uint64_t packet_index() const { return packet_index_; }

  /// Drop the cached scene (e.g. when the owning sweep changes packets).
  /// Clears the front-end noise tapes too: their contents belong to the
  /// packet index the scene was built for, and every rebuild funnels
  /// through here, so a tape can never replay under the wrong packet.
  void reset() {
    valid_ = false;
    lna_tape_.clear();
    flicker_tape_.noise.clear();
  }

 private:
  friend class WlanLink;

  bool valid_ = false;
  std::uint64_t packet_index_ = 0;
  phy::Frame frame_;           ///< rate and payload
  dsp::CVec scene_;            ///< pre-noise oversampled composite
  std::size_t base_units_ = 0; ///< scene run length in base-rate units
  dsp::Rng rng_post_tx_{0};    ///< packet RNG state at the noise fork
  dsp::RVec noise_units_;      ///< cached unit normals (2 per scene sample)
  /// TX constellation, 48 points a DATA symbol (EVM reference), as
  /// modulate() mapped them.
  dsp::CVec ref_points_;
  /// Front-end noise tapes recorded by the lane path (see rf/lane_tape.h),
  /// like noise_units_ pure functions of the packet index: the LNA's unit
  /// normals, re-scaled and re-added at every point, and mixer 2's flicker
  /// noise after its shaping filter, which a point of the same flicker
  /// shape adds as it is.
  dsp::RVec lna_tape_;
  rf::ShapedNoiseTape flicker_tape_;
};

/// Outcome of one packet through the link.
struct PacketResult {
  bool decoded = false;       ///< header decoded and payload length matched
  std::size_t bits = 0;       ///< payload bits transmitted
  std::size_t bit_errors = 0; ///< payload bit errors (bits/2 when undecoded)
  double evm_rms = 0.0;       ///< EVM vs. the transmitted constellation
  double cfo_norm = 0.0;      ///< receiver CFO estimate
};

/// Confidence multiplier the fixed-budget engines report BER intervals at
/// (95 %); the adaptive engine substitutes its StoppingRule::confidence_z.
inline constexpr double kDefaultConfidenceZ = 1.96;

/// The per-packet RNG seed: a splitmix64-style mix of the configuration
/// seed and the packet counter. Every random draw of packet i — scrambler
/// seed, payload, fading, impairment and noise streams — descends from this
/// one value, so a packet's result is a pure function of (config, index)
/// and is identical no matter which thread runs it, in which order, or how
/// many packets surround it. This is the contract every parallel and
/// adaptive measurement engine in core/parallel relies on.
std::uint64_t packet_seed(std::uint64_t seed, std::uint64_t packet_index);

/// Aggregate of a multi-packet measurement.
struct BerResult {
  std::size_t packets = 0;
  std::size_t packets_lost = 0;    ///< header/sync failures (nothing decoded)
  std::size_t packet_errors = 0;   ///< lost or decoded with bit errors
  std::size_t bits = 0;
  std::size_t bit_errors = 0;
  double evm_rms_avg = 0.0;

  // Streaming statistics (adaptive Monte-Carlo engine; see core/parallel.h).
  /// Wilson relative CI half-width of the BER estimate at the reporting
  /// confidence (a pure function of bit_errors/bits, so it is as
  /// deterministic as the counters); +inf until the first bit error.
  double ber_ci_rel = std::numeric_limits<double>::infinity();
  /// Wall time from the measurement's start until this point's stopping
  /// decision. The pooled engines of core/parallel.h fill it (fixed
  /// budgets included); WlanLink::run_ber leaves 0.
  double wall_seconds = 0.0;
  /// True when the stopping rule was met before the packet cap (the cap and
  /// fixed-budget runs report false).
  bool converged = false;

  // Surrogate-model results (core/surrogate.h). When a point is answered
  // from a calibration curve instead of Monte-Carlo packets, the model's
  // interpolated rates land here (the counters above stay zero — there were
  // no packets), ber_ci_rel carries the calibrated Wilson CI of the
  // bracketing knots, and from_surrogate is set. -1 = unset.
  double model_ber = -1.0;
  double model_per = -1.0;
  bool from_surrogate = false;

  double ber() const {
    if (model_ber >= 0.0) return model_ber;
    return bits ? static_cast<double>(bit_errors) / static_cast<double>(bits)
                : 0.0;
  }
  double per() const {
    if (model_per >= 0.0) return model_per;
    return packets ? static_cast<double>(packet_errors) /
                         static_cast<double>(packets)
                   : 0.0;
  }
};

struct PacketBatch;  // core/packet_batch.h

/// Throws std::invalid_argument when no packet of `cfg` can run: zero
/// oversampling, a PSDU outside 1..4095 bytes, an adjacent channel that
/// breaks the sampling theorem at the oversampled rate, a sampling-clock
/// offset outside (-1e6, 1e6) ppm, or a baseband filter corner outside
/// (0, fs/2) of the RF model that runs. WlanLink's constructor calls it;
/// code that accepts links from outside the process calls it to reject a
/// bad link before it joins a pass shared with other links.
void validate(const LinkConfig& cfg);

class WlanLink {
 public:
  explicit WlanLink(LinkConfig cfg);

  /// Run one packet; `packet_index` seeds the per-packet randomness so
  /// runs are reproducible and sweep points can share random numbers. The
  /// packet runs as a width-1 run_packet_wave, or on the dataflow graph
  /// when the config needs it (PacketPath::kGraph, interpreted mode); both
  /// give the same bits.
  PacketResult run_packet(std::uint64_t packet_index);

  /// Run one packet carrying a caller-supplied PSDU (e.g. a framed MPDU
  /// with FCS). The payload length overrides cfg.psdu_bytes for this
  /// packet; channel/noise randomness still derives from `packet_index`.
  /// On success `rx_psdu` receives the decoded PSDU bytes.
  PacketResult run_packet_with_payload(std::span<const std::uint8_t> psdu,
                                       std::uint64_t packet_index,
                                       phy::Bytes* rx_psdu = nullptr);

  /// Run one packet, caching or replaying its noise-independent TX scene
  /// in `scene`: a width-1 run_packet_wave with `scene` as its one slot.
  /// When `scene` is valid for this packet index (built by an earlier call
  /// on a link whose config differs only in noise level), the TX side,
  /// channel build, and interferer are replayed bit-identically instead of
  /// recomputed. Otherwise the packet runs in full and `scene` is
  /// (re)built. Configs that need the graph run unmemoized and leave
  /// `scene` invalid.
  PacketResult run_packet_memo(std::uint64_t packet_index, TxScene& scene);

  /// Run `count` consecutive packets [begin_index, begin_index + count) as
  /// one lockstep lane wave, the link's direct packet engine: each
  /// packet's TX scene is built (or replayed from `scenes`), then all lanes
  /// march through AWGN, the RF front-end, and decimation together on a
  /// width-`count` SoA buffer (see dsp/kernels.h "width-W packet-lane
  /// kernels"). Lanes never mix arithmetically, so out[l] equals the graph
  /// reference of the same index bit for bit, at any width — the contract
  /// pinned by tests/core/test_batch_wave.cpp and test_packet_path.cpp.
  /// Width 1 runs in place on the link's scene buffer; it is what
  /// run_packet, run_packet_with_payload and run_packet_memo run.
  ///
  /// `scenes` is either null (no memoization; batch-local scratch scenes
  /// are used) or `count` TxScene slots, one per lane, with the same
  /// build-or-replay semantics as run_packet_memo. On the memoized path
  /// a system-level wave additionally records the front end's noise tapes
  /// into the scenes so later sweep points replay the gaussians instead of
  /// re-deriving them; a co-simulated wave draws its fine-rate noise
  /// fresh.
  ///
  /// Returns false — leaving `out` untouched — for a count outside [1, W],
  /// for a config that needs the graph (see run_packet), and when `scenes`
  /// hold lanes of different lengths (scenes of another config); the
  /// caller then runs the packets one by one. Scenes (re)built before such
  /// a bailout stay valid. Only last_rx_baseband() follows a wave, and
  /// only to its last lane; last_rf_input() is kept by the per-packet
  /// calls alone.
  bool run_packet_wave(std::uint64_t begin_index, std::size_t count,
                       PacketBatch& batch, TxScene* scenes, PacketResult* out);

  /// Run `num_packets` packets and aggregate.
  BerResult run_ber(std::size_t num_packets);

  /// The received baseband (20 Msps, post-RF) of the last packet — for
  /// spectrum plots and debugging.
  const dsp::CVec& last_rx_baseband() const { return last_rx_; }

  const LinkConfig& config() const { return cfg_; }

  /// The composite oversampled waveform (wanted + interferer + noise) the
  /// RF front-end saw on the last packet — input of Fig. 4's spectrum.
  const dsp::CVec& last_rf_input() const { return last_rf_input_; }

 private:
  /// Per-link state of the packet wave. Blocks are constructed once and
  /// re-randomized per packet (reset + reseed, or per-lane reseeds), which
  /// is exactly equivalent to the per-packet construction the graph path
  /// performs.
  struct Workspace {
    dsp::CVec scene_a;  ///< oversampled scene under construction; width 1
                        ///< runs the wave in place on it
    std::unique_ptr<rf::Amplifier> tx_pa;
    std::unique_ptr<rf::Mixer> tx_upconverter;
    std::unique_ptr<rf::DoubleConversionReceiver> frontend;
    std::unique_ptr<sim::CosimRfReceiver> cosim;
  };

  /// Packet scratch of the calling thread, shared by every link that runs
  /// on it (defined in core/packet_batch.h): each packet fills these
  /// buffers before it reads them and leaves nothing in them the next
  /// packet needs, so a worker caching a link per sweep point keeps one
  /// set, not one per link.
  struct ThreadScratch;
  static ThreadScratch& thread_scratch();

  /// The caller's side of a per-packet call: a width-1 wave that takes the
  /// payload from the caller (empty = drawn from the packet rng), returns
  /// the decoded PSDU and keeps the last_rf_input() probe.
  struct SinglePacket {
    std::span<const std::uint8_t> psdu;
    phy::Bytes* rx_psdu = nullptr;
  };

  /// PacketPath::kGraph and interpreted mode run on the dataflow graph;
  /// everything else runs as a packet wave.
  bool needs_graph() const;
  bool run_wave(std::uint64_t begin_index, std::size_t count,
                PacketBatch& batch, TxScene* scenes, PacketResult* out,
                const SinglePacket* single);
  PacketResult run_packet_graph(std::span<const std::uint8_t> psdu,
                                std::uint64_t packet_index,
                                phy::Bytes* rx_psdu);
  void run_scene_graph(dsp::CVec padded, dsp::Rng& rng);

  /// TX half of a packet, shared by the wave and the graph: draws the
  /// scrambler seed and the payload (unless `psdu` is given) from `rng`
  /// into `scene`, modulates, applies fading, and pads into the thread's
  /// `padded` buffer, which it returns.
  const dsp::CVec& build_tx(std::span<const std::uint8_t> psdu,
                            dsp::Rng& rng, TxScene& scene);
  /// Upsample + TX impairments + interferer into ws_.scene_a. Returns the
  /// run length in base-rate units.
  std::size_t build_scene_prenoise(const dsp::CVec& padded, dsp::Rng& rng);
  /// DSP receiver + BER/EVM bookkeeping on last_rx_. The EVM reference is
  /// a pure function of the scene's (scrambler seed, frame); it is cached
  /// in the scene, so a memoized scene computes it once for every noise
  /// level.
  PacketResult receiver_epilogue(TxScene& scene, phy::Bytes* rx_psdu);

  LinkConfig cfg_;
  phy::Receiver rx_;
  dsp::CVec last_rx_;
  dsp::CVec last_rf_input_;
  Workspace ws_;
};

}  // namespace wlansim::core
