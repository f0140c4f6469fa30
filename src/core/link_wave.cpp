// The lockstep packet wave, the link's direct packet engine: 1 to W
// same-config packets carried as SoA lanes through the noise + RF +
// decimation half of the link. Every lane reproduces the dataflow graph
// reference bit for bit — lanes share loop control and memory traffic,
// never arithmetic — so the wave width is a pure throughput choice under
// the determinism contract of core/parallel.h. Width 1 is the per-packet
// API: its one SoA row per sample is [re, im], the memory layout of
// std::complex<double>, so it runs in place on the link's scene buffer.
//
// Per lane the sequence is: rng(packet_seed) -> scrambler seed -> payload
// -> modulate -> [fading] -> pad -> build_scene_prenoise (TX impairments +
// interferer, per-lane AoS since it is packet-specific and cheap), then the
// shared half in lockstep: fork 1 = AWGN normals, fork 2 = front-end
// reseed (system-level or co-simulated) or the custom block's rng, RF lane
// tiles, decimation, DSP receiver epilogue. That is the fork order of
// run_scene_graph. The co-simulated front end runs its lane loop per
// system sample: every lane pays its own handshake and its own
// analog_oversample fine steps of the whole analog chain, so a packet costs
// what it costs on the graph, and up to W packets share the SIMD lanes.
#include <cmath>
#include <memory>

#include "core/packet_batch.h"
#include "dsp/kernels.h"
#include "dsp/mathutil.h"
#include "dsp/resample.h"
#include "rf/receiver_chain.h"
#include "sim/cosim.h"

namespace wlansim::core {

bool WlanLink::run_packet_wave(std::uint64_t begin_index, std::size_t count,
                               PacketBatch& batch, TxScene* scenes,
                               PacketResult* out) {
  if (count < 1 || count > dsp::kernels::kLaneWidth || needs_graph())
    return false;
  return run_wave(begin_index, count, batch, scenes, out, nullptr);
}

bool WlanLink::run_wave(std::uint64_t begin_index, std::size_t count,
                        PacketBatch& batch, TxScene* scenes,
                        PacketResult* out, const SinglePacket* single) {
  namespace kn = dsp::kernels;
  ThreadScratch& scratch = thread_scratch();
  const bool in_place = count == 1;

  // --- Per-lane TX build or scene replay (packet-specific, sequential) ----
  batch.local_scenes.resize(count);
  batch.lane_rng.resize(count);
  std::size_t n = 0;
  std::size_t base_units = 0;

  for (std::size_t l = 0; l < count; ++l) {
    const std::uint64_t idx = begin_index + l;
    TxScene* sc = scenes != nullptr ? &scenes[l] : &batch.local_scenes[l];
    const dsp::CVec* src = &ws_.scene_a;
    std::size_t lane_units;

    if (scenes != nullptr && sc->valid_ && sc->packet_index_ == idx) {
      // Replay: restore the packet rng at the noise fork.
      batch.lane_rng[l] = sc->rng_post_tx_;
      src = &sc->scene_;
      lane_units = sc->base_units_;
    } else {
      sc->reset();
      dsp::Rng rng(packet_seed(cfg_.seed, idx));
      const dsp::CVec& padded =
          build_tx(single != nullptr ? single->psdu
                                     : std::span<const std::uint8_t>{},
                   rng, *sc);
      lane_units = build_scene_prenoise(padded, rng);
      sc->valid_ = true;
      sc->packet_index_ = idx;
      sc->base_units_ = lane_units;
      sc->rng_post_tx_ = rng;
      sc->noise_units_.clear();
      if (scenes != nullptr)
        sc->scene_.assign(ws_.scene_a.begin(), ws_.scene_a.end());
      batch.lane_rng[l] = rng;
    }

    if (l == 0) {
      n = src->size();
      base_units = lane_units;
      if (!in_place) batch.soa.resize(2 * count * n);
    } else if (src->size() != n || lane_units != base_units) {
      // Same-config packets always match; bail if a caller mixes
      // configurations. Scenes built so far stay valid.
      return false;
    }
    if (in_place) {
      if (src != &ws_.scene_a) ws_.scene_a.assign(src->begin(), src->end());
    } else {
      kn::lanes_pack(src->data(), n, count, l, batch.soa.data());
    }
  }

  double* soa = in_place ? reinterpret_cast<double*>(ws_.scene_a.data())
                         : batch.soa.data();
  const std::size_t os = cfg_.oversample;

  // --- Channel noise: the antenna thermal floor plus (optionally) excess
  // AWGN sized for the requested SNR (fork 1 per lane) --------------------
  const double p_sig = dsp::dbm_to_watts(cfg_.rx_power_dbm);
  const double fs_over = cfg_.rf.sample_rate_hz;
  double n_total =
      cfg_.antenna_noise_density_dbm_hz > -250.0
          ? dsp::dbm_to_watts(cfg_.antenna_noise_density_dbm_hz) * fs_over
          : 0.0;
  if (cfg_.snr_db.has_value()) {
    n_total += p_sig / dsp::from_db(*cfg_.snr_db) * static_cast<double>(os);
  }
  if (n_total > 0.0) {
    // cgaussian(v) draws two unit normals and scales each by
    // s = sqrt(v/2), so filling the normals first and adding the scaled
    // pairs is the graph's arithmetic in the graph's stream order. Gather
    // every lane's unit normals (cached in the scene on the memo path, else
    // in a per-lane segment of the thread scratch), then add them all in
    // one fused row-major pass over the SoA buffer.
    const double s = std::sqrt(n_total / 2.0);
    const double* units[kn::kLaneWidth];
    dsp::RVec& noise = scratch.noise_scratch;
    if (scenes == nullptr) noise.resize(2 * n * count);
    for (std::size_t l = 0; l < count; ++l) {
      dsp::Rng nrng = batch.lane_rng[l].fork();
      if (scenes != nullptr) {
        dsp::RVec& cached = scenes[l].noise_units_;
        if (cached.empty()) {
          cached.resize(2 * n);
          nrng.fill_gaussian(cached.data(), cached.size());
        }
        units[l] = cached.data();
      } else {
        double* seg = noise.data() + l * 2 * n;
        nrng.fill_gaussian(seg, 2 * n);
        units[l] = seg;
      }
    }
    kn::lanes_add_scaled_pairs_multi(soa, n, count, s, units);
  }

  // The rf_input_probe tap of the graph: the post-noise, pre-front-end
  // scene, kept by the per-packet calls only.
  if (single != nullptr)
    last_rf_input_.assign(ws_.scene_a.begin(), ws_.scene_a.end());

  // --- RF front-end ---------------------------------------------------------
  if (cfg_.rf_engine == RfEngine::kSystemLevel) {
    // Constructed once per link; begin_lanes() clears every lane and each
    // lane reseeds from its packet rng, which equals fresh construction, so
    // the construction rng is irrelevant.
    if (!ws_.frontend)
      ws_.frontend = std::make_unique<rf::DoubleConversionReceiver>(
          cfg_.rf, dsp::Rng(packet_seed(cfg_.seed, begin_index)));
    rf::DoubleConversionReceiver& fe = *ws_.frontend;
    fe.begin_lanes(count);
    for (std::size_t l = 0; l < count; ++l) {
      fe.reseed_lanes(l, batch.lane_rng[l].fork());
      dsp::RVec* lna_tape = nullptr;
      rf::ShapedNoiseTape* flicker_tape = nullptr;
      if (scenes != nullptr) {
        // A tape is usable only when empty (record) or complete (replay);
        // anything else would desync the lane rng stream mid-buffer, so
        // draw fresh instead. TxScene::reset() clears tapes on rebuild,
        // which makes a same-length stale tape impossible. The flicker
        // source checks its tape's shape itself.
        TxScene& sc = scenes[l];
        if (sc.lna_tape_.empty() || sc.lna_tape_.size() == 2 * n)
          lna_tape = &sc.lna_tape_;
        const std::size_t taped = sc.flicker_tape_.noise.size();
        if (taped == 0 || taped == 2 * n) flicker_tape = &sc.flicker_tape_;
      }
      fe.set_lane_tapes(l, lna_tape, flicker_tape);
    }
    fe.process_tile_lanes(soa, n, count);
  } else if (cfg_.rf_engine == RfEngine::kCosim) {
    // The co-simulated front end, built once per link like the
    // system-level one and reseeded per lane at the graph's fork. No noise
    // tapes: with noise functions on, the fine-rate streams are
    // analog_oversample times the scene's length, so each lane draws from
    // its own rng.
    if (!ws_.cosim)
      ws_.cosim = std::make_unique<sim::CosimRfReceiver>(
          cfg_.rf, cfg_.cosim, dsp::Rng(packet_seed(cfg_.seed, begin_index)));
    sim::CosimRfReceiver& fe = *ws_.cosim;
    fe.begin_lanes(count);
    for (std::size_t l = 0; l < count; ++l)
      fe.reseed_lanes(l, batch.lane_rng[l].fork());
    fe.process_tile_lanes(soa, n, count);
  } else if (cfg_.rf_engine == RfEngine::kCustom) {
    // One caller-supplied block per lane, built at the graph's fork and run
    // at width 1 over the lane's whole buffer: a block may depend on how
    // its input is split (see RfBlock). Width 1 runs it in place on the
    // scene buffer; wider waves unpack each lane into the scene buffer.
    for (std::size_t l = 0; l < count; ++l) {
      const auto block = cfg_.custom_rf(batch.lane_rng[l].fork());
      if (in_place) {
        block->process_tile_lanes(soa, n, 1);
      } else {
        ws_.scene_a.resize(n);
        kn::lanes_unpack(soa, n, count, l, ws_.scene_a.data());
        block->process_tile_lanes(
            reinterpret_cast<double*>(ws_.scene_a.data()), n, 1);
        kn::lanes_pack(ws_.scene_a.data(), n, count, l, soa);
      }
    }
  }

  // --- Decimation + DSP receiver, one lane at a time ------------------------
  for (std::size_t l = 0; l < count; ++l) {
    TxScene& sc = scenes != nullptr ? scenes[l] : batch.local_scenes[l];
    if (os > 1) {
      last_rx_.resize(base_units);
      if (cfg_.rf_engine == RfEngine::kNone) {
        // Idealized front-end: a perfect digital anti-alias + decimate.
        const dsp::RVec& taps = dsp::resampling_taps(os);
        kn::lanes_fir_decim(soa, n, count, l, taps.data(), taps.size(), os,
                            last_rx_.data());
      } else {
        // Physical ADC sampling: the analog output sampled raw.
        kn::lanes_unpack_decim(soa, n, count, l, os, last_rx_.data());
      }
    } else {
      last_rx_.resize(n);
      kn::lanes_unpack(soa, n, count, l, last_rx_.data());
    }
    out[l] = receiver_epilogue(sc, single != nullptr ? single->rx_psdu
                                                     : nullptr);
  }
  return true;
}

}  // namespace wlansim::core
