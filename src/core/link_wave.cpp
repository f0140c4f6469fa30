// The lockstep packet wave: width-W SoA batching of the noise + RF +
// decimation half of the link. Each lane reproduces the scalar per-packet
// path bit for bit — lanes share loop control and memory traffic, never
// arithmetic — so run_packet_wave is a pure throughput optimization under
// the determinism contract of core/parallel.h.
//
// Per lane the scalar sequence being replicated is exactly
// run_packet_impl: rng(packet_seed) -> scrambler seed -> payload ->
// modulate -> [fading] -> pad -> build_scene_prenoise (TX impairments +
// interferer, per-lane AoS since it is packet-specific and cheap), then
// pack into the SoA buffer and run the shared half in lockstep:
// fork 1 = AWGN normals, fork 2 = front-end reseed, fused RF lane tiles,
// phase-0 decimation, DSP receiver epilogue.
#include <cmath>
#include <memory>
#include <utility>

#include "channel/fading.h"
#include "core/packet_batch.h"
#include "dsp/kernels.h"
#include "dsp/mathutil.h"
#include "dsp/resample.h"
#include "phy80211a/bits.h"
#include "rf/receiver_chain.h"

namespace wlansim::core {

bool WlanLink::run_packet_wave(std::uint64_t begin_index, std::size_t count,
                               PacketBatch& batch, TxScene* scenes,
                               PacketResult* out) {
  namespace kn = dsp::kernels;
  if (count < 2 || count > kn::kLaneWidth) return false;
  if (!use_direct_path()) return false;
  if (cfg_.rf_engine != RfEngine::kNone &&
      cfg_.rf_engine != RfEngine::kSystemLevel)
    return false;

  if (cfg_.rf_engine == RfEngine::kSystemLevel) {
    // The front-end is constructed once per link; the construction rng is
    // irrelevant because every lane (and every later scalar packet) resets
    // and reseeds it before use — the documented reset()+reseed() ==
    // fresh-construction equivalence.
    if (!ws_.frontend)
      ws_.frontend = std::make_unique<rf::DoubleConversionReceiver>(
          cfg_.rf, dsp::Rng(packet_seed(cfg_.seed, begin_index)));
    ws_.frontend->reset();
    if (!ws_.frontend->supports_lanes()) return false;
  }

  // --- Per-lane TX build or scene replay (packet-specific, sequential) ----
  batch.local_scenes.resize(count);
  batch.lane_rng.resize(count);
  std::size_t scene_len = 0;
  std::size_t base_units = 0;

  for (std::size_t l = 0; l < count; ++l) {
    const std::uint64_t idx = begin_index + l;
    TxScene* sc = scenes != nullptr ? &scenes[l] : &batch.local_scenes[l];
    const dsp::Cplx* src;
    std::size_t lane_len, lane_units;

    if (scenes != nullptr && sc->valid_ && sc->packet_index_ == idx) {
      // Replay: restore the packet rng at the noise fork.
      batch.lane_rng[l] = sc->rng_post_tx_;
      src = sc->scene_.data();
      lane_len = sc->scene_.size();
      lane_units = sc->base_units_;
    } else {
      sc->reset();
      dsp::Rng rng(packet_seed(cfg_.seed, idx));

      phy::Transmitter::Config txc;
      txc.scrambler_seed =
          static_cast<std::uint8_t>(1 + rng.uniform_int(0, 126));
      txc.output_power_dbm = cfg_.rx_power_dbm;
      phy::Transmitter tx(txc);
      phy::Bytes payload = phy::random_bytes(cfg_.psdu_bytes, rng);
      const phy::Frame frame{cfg_.rate, payload};
      dsp::CVec wave = tx.modulate(frame);

      if (cfg_.fading.has_value()) {
        channel::FadingConfig fc = *cfg_.fading;
        fc.sample_rate_hz = phy::kSampleRate;
        const channel::MultipathChannel mp(fc, rng);
        wave = mp.apply(wave);
      }

      dsp::CVec& padded = thread_scratch().padded;
      padded.clear();
      padded.reserve(cfg_.lead_samples + wave.size() + cfg_.tail_samples);
      padded.insert(padded.end(), cfg_.lead_samples, dsp::Cplx{0.0, 0.0});
      padded.insert(padded.end(), wave.begin(), wave.end());
      padded.insert(padded.end(), cfg_.tail_samples, dsp::Cplx{0.0, 0.0});

      lane_units = build_scene_prenoise(padded, rng);
      sc->valid_ = true;
      sc->packet_index_ = idx;
      sc->scrambler_seed_ = txc.scrambler_seed;
      sc->payload_ = std::move(payload);
      sc->base_units_ = lane_units;
      sc->rng_post_tx_ = rng;
      sc->noise_units_.clear();
      if (scenes != nullptr)
        sc->scene_.assign(ws_.scene_a.begin(), ws_.scene_a.end());
      batch.lane_rng[l] = rng;
      src = ws_.scene_a.data();
      lane_len = ws_.scene_a.size();
    }

    if (l == 0) {
      scene_len = lane_len;
      base_units = lane_units;
      if (scene_len == 0) return false;
      batch.soa.resize(2 * count * scene_len);
    } else if (lane_len != scene_len || lane_units != base_units) {
      // Same-config packets always match; bail to the scalar path if a
      // caller mixes configurations. Scenes built so far stay valid.
      return false;
    }
    kn::lanes_pack(src, scene_len, count, l, batch.soa.data());
  }

  double* soa = batch.soa.data();
  const std::size_t n = scene_len;
  const std::size_t os = cfg_.oversample;

  // --- Channel noise (fork 1 per lane, same arithmetic as the scalar
  // add_scaled_pairs path, just strided into the lane) --------------------
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
    const double s = std::sqrt(n_total / 2.0);
    // Gather every lane's unit normals first (cached in the scene on the
    // memo path, else in a per-lane segment of the batch scratch), then add
    // them all in one fused row-major pass over the SoA buffer.
    const double* units[dsp::kernels::kLaneWidth];
    dsp::RVec& noise = thread_scratch().noise_scratch;
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

  // --- RF front-end: all lanes through the fused tile loop ---------------
  if (cfg_.rf_engine == RfEngine::kSystemLevel) {
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
  }

  // --- Phase-0 decimation + DSP receiver, one lane at a time -------------
  for (std::size_t l = 0; l < count; ++l) {
    TxScene* sc = scenes != nullptr ? &scenes[l] : &batch.local_scenes[l];
    if (os > 1) {
      last_rx_.resize(base_units);
      if (cfg_.rf_engine == RfEngine::kNone) {
        if (batch.down_taps.empty()) batch.down_taps = dsp::resampling_taps(os);
        kn::lanes_fir_decim(soa, n, count, l, batch.down_taps.data(),
                            batch.down_taps.size(), os, last_rx_.data());
      } else {
        kn::lanes_unpack_decim(soa, n, count, l, os, last_rx_.data());
      }
    } else {
      last_rx_.resize(n);
      kn::lanes_unpack(soa, n, count, l, last_rx_.data());
    }
    // The scene always carries (scrambler seed, payload) here, so the EVM
    // reference reconstruction inside is bit-identical to the live-tx one
    // the unmemoized scalar path uses — a pure function of those two.
    out[l] = receiver_epilogue(sc->payload_, nullptr, nullptr, sc, nullptr);
  }
  return true;
}

}  // namespace wlansim::core
