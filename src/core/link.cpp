#include "core/link.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "channel/awgn.h"
#include "dsp/kernels.h"
#include "dsp/mathutil.h"
#include "dsp/resample.h"
#include "phy80211a/bits.h"
#include "rf/amplifier.h"
#include "rf/filters.h"
#include "rf/mixer.h"
#include "rf/receiver_chain.h"
#include "sim/sweep.h"

namespace wlansim::core {

std::uint64_t packet_seed(std::uint64_t seed, std::uint64_t idx) {
  std::uint64_t z = seed + (idx + 1) * 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

namespace {

/// Zero-padding the dataflow engine appends after the longest source so
/// every streaming filter flushes (Graph::run's `tail`, in base-rate units).
constexpr std::size_t kFlushTail = 64;

}  // namespace

void validate(const LinkConfig& cfg) {
  if (cfg.oversample == 0)
    throw std::invalid_argument("link: zero oversampling factor");
  if (cfg.psdu_bytes == 0 || cfg.psdu_bytes > 4095)
    throw std::invalid_argument("link: psdu_bytes must be 1..4095");
  const double fs = phy::kSampleRate * static_cast<double>(cfg.oversample);
  if (cfg.interferer.has_value() &&
      !channel::offset_fits_rate(cfg.interferer->offset_hz, fs))
    throw std::invalid_argument(
        "link: adjacent channel needs |offset_hz| + 10 MHz <= fs/2");
  // The clock-offset resampling ratio 1 + ppm * 1e-6 must be positive, and
  // below 2 so one packet cannot stretch its scene without bound.
  if (!(std::abs(cfg.sco_ppm) < 1e6))
    throw std::invalid_argument("link: sco_ppm must lie in (-1e6, 1e6)");
  // The baseband filter is designed at the rate its front-end runs at.
  double rf_fs = 0.0;
  if (cfg.rf_engine == RfEngine::kSystemLevel) rf_fs = fs;
  if (cfg.rf_engine == RfEngine::kCosim)
    rf_fs = fs * static_cast<double>(cfg.cosim.analog_oversample);
  if (rf_fs > 0.0 &&
      !rf::corner_fits_rate(
          cfg.rf.bb_filter_edge_hz * cfg.rf.bb_bandwidth_factor, rf_fs))
    throw std::invalid_argument(
        "link: bb_bandwidth_factor puts the baseband filter corner outside "
        "(0, fs/2)");
}

WlanLink::WlanLink(LinkConfig cfg) : cfg_(std::move(cfg)), rx_(cfg_.receiver) {
  validate(cfg_);
  cfg_.rf.sample_rate_hz =
      phy::kSampleRate * static_cast<double>(cfg_.oversample);
}

WlanLink::ThreadScratch& WlanLink::thread_scratch() {
  thread_local ThreadScratch scratch;
  return scratch;
}

PacketResult WlanLink::run_packet(std::uint64_t packet_index) {
  return run_packet_with_payload({}, packet_index, nullptr);
}

bool WlanLink::use_direct_path() const {
  // Co-simulation goes through the graph; everything else runs directly.
  // Caller-supplied (kCustom) blocks are constructed per packet on both
  // paths, so the direct scene gives them the same lifecycle the graph
  // did — and the same fast engine the built-in front-end enjoys.
  const bool supported = cfg_.rf_engine == RfEngine::kNone ||
                         cfg_.rf_engine == RfEngine::kSystemLevel ||
                         (cfg_.rf_engine == RfEngine::kCustom &&
                          cfg_.custom_rf != nullptr);
  switch (cfg_.packet_path) {
    case PacketPath::kGraph:
      return false;
    case PacketPath::kDirect:
      return supported;
    case PacketPath::kAuto:
      return supported && cfg_.mode == sim::ExecutionMode::kCompiled;
  }
  return false;
}

PacketResult WlanLink::run_packet_with_payload(
    std::span<const std::uint8_t> psdu, std::uint64_t packet_index,
    phy::Bytes* rx_psdu) {
  return run_packet_impl(psdu, packet_index, rx_psdu, nullptr);
}

PacketResult WlanLink::run_packet_memo(std::uint64_t packet_index,
                                       TxScene& scene) {
  return run_packet_impl({}, packet_index, nullptr, &scene);
}

PacketResult WlanLink::run_packet_impl(std::span<const std::uint8_t> psdu,
                                       std::uint64_t packet_index,
                                       phy::Bytes* rx_psdu, TxScene* scene) {
  // Scene replay: the TX waveform, impairments, and interferer for this
  // packet index were already built by an earlier run whose config differs
  // only in noise level. Restore the packet RNG at the noise fork and run
  // just the noise + front-end + receiver half.
  if (scene != nullptr && scene->valid_ &&
      scene->packet_index_ == packet_index && psdu.empty() &&
      use_direct_path()) {
    ws_.scene_a.assign(scene->scene_.begin(), scene->scene_.end());
    dsp::Rng rng = scene->rng_post_tx_;
    finish_scene_direct(scene->base_units_, rng, &scene->noise_units_);
    return receiver_epilogue(scene->payload_, nullptr, nullptr, scene,
                             rx_psdu);
  }

  // The scene can only be captured on the direct path with a generated
  // payload; anything else runs unmemoized.
  const bool memoize =
      scene != nullptr && psdu.empty() && use_direct_path();
  if (scene != nullptr) scene->reset();

  dsp::Rng rng(packet_seed(cfg_.seed, packet_index));

  // --- Transmit side (20 Msps) --------------------------------------------
  phy::Transmitter::Config txc;
  txc.scrambler_seed =
      static_cast<std::uint8_t>(1 + rng.uniform_int(0, 126));
  txc.output_power_dbm = cfg_.rx_power_dbm;
  phy::Transmitter tx(txc);
  const phy::Bytes payload =
      psdu.empty() ? phy::random_bytes(cfg_.psdu_bytes, rng)
                   : phy::Bytes(psdu.begin(), psdu.end());
  const phy::Frame frame{cfg_.rate, payload};
  dsp::CVec wave = tx.modulate(frame);

  // Optional multipath (block-static per packet, applied at 20 Msps).
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

  // --- Channel + RF front-end ----------------------------------------------
  if (memoize) {
    const std::size_t base_units = build_scene_prenoise(padded, rng);
    scene->valid_ = true;
    scene->packet_index_ = packet_index;
    scene->scrambler_seed_ = txc.scrambler_seed;
    scene->payload_ = payload;
    scene->scene_.assign(ws_.scene_a.begin(), ws_.scene_a.end());
    scene->base_units_ = base_units;
    scene->rng_post_tx_ = rng;
    scene->noise_units_.clear();
    finish_scene_direct(base_units, rng, &scene->noise_units_);
  } else if (use_direct_path()) {
    run_scene_direct(padded, rng);
  } else {
    run_scene_graph(std::move(padded), rng);
  }

  return receiver_epilogue(payload, &tx, &frame, memoize ? scene : nullptr,
                           rx_psdu);
}

PacketResult WlanLink::receiver_epilogue(const phy::Bytes& payload,
                                         const phy::Transmitter* tx,
                                         const phy::Frame* frame,
                                         TxScene* scene, phy::Bytes* rx_psdu) {
  // --- DSP receiver ---------------------------------------------------------
  const phy::RxResult res = rx_.receive(last_rx_);

  PacketResult out;
  out.bits = 8 * payload.size();
  out.cfo_norm = res.cfo_norm;
  const bool ok = res.header_ok && res.signal.length == payload.size() &&
                  res.psdu.size() == payload.size();
  out.decoded = ok;
  if (!ok) {
    out.bit_errors = out.bits / 2;  // undecoded: half the bits on average
    return out;
  }
  phy::BerCounter ctr;
  ctr.add_packet(payload, res.psdu, true);
  out.bit_errors = ctr.bit_errors();
  if (rx_psdu != nullptr) *rx_psdu = res.psdu;

  // EVM against the transmitted constellation (the equalizer's channel
  // estimate removes the chain gain, so points are directly comparable).
  // The reference is a pure function of (scrambler seed, frame), so a
  // memoized scene computes it once and reuses it at every noise level.
  const std::vector<dsp::CVec>* ref = nullptr;
  std::vector<dsp::CVec> local_ref;
  if (scene != nullptr && scene->valid_) {
    if (!scene->ref_points_valid_) {
      if (tx != nullptr) {
        scene->ref_points_ = tx->data_symbol_points(*frame);
      } else {
        phy::Transmitter::Config txc;
        txc.scrambler_seed = scene->scrambler_seed_;
        txc.output_power_dbm = cfg_.rx_power_dbm;
        const phy::Transmitter stx(txc);
        const phy::Frame sframe{cfg_.rate, scene->payload_};
        scene->ref_points_ = stx.data_symbol_points(sframe);
      }
      scene->ref_points_valid_ = true;
    }
    ref = &scene->ref_points_;
  } else {
    local_ref = tx->data_symbol_points(*frame);
    ref = &local_ref;
  }
  phy::EvmCounter evm;
  const std::size_t nsym = std::min(ref->size(), res.data_points.size());
  for (std::size_t s = 0; s < nsym; ++s)
    evm.add(res.data_points[s], (*ref)[s]);
  out.evm_rms = evm.evm_rms();
  return out;
}

// Allocation-free steady-state replica of the dataflow graph below. Every
// node in that graph is a per-sample streaming operator, so evaluating the
// chain whole-buffer in the same sample order — with the same filter taps,
// the same rng.fork() sequence, and the graph's run length — produces
// bit-identical output while skipping the per-packet graph assembly, FIFO
// churn, and block construction (notably the flicker source's 32k-sample
// spectral calibration).
void WlanLink::run_scene_direct(const dsp::CVec& padded, dsp::Rng& rng) {
  const std::size_t base_units = build_scene_prenoise(padded, rng);
  finish_scene_direct(base_units, rng, nullptr);
}

std::size_t WlanLink::build_scene_prenoise(const dsp::CVec& padded,
                                           dsp::Rng& rng) {
  const double p_sig = dsp::dbm_to_watts(cfg_.rx_power_dbm);
  const double fs_over = cfg_.rf.sample_rate_hz;
  const std::size_t os = cfg_.oversample;
  const std::size_t over_len = padded.size() * os;

  dsp::CVec& a = ws_.scene_a;

  // Run length: the graph pumps every source for the longest source's
  // duration (in base-rate units) plus the flush tail; shorter sources pad
  // with zeros.
  std::size_t base_units;
  if (cfg_.sco_ppm != 0.0) {
    // Sampling-clock offset: stretch the oversampled waveform by the ppm
    // ratio before it enters the scene (the transmit DAC clock error).
    dsp::CVec wave_over = dsp::upsample(padded, os);
    wave_over = dsp::fractional_resample(wave_over, 1.0 + cfg_.sco_ppm * 1e-6);
    base_units = (wave_over.size() + os - 1) / os + kFlushTail;
    if (cfg_.interferer.has_value())
      base_units = std::max(base_units, padded.size() + kFlushTail);
    a.assign(base_units * os, dsp::Cplx{0.0, 0.0});
    std::copy(wave_over.begin(), wave_over.end(), a.begin());
  } else {
    base_units = padded.size() + kFlushTail;
    if (os > 1) {
      // UpsampleNode semantics: zero-stuff scaled input streamed through
      // the image-reject lowpass from cleared state. The polyphase kernel
      // skips the structurally-zero products and reads `padded` directly,
      // but sums the surviving terms in the same order, so its output is
      // bit-identical to the zero-stuff + stream formulation.
      if (ws_.up_taps.empty()) ws_.up_taps = dsp::resampling_taps(os);
      const std::size_t ntaps = ws_.up_taps.size();
      // The lead/tail pads are exact +0.0 and a filter window of +-0.0
      // inputs accumulates to +0.0 (the accumulator starts at +0.0 and
      // adding +-0.0 never changes it), so outputs whose windows never
      // touch the nonzero span equal the zero fill bit-for-bit. Run the
      // kernel only over the span that can produce nonzero output.
      std::size_t lo = 0, hi = padded.size();
      const dsp::Cplx zero{0.0, 0.0};
      while (lo < hi && padded[lo] == zero) ++lo;
      while (hi > lo && padded[hi - 1] == zero) --hi;
      a.assign(base_units * os, zero);
      if (lo < hi) {
        const std::size_t q0 = lo * os;
        const std::size_t q_end =
            std::min(a.size(), (hi + ntaps - 1) * os);
        dsp::kernels::fir_interp(ws_.up_taps.data(), ntaps, os,
                                 padded.data() + lo, padded.size() - lo,
                                 static_cast<double>(os), a.data() + q0,
                                 q_end - q0);
      }
    } else {
      a.assign(base_units, dsp::Cplx{0.0, 0.0});
      std::copy(padded.begin(), padded.end(), a.begin());
    }
  }

  // The fork order below must match run_scene_graph exactly — every
  // consumer draws from the same packet stream whether or not its block is
  // freshly constructed.
  if (cfg_.tx_pa_backoff_db.has_value()) {
    if (!ws_.tx_pa) {
      rf::AmplifierConfig pa;
      pa.label = "tx_pa";
      pa.gain_db = 0.0;
      pa.model = cfg_.tx_pa_model;
      pa.p1db_in_dbm = cfg_.rx_power_dbm + *cfg_.tx_pa_backoff_db;
      pa.am_pm_max_deg = cfg_.tx_pa_am_pm_max_deg;
      pa.noise_enabled = false;
      ws_.tx_pa = std::make_unique<rf::Amplifier>(pa, fs_over, rng.fork());
    } else {
      ws_.tx_pa->reset();
      ws_.tx_pa->set_rng(rng.fork());
    }
    ws_.tx_pa->process_into(a, a);
  }

  if (cfg_.tx_iq_gain_imbalance_db != 0.0 ||
      cfg_.tx_iq_phase_error_deg != 0.0 || cfg_.tx_lo_leakage_rel != 0.0) {
    if (!ws_.tx_upconverter) {
      rf::MixerConfig up;
      up.label = "tx_upconverter";
      up.iq_gain_imbalance_db = cfg_.tx_iq_gain_imbalance_db;
      up.iq_phase_error_deg = cfg_.tx_iq_phase_error_deg;
      up.dc_offset = cfg_.tx_lo_leakage_rel * std::sqrt(p_sig);
      up.noise_enabled = false;
      ws_.tx_upconverter =
          std::make_unique<rf::Mixer>(up, fs_over, rng.fork());
    } else {
      ws_.tx_upconverter->reset();
      ws_.tx_upconverter->set_rng(rng.fork());
    }
    ws_.tx_upconverter->process_into(a, a);
  }

  if (cfg_.interferer.has_value()) {
    dsp::Rng irng = rng.fork();
    dsp::CVec& jam = thread_scratch().jam;
    channel::make_interferer_into(jam, over_len, fs_over, p_sig,
                                  *cfg_.interferer, irng);
    const std::size_t n = std::min(jam.size(), a.size());
    for (std::size_t i = 0; i < n; ++i) a[i] += jam[i];
  }

  return base_units;
}

void WlanLink::finish_scene_direct(std::size_t base_units, dsp::Rng& rng,
                                   dsp::RVec* noise_units) {
  const double p_sig = dsp::dbm_to_watts(cfg_.rx_power_dbm);
  const double fs_over = cfg_.rf.sample_rate_hz;
  const std::size_t os = cfg_.oversample;

  dsp::CVec& a = ws_.scene_a;
  ThreadScratch& scratch = thread_scratch();

  double n_total =
      cfg_.antenna_noise_density_dbm_hz > -250.0
          ? dsp::dbm_to_watts(cfg_.antenna_noise_density_dbm_hz) * fs_over
          : 0.0;
  if (cfg_.snr_db.has_value()) {
    n_total += p_sig / dsp::from_db(*cfg_.snr_db) *
               static_cast<double>(cfg_.oversample);
  }
  if (n_total > 0.0) {
    dsp::Rng nrng = rng.fork();
    if (noise_units == nullptr) {
      // Bulk form of `a[i] += cgaussian(n_total)`: cgaussian draws two
      // unit normals and scales each by s = sqrt(v/2), so filling the
      // normals first and applying the scaled pairs performs the exact
      // same arithmetic in the exact same stream order.
      scratch.noise_scratch.resize(2 * a.size());
      nrng.fill_gaussian(scratch.noise_scratch.data(),
                         scratch.noise_scratch.size());
      const double s = std::sqrt(n_total / 2.0);
      dsp::kernels::add_scaled_pairs(a.data(), a.size(), s,
                                     scratch.noise_scratch.data());
    } else {
      // Memoized noise: cache the unit normals on the first pass and
      // replay them at every other noise level. cgaussian(v) evaluates
      // s*u0, s*u1 with s = sqrt(v/2), so scaling the cached normals here
      // performs the exact same arithmetic as the direct loop above.
      if (noise_units->empty()) {
        noise_units->resize(2 * a.size());
        nrng.fill_gaussian(noise_units->data(), noise_units->size());
      }
      const double s = std::sqrt(n_total / 2.0);
      dsp::kernels::add_scaled_pairs(a.data(), a.size(), s,
                                     noise_units->data());
    }
  }

  const dsp::CVec* rx_over = &a;
  if (cfg_.rf_engine == RfEngine::kSystemLevel) {
    if (!ws_.frontend) {
      ws_.frontend =
          std::make_unique<rf::DoubleConversionReceiver>(cfg_.rf, rng.fork());
    } else {
      ws_.frontend->reset();
      ws_.frontend->reseed(rng.fork());
    }
    // Runs the fused ChainExecutor: the whole oversampled scene streams
    // through the front-end cascade in L1-sized tiles (cfg_.rf.tile_size,
    // 0 = auto), bit-identical to block-at-a-time execution and to the
    // 512-chunk graph path by the tile-continuity contract.
    ws_.frontend->process_into(a, scratch.scene_b);
    rx_over = &scratch.scene_b;
  } else if (cfg_.rf_engine == RfEngine::kCustom) {
    // Constructed per packet, exactly like the graph's rf_frontend_custom
    // node (the factory owns any state reset policy).
    const auto frontend = cfg_.custom_rf(rng.fork());
    frontend->process_into(a, scratch.scene_b);
    rx_over = &scratch.scene_b;
  }

  if (os > 1) {
    last_rx_.resize(base_units);
    if (cfg_.rf_engine == RfEngine::kNone) {
      // DownsampleNode: the anti-alias lowpass delay line advances on every
      // sample but only the kept phase-0 outputs need their dot product.
      if (!ws_.down_filt)
        ws_.down_filt =
            std::make_unique<dsp::FirFilter>(dsp::resampling_taps(os));
      ws_.down_filt->reset();
      ws_.down_filt->process_decim_into(*rx_over, os, last_rx_);
    } else {
      // DecimateNode: the ADC samples the analog output raw.
      for (std::size_t i = 0, oi = 0; i < rx_over->size(); i += os)
        last_rx_[oi++] = (*rx_over)[i];
    }
  } else {
    last_rx_.assign(rx_over->begin(), rx_over->end());
  }

  // The rf_input_probe tap: `a` still holds the post-noise/pre-frontend
  // signal (the front-end wrote into scene_b), so hand the buffer over
  // instead of copying it. The workspace gets it back at the next assign.
  std::swap(last_rf_input_, a);
}

// Reference path: assemble and run the dataflow block diagram. Required for
// interpreted execution, co-simulation, and custom RF blocks; also the
// baseline the direct path is verified against.
void WlanLink::run_scene_graph(dsp::CVec padded, dsp::Rng& rng) {
  const double p_sig = dsp::dbm_to_watts(cfg_.rx_power_dbm);
  const double fs_over = cfg_.rf.sample_rate_hz;
  const std::size_t over_len = padded.size() * cfg_.oversample;

  sim::Graph g;
  sim::Node* head = nullptr;
  if (cfg_.sco_ppm != 0.0) {
    // Sampling-clock offset: stretch the oversampled waveform by the ppm
    // ratio before it enters the scene (the transmit DAC clock error).
    dsp::CVec wave_over = dsp::upsample(padded, cfg_.oversample);
    wave_over = dsp::fractional_resample(wave_over, 1.0 + cfg_.sco_ppm * 1e-6);
    auto* src = g.add<sim::SourceNode>("tx_wave_sco", std::move(wave_over));
    src->set_rate_weight(cfg_.oversample);
    head = src;
  } else {
    auto* src = g.add<sim::SourceNode>("tx_wave", std::move(padded));
    head = src;
    if (cfg_.oversample > 1) {
      auto* up = g.add<sim::UpsampleNode>("oversample", cfg_.oversample);
      g.connect(head, up);
      head = up;
    }
  }

  if (cfg_.tx_pa_backoff_db.has_value()) {
    rf::AmplifierConfig pa;
    pa.label = "tx_pa";
    pa.gain_db = 0.0;
    pa.model = cfg_.tx_pa_model;
    pa.p1db_in_dbm = cfg_.rx_power_dbm + *cfg_.tx_pa_backoff_db;
    pa.am_pm_max_deg = cfg_.tx_pa_am_pm_max_deg;
    pa.noise_enabled = false;  // PA noise is negligible next to its distortion
    auto* pa_node = g.add<sim::RfNode>(
        "tx_pa", std::make_unique<rf::Amplifier>(pa, fs_over, rng.fork()));
    g.connect(head, pa_node);
    head = pa_node;
  }

  if (cfg_.tx_iq_gain_imbalance_db != 0.0 ||
      cfg_.tx_iq_phase_error_deg != 0.0 || cfg_.tx_lo_leakage_rel != 0.0) {
    rf::MixerConfig up;
    up.label = "tx_upconverter";
    up.iq_gain_imbalance_db = cfg_.tx_iq_gain_imbalance_db;
    up.iq_phase_error_deg = cfg_.tx_iq_phase_error_deg;
    up.dc_offset = cfg_.tx_lo_leakage_rel * std::sqrt(p_sig);
    up.noise_enabled = false;
    auto* up_node = g.add<sim::RfNode>(
        "tx_upconverter",
        std::make_unique<rf::Mixer>(up, fs_over, rng.fork()));
    g.connect(head, up_node);
    head = up_node;
  }

  if (cfg_.interferer.has_value()) {
    dsp::Rng irng = rng.fork();
    dsp::CVec jam = channel::make_interferer(over_len, fs_over, p_sig,
                                             *cfg_.interferer, irng);
    auto* isrc = g.add<sim::SourceNode>("interferer", std::move(jam));
    isrc->set_rate_weight(cfg_.oversample);
    auto* add = g.add<sim::AddNode>("air_sum", 2);
    g.connect(head, 0, add, 0);
    g.connect(isrc, 0, add, 1);
    head = add;
  }

  // Channel noise: the antenna thermal floor plus (optionally) excess AWGN
  // sized for the requested SNR. SNR is defined against the in-band
  // (20 MHz) noise; the full-rate white noise carries `oversample` times
  // that power.
  double n_total =
      cfg_.antenna_noise_density_dbm_hz > -250.0
          ? dsp::dbm_to_watts(cfg_.antenna_noise_density_dbm_hz) * fs_over
          : 0.0;
  if (cfg_.snr_db.has_value()) {
    n_total += p_sig / dsp::from_db(*cfg_.snr_db) *
               static_cast<double>(cfg_.oversample);
  }
  if (n_total > 0.0) {
    dsp::Rng nrng = rng.fork();
    auto* awgn = g.add<sim::FunctionNode>(
        "awgn", [n_total, nrng](std::span<const dsp::Cplx> in) mutable {
          return channel::add_awgn(in, n_total, nrng);
        });
    g.connect(head, awgn);
    head = awgn;
  }

  auto* rf_probe = g.add<sim::ProbeNode>("rf_input_probe");
  g.connect(head, rf_probe);
  head = rf_probe;

  switch (cfg_.rf_engine) {
    case RfEngine::kNone:
      break;
    case RfEngine::kSystemLevel: {
      auto* rf = g.add<sim::RfNode>(
          "rf_frontend",
          std::make_unique<rf::DoubleConversionReceiver>(cfg_.rf, rng.fork()));
      g.connect(head, rf);
      head = rf;
      break;
    }
    case RfEngine::kCosim: {
      auto* rf = g.add<sim::RfNode>(
          "rf_frontend_cosim",
          std::make_unique<sim::CosimRfReceiver>(cfg_.rf, cfg_.cosim,
                                                 rng.fork()));
      g.connect(head, rf);
      head = rf;
      break;
    }
    case RfEngine::kCustom: {
      if (!cfg_.custom_rf)
        throw std::invalid_argument("WlanLink: kCustom needs custom_rf");
      auto* rf =
          g.add<sim::RfNode>("rf_frontend_custom", cfg_.custom_rf(rng.fork()));
      g.connect(head, rf);
      head = rf;
      break;
    }
  }

  if (cfg_.oversample > 1) {
    sim::Node* down = nullptr;
    if (cfg_.rf_engine == RfEngine::kNone) {
      // Idealized front-end: a perfect digital anti-alias + decimate.
      down = g.add<sim::DownsampleNode>("ideal_decimate", cfg_.oversample);
    } else {
      // Physical ADC sampling: whatever the analog channel-select filter
      // left beyond Nyquist aliases into band.
      down = g.add<sim::DecimateNode>("adc_sampling", cfg_.oversample);
    }
    g.connect(head, down);
    head = down;
  }
  auto* sink = g.add<sim::SinkNode>("rx_wave");
  g.connect(head, sink);

  g.run(cfg_.mode, 512, /*tail=*/kFlushTail);

  last_rx_ = sink->data();
  last_rf_input_ = rf_probe->data();
}

BerResult WlanLink::run_ber(std::size_t num_packets) {
  BerResult agg;
  double evm_acc = 0.0;
  std::size_t evm_n = 0;
  for (std::size_t i = 0; i < num_packets; ++i) {
    const PacketResult r = run_packet(i);
    ++agg.packets;
    agg.bits += r.bits;
    agg.bit_errors += r.bit_errors;
    if (r.bit_errors > 0 || !r.decoded) ++agg.packet_errors;
    if (!r.decoded) {
      ++agg.packets_lost;
    } else {
      evm_acc += r.evm_rms;
      ++evm_n;
    }
  }
  agg.evm_rms_avg = evm_n ? evm_acc / static_cast<double>(evm_n) : 0.0;
  agg.ber_ci_rel = sim::wilson_rel_halfwidth(agg.bit_errors, agg.bits,
                                             kDefaultConfidenceZ);
  return agg;
}

}  // namespace wlansim::core
