#include "core/link.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "channel/awgn.h"
#include "core/packet_batch.h"
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
  if (cfg.rf_engine == RfEngine::kCustom && !cfg.custom_rf)
    throw std::invalid_argument("link: kCustom needs a custom_rf factory");
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

bool WlanLink::needs_graph() const {
  return cfg_.packet_path == PacketPath::kGraph ||
         cfg_.mode != sim::ExecutionMode::kCompiled;
}

PacketResult WlanLink::run_packet(std::uint64_t packet_index) {
  return run_packet_with_payload({}, packet_index, nullptr);
}

PacketResult WlanLink::run_packet_with_payload(
    std::span<const std::uint8_t> psdu, std::uint64_t packet_index,
    phy::Bytes* rx_psdu) {
  if (needs_graph()) return run_packet_graph(psdu, packet_index, rx_psdu);
  const SinglePacket single{psdu, rx_psdu};
  PacketResult out;
  run_wave(packet_index, 1, thread_scratch().batch, nullptr, &out, &single);
  return out;
}

PacketResult WlanLink::run_packet_memo(std::uint64_t packet_index,
                                       TxScene& scene) {
  if (needs_graph()) {
    scene.reset();
    return run_packet_graph({}, packet_index, nullptr);
  }
  const SinglePacket single;
  PacketResult out;
  run_wave(packet_index, 1, thread_scratch().batch, &scene, &out, &single);
  return out;
}

PacketResult WlanLink::run_packet_graph(std::span<const std::uint8_t> psdu,
                                        std::uint64_t packet_index,
                                        phy::Bytes* rx_psdu) {
  dsp::Rng rng(packet_seed(cfg_.seed, packet_index));
  TxScene scene;
  dsp::CVec padded = build_tx(psdu, rng, scene);
  run_scene_graph(std::move(padded), rng);
  return receiver_epilogue(scene, rx_psdu);
}

const dsp::CVec& WlanLink::build_tx(std::span<const std::uint8_t> psdu,
                                    dsp::Rng& rng, TxScene& scene) {
  phy::Transmitter::Config txc;
  txc.scrambler_seed =
      static_cast<std::uint8_t>(1 + rng.uniform_int(0, 126));
  txc.output_power_dbm = cfg_.rx_power_dbm;
  const phy::Transmitter tx(txc);
  scene.frame_.rate = cfg_.rate;
  if (psdu.empty())
    scene.frame_.psdu = phy::random_bytes(cfg_.psdu_bytes, rng);
  else
    scene.frame_.psdu.assign(psdu.begin(), psdu.end());
  dsp::CVec wave = tx.modulate(scene.frame_, &scene.ref_points_);

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
  return padded;
}

PacketResult WlanLink::receiver_epilogue(TxScene& scene, phy::Bytes* rx_psdu) {
  // --- DSP receiver ---------------------------------------------------------
  const phy::RxResult res = rx_.receive(last_rx_);
  const phy::Bytes& payload = scene.frame_.psdu;

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
  const std::span<const dsp::Cplx> ref(scene.ref_points_);
  phy::EvmCounter evm;
  const std::size_t nsym =
      std::min(ref.size() / phy::kNumDataCarriers, res.data_points.size());
  for (std::size_t s = 0; s < nsym; ++s)
    evm.add(res.data_points[s],
            ref.subspan(s * phy::kNumDataCarriers, phy::kNumDataCarriers));
  out.evm_rms = evm.evm_rms();
  return out;
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
      const dsp::RVec& up_taps = dsp::resampling_taps(os);
      const std::size_t ntaps = up_taps.size();
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
        dsp::kernels::fir_interp(up_taps.data(), ntaps, os,
                                 padded.data() + lo, padded.size() - lo,
                                 static_cast<double>(os), a.data() + q0,
                                 q_end - q0);
      }
    } else {
      a.assign(base_units, dsp::Cplx{0.0, 0.0});
      std::copy(padded.begin(), padded.end(), a.begin());
    }
  }

  // The fork order below must match run_scene_graph exactly: each block
  // is built once per link, and every packet clears it and seeds lane 0
  // with the rng a freshly constructed block would receive there.
  if (cfg_.tx_pa_backoff_db.has_value()) {
    if (!ws_.tx_pa) {
      rf::AmplifierConfig pa;
      pa.label = "tx_pa";
      pa.gain_db = 0.0;
      pa.model = cfg_.tx_pa_model;
      pa.p1db_in_dbm = cfg_.rx_power_dbm + *cfg_.tx_pa_backoff_db;
      pa.am_pm_max_deg = cfg_.tx_pa_am_pm_max_deg;
      pa.noise_enabled = false;
      ws_.tx_pa = std::make_unique<rf::Amplifier>(pa, fs_over, dsp::Rng{});
    }
    ws_.tx_pa->begin_lanes(1);
    ws_.tx_pa->set_lane_rng(0, rng.fork());
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
          std::make_unique<rf::Mixer>(up, fs_over, dsp::Rng{});
    }
    ws_.tx_upconverter->begin_lanes(1);
    ws_.tx_upconverter->set_lane_rng(0, rng.fork());
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

// Reference path: assemble and run the dataflow block diagram. Required for
// interpreted execution; also the baseline the packet wave is verified
// against, co-simulation included.
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
