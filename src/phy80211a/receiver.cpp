#include "phy80211a/receiver.h"

#include <array>
#include <cmath>

#include "phy80211a/convcode.h"
#include "phy80211a/interleaver.h"
#include "phy80211a/mapper.h"
#include "phy80211a/ofdm.h"
#include "phy80211a/scrambler.h"
#include "phy80211a/sync.h"

namespace wlansim::phy {

namespace {

/// Take the FFT window a few samples into the guard interval; the resulting
/// linear phase is common to channel estimate and data symbols and cancels
/// in equalization, while small timing errors and channel delay spread no
/// longer push the window past the symbol boundary.
constexpr std::size_t kTimingBackoff = 3;

}  // namespace

Receiver::Receiver() : Receiver(Config()) {}

Receiver::Receiver(Config cfg) : cfg_(cfg) {}

RxResult Receiver::decode_from(std::span<const dsp::Cplx> rx,
                               std::size_t lts_start, double cfo_total) const {
  RxResult res;
  res.detected = true;
  res.cfo_norm = cfo_total;
  res.frame_start = (lts_start >= kShortPreambleLen + 32)
                        ? lts_start - kShortPreambleLen - 32
                        : 0;

  if (lts_start < kTimingBackoff) return res;
  const std::size_t lts_win = lts_start - kTimingBackoff;
  if (lts_win + 2 * kNfft > rx.size()) return res;

  // With the FFT windows shifted into the guard by the same backoff, the
  // induced phase ramp is common to LTS and data and cancels out. The LTS
  // copies are contiguous, so shift both windows identically by taking
  // 128 samples starting at the backed-off position.
  ChannelEstimate est = estimate_channel(rx.subspan(lts_win, 2 * kNfft));
  if (cfg_.chanest_smoothing > 1)
    est = smooth_channel(est, cfg_.chanest_smoothing);

  // SIGNAL symbol: the batch path at one symbol, pilot polarity index 0.
  const std::size_t sig_fft = lts_start + 2 * kNfft + kCpLen - kTimingBackoff;
  if (sig_fft + kNfft > rx.size()) return res;
  std::array<dsp::Cplx, kNumDataCarriers> sig_data, sig_points;
  std::array<dsp::Cplx, kNumPilots> sig_pilots;
  std::array<double, kNumDataCarriers> sig_weights;
  ofdm_demodulate_symbols_into(rx.data() + sig_fft, kNfft, 1, sig_data.data(),
                               sig_pilots.data());
  equalize_symbols(sig_data.data(), sig_pilots.data(), 1,
                   /*first_symbol_index=*/0, est, cfg_.track_phase,
                   cfg_.track_timing, sig_points.data(), sig_weights.data());
  const auto header = decode_signal_field(sig_points, sig_weights);
  if (!header) return res;
  res.header_ok = true;
  res.signal = *header;

  const RateParams& p = rate_params(header->rate);
  const std::size_t nsym = num_data_symbols(header->rate, header->length);
  const std::size_t data_base = lts_start + 2 * kNfft + kSymbolLen;

  SoftBits soft_all;
  res.data_points.reserve(nsym);
  if (!demod_data(rx, data_base, nsym, header->rate, est, res, soft_all)) {
    res.header_ok = false;  // truncated frame
    return res;
  }

  const SoftBits mother = depuncture(soft_all, p.code_rate);
  // Scrambled pad bits after the tail leave the encoder in an arbitrary
  // state: start the traceback from the best survivor.
  Bits decoded = viterbi_decode(mother, /*terminated=*/false);

  // Descramble: recover the seed from the seven zero SERVICE bits.
  const Bits first7(decoded.begin(), decoded.begin() + 7);
  Scrambler descr(recover_scrambler_seed(first7));
  descr.process(decoded);

  const std::size_t psdu_bits = 8 * header->length;
  if (kServiceBits + psdu_bits > decoded.size()) {
    res.header_ok = false;
    return res;
  }
  const Bits payload(decoded.begin() + kServiceBits,
                     decoded.begin() + kServiceBits + psdu_bits);
  res.psdu = bits_to_bytes(payload);
  return res;
}

bool Receiver::demod_data(std::span<const dsp::Cplx> rx, std::size_t data_base,
                          std::size_t nsym, Rate rate,
                          const ChannelEstimate& est, RxResult& res,
                          SoftBits& soft_all) const {
  const RateParams& p = rate_params(rate);

  // The FFT windows advance by kSymbolLen, so the symbols that fit in the
  // buffer form a prefix: a truncated frame demodulates the symbols before
  // the cut.
  const std::size_t off = data_base + kCpLen - kTimingBackoff;
  std::size_t navail = 0;
  if (rx.size() >= off + kNfft)
    navail = std::min(nsym, (rx.size() - off - kNfft) / kSymbolLen + 1);

  if (navail > 0) {
    // Per-thread scratch: warm after the first packet, so the steady-state
    // data path performs no heap allocation outside the result containers.
    struct Workspace {
      dsp::CVec data;       // demodulated data bins, nsym x 48
      dsp::CVec pilots;     // demodulated pilot bins, nsym x 4
      dsp::CVec points;     // equalized points, nsym x 48
      std::vector<double> weights;  // CSI weights, nsym x 48
    };
    thread_local Workspace ws;
    ws.data.resize(navail * kNumDataCarriers);
    ws.pilots.resize(navail * kNumPilots);
    ws.points.resize(navail * kNumDataCarriers);
    ws.weights.resize(navail * kNumDataCarriers);

    // One batch FFT over every DATA symbol, lifting the 64-sample windows
    // straight out of the kSymbolLen-spaced frame.
    ofdm_demodulate_symbols_into(rx.data() + off, kSymbolLen, navail,
                                 ws.data.data(), ws.pilots.data());
    equalize_symbols(ws.data.data(), ws.pilots.data(), navail,
                     /*first_symbol_index=*/1, est, cfg_.track_phase,
                     cfg_.track_timing, ws.points.data(), ws.weights.data());

    // Demap with the deinterleave permutation fused in: symbol s's LLRs
    // land directly in decoder order at soft_all[s*ncbps + inv[j]].
    const Interleaver& il = interleaver_for(rate);
    const std::size_t* deint = il.inv().data();
    const Mapper mapper(p.modulation);
    soft_all.resize(navail * p.ncbps);
    for (std::size_t s = 0; s < navail; ++s) {
      const dsp::Cplx* pts = ws.points.data() + s * kNumDataCarriers;
      res.data_points.emplace_back(pts, pts + kNumDataCarriers);
      mapper.demap_soft_deinterleaved(
          std::span<const dsp::Cplx>(pts, kNumDataCarriers),
          std::span<const double>(ws.weights.data() + s * kNumDataCarriers,
                                  kNumDataCarriers),
          deint, soft_all.data() + s * p.ncbps);
    }
  }
  return navail == nsym;
}

RxResult Receiver::receive(std::span<const dsp::Cplx> rx) const {
  RxResult res;
  const auto det = detect_packet(rx, cfg_.detect_threshold);
  if (!det) return res;

  // Work on a CFO-corrected copy starting at the detection point.
  dsp::CVec buf(rx.begin() + static_cast<std::ptrdiff_t>(det->detect_index),
                rx.end());
  correct_cfo(buf, det->coarse_cfo_norm);

  // The long preamble begins no later than ~352 samples past detection
  // (detection can fire a little before the true frame start).
  const std::size_t search_end = std::min<std::size_t>(buf.size(), 420);
  const auto lts = locate_long_training(buf, 0, search_end);
  if (!lts) return res;

  const double residual = fine_cfo(buf, *lts);
  correct_cfo(buf, residual);

  RxResult out = decode_from(buf, *lts, det->coarse_cfo_norm + residual);
  out.frame_start += det->detect_index;
  return out;
}

RxResult Receiver::receive_at(std::span<const dsp::Cplx> rx,
                              std::size_t frame_start, double cfo_norm) const {
  if (frame_start >= rx.size()) return {};
  dsp::CVec buf(rx.begin() + static_cast<std::ptrdiff_t>(frame_start), rx.end());
  if (cfo_norm != 0.0) correct_cfo(buf, cfo_norm);
  const std::size_t lts_start = kShortPreambleLen + 32;
  if (buf.size() > lts_start + 2 * kNfft) {
    const double residual = fine_cfo(buf, lts_start);
    correct_cfo(buf, residual);
    RxResult out = decode_from(buf, lts_start, cfo_norm + residual);
    out.frame_start = frame_start;
    return out;
  }
  return {};
}

}  // namespace wlansim::phy
