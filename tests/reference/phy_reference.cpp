#include "phy_reference.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dsp/fft.h"
#include "dsp/mathutil.h"
#include "phy80211a/convcode.h"
#include "phy80211a/interleaver.h"
#include "phy80211a/mapper.h"
#include "phy80211a/ofdm.h"
#include "phy80211a/preamble.h"
#include "phy80211a/scrambler.h"
#include "phy80211a/signal_field.h"

namespace wlansim::phy::ref {

namespace {

constexpr std::size_t kLag = 16;      // short-preamble periodicity
constexpr std::size_t kCorrLen = 32;  // detection correlation window

/// The receiver's FFT window backoff into the guard interval.
constexpr std::size_t kTimingBackoff = 3;

const dsp::Fft& fft64() {
  static const dsp::Fft engine(kNfft);
  return engine;
}

/// One symbol block of coded bits in transmission order: in[k] lands at
/// fwd()[k].
Bits interleave(const Interleaver& il, const Bits& in) {
  Bits out(in.size());
  for (std::size_t k = 0; k < in.size(); ++k) out[il.fwd()[k]] = in[k];
  return out;
}

/// The 48 constellation points of one symbol block: interleave, then map.
dsp::CVec symbol_points(const Interleaver& il, const Mapper& mapper,
                        const Bits& block) {
  return mapper.map(interleave(il, block));
}

/// Soft-demap one equalized symbol point by point and deinterleave: the
/// LLR demapped at position j lands at inv()[j].
SoftBits demap_deinterleave(const Interleaver& il, const Mapper& mapper,
                            const EqualizedSymbol& eq) {
  SoftBits soft;
  for (std::size_t i = 0; i < kNumDataCarriers; ++i) {
    const SoftBits llr = mapper.demap_soft_point(eq.points[i], eq.weights[i]);
    soft.insert(soft.end(), llr.begin(), llr.end());
  }
  SoftBits out(soft.size());
  for (std::size_t j = 0; j < soft.size(); ++j) out[il.inv()[j]] = soft[j];
  return out;
}

/// Append one 80-sample OFDM symbol with a raised-cosine crossfade of `w`
/// samples into the already-emitted tail.
void overlap_add_symbol(dsp::CVec& out, std::span<const dsp::Cplx> sym,
                        std::size_t w) {
  if (w == 0 || out.size() < w) {
    out.insert(out.end(), sym.begin(), sym.end());
    return;
  }
  const std::size_t base = out.size() - w;
  for (std::size_t i = 0; i < w; ++i) {
    const double r =
        0.5 * (1.0 - std::cos(dsp::kPi * (static_cast<double>(i) + 0.5) /
                              static_cast<double>(w)));
    out[base + i] = out[base + i] * (1.0 - r) + sym[i] * r;
  }
  out.insert(out.end(), sym.begin() + static_cast<std::ptrdiff_t>(w),
             sym.end());
}

/// Cyclic post-extension: the first `w` samples of the FFT period.
void append_cyclic_tail(dsp::CVec& out, std::span<const dsp::Cplx> sym,
                        std::size_t w) {
  if (w == 0) return;
  out.insert(out.end(), sym.begin() + kCpLen,
             sym.begin() + static_cast<std::ptrdiff_t>(kCpLen + w));
}

/// Fade the final window extension out, clip envelope peaks, normalize the
/// OFDM portion.
void finish_frame(dsp::CVec& ppdu, const Transmitter::Config& cfg) {
  const std::size_t w = cfg.window_overlap;
  if (w > 0) {
    for (std::size_t i = 0; i < w; ++i) {
      const double r =
          0.5 * (1.0 - std::cos(dsp::kPi * (static_cast<double>(i) + 0.5) /
                                static_cast<double>(w)));
      ppdu[ppdu.size() - w + i] *= (1.0 - r);
    }
  }
  if (cfg.clip_papr_db > 0.0) {
    const double mean = dsp::mean_power(ppdu);
    const double limit = std::sqrt(mean * std::pow(10.0, cfg.clip_papr_db / 10.0));
    for (dsp::Cplx& v : ppdu) {
      const double a = std::abs(v);
      if (a > limit) v *= limit / a;
    }
  }
  const double target = dsp::dbm_to_watts(cfg.output_power_dbm);
  const std::span<const dsp::Cplx> data_part(
      ppdu.data() + kPreambleLen, ppdu.size() - kPreambleLen);
  const double current = dsp::mean_power(data_part);
  if (current > 0.0) {
    const double g = std::sqrt(target / current);
    for (dsp::Cplx& v : ppdu) v *= g;
  }
}

RxResult decode_from(const Receiver::Config& cfg,
                     std::span<const dsp::Cplx> rx, std::size_t lts_start,
                     double cfo_total) {
  RxResult res;
  res.detected = true;
  res.cfo_norm = cfo_total;
  res.frame_start = (lts_start >= kShortPreambleLen + 32)
                        ? lts_start - kShortPreambleLen - 32
                        : 0;

  if (lts_start < kTimingBackoff) return res;
  const std::size_t lts_win = lts_start - kTimingBackoff;
  if (lts_win + 2 * kNfft > rx.size()) return res;
  ChannelEstimate est = estimate_channel(rx.subspan(lts_win, 2 * kNfft));
  if (cfg.chanest_smoothing > 1)
    est = smooth_channel(est, cfg.chanest_smoothing);

  // SIGNAL symbol: BPSK R=1/2 through the 6 Mbps permutation.
  const std::size_t sig_fft = lts_start + 2 * kNfft + kCpLen - kTimingBackoff;
  if (sig_fft + kNfft > rx.size()) return res;
  const EqualizedSymbol sig_eq =
      equalize_symbol(ofdm_demodulate_symbol(rx.subspan(sig_fft, kNfft)), est,
                      /*symbol_index=*/0, cfg.track_phase, cfg.track_timing);
  const auto header = parse_signal_field(viterbi_decode(
      demap_deinterleave(interleaver_for(Rate::kMbps6),
                         Mapper(Modulation::kBpsk), sig_eq)));
  if (!header) return res;
  res.header_ok = true;
  res.signal = *header;

  const RateParams& p = rate_params(header->rate);
  const std::size_t nsym = num_data_symbols(header->rate, header->length);
  const std::size_t data_base = lts_start + 2 * kNfft + kSymbolLen;
  const Interleaver& il = interleaver_for(header->rate);
  const Mapper mapper(p.modulation);
  SoftBits soft_all;
  for (std::size_t s = 0; s < nsym; ++s) {
    const std::size_t fft_pos =
        data_base + s * kSymbolLen + kCpLen - kTimingBackoff;
    if (fft_pos + kNfft > rx.size()) {
      res.header_ok = false;  // truncated frame
      return res;
    }
    const EqualizedSymbol eq =
        equalize_symbol(ofdm_demodulate_symbol(rx.subspan(fft_pos, kNfft)),
                        est, /*symbol_index=*/s + 1, cfg.track_phase,
                        cfg.track_timing);
    res.data_points.emplace_back(eq.points.begin(), eq.points.end());
    const SoftBits deint = demap_deinterleave(il, mapper, eq);
    soft_all.insert(soft_all.end(), deint.begin(), deint.end());
  }

  const SoftBits mother = depuncture(soft_all, p.code_rate);
  Bits decoded = viterbi_decode(mother, /*terminated=*/false);
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

}  // namespace

dsp::CVec ofdm_modulate_symbol(std::span<const dsp::Cplx> data48,
                               std::size_t symbol_index) {
  if (data48.size() != kNumDataCarriers)
    throw std::invalid_argument("ofdm_modulate_symbol: need 48 points");
  dsp::CVec fd(kNfft, dsp::Cplx{0.0, 0.0});
  dsp::CVec td(kNfft);
  const auto& dc = data_carrier_indices();
  for (std::size_t i = 0; i < kNumDataCarriers; ++i)
    fd[carrier_to_bin(dc[i])] = data48[i];
  const double pol = pilot_polarity(symbol_index);
  const auto& pc = pilot_carrier_indices();
  const auto& pv = pilot_base_values();
  for (std::size_t i = 0; i < kNumPilots; ++i)
    fd[carrier_to_bin(pc[i])] = pol * pv[i];

  fft64().inverse(std::span<const dsp::Cplx>(fd), std::span<dsp::Cplx>(td));
  dsp::CVec out(kSymbolLen);
  for (std::size_t i = 0; i < kCpLen; ++i)
    out[i] = td[kNfft - kCpLen + i];  // cyclic prefix
  for (std::size_t i = 0; i < kNfft; ++i) out[kCpLen + i] = td[i];
  return out;
}

DemodulatedSymbol ofdm_demodulate_symbol(std::span<const dsp::Cplx> time64) {
  if (time64.size() != kNfft)
    throw std::invalid_argument("ofdm_demodulate_symbol: need 64 samples");
  dsp::CVec fd(kNfft);
  fft64().forward(time64, std::span<dsp::Cplx>(fd));
  DemodulatedSymbol out;
  const auto& dc = data_carrier_indices();
  for (std::size_t i = 0; i < kNumDataCarriers; ++i)
    out.data[i] = fd[carrier_to_bin(dc[i])];
  const auto& pc = pilot_carrier_indices();
  for (std::size_t i = 0; i < kNumPilots; ++i)
    out.pilots[i] = fd[carrier_to_bin(pc[i])];
  return out;
}

EqualizedSymbol equalize_symbol(const DemodulatedSymbol& sym,
                                const ChannelEstimate& est,
                                std::size_t symbol_index, bool track_phase,
                                bool track_timing) {
  EqualizedSymbol out;

  // Common complex gain error from the four pilots (least squares):
  // c = sum_k Y_k conj(H_k X_k) / sum_k |H_k X_k|^2, its magnitude clamped
  // to [0.5, 2]; then an LS fit of the residual pilot phases against the
  // pilot carrier index gives the linear phase slope.
  dsp::Cplx derot{1.0, 0.0};
  double cpe = 0.0;
  double slope = 0.0;
  if (track_phase) {
    const double pol = pilot_polarity(symbol_index);
    const auto& pv = pilot_base_values();
    const auto& pc = pilot_carrier_indices();
    const auto hp = est.pilot_carriers();
    dsp::Cplx num{0.0, 0.0};
    double den = 0.0;
    std::array<dsp::Cplx, kNumPilots> ratio{};
    for (std::size_t i = 0; i < kNumPilots; ++i) {
      const dsp::Cplx ref = hp[i] * (pol * pv[i]);
      ratio[i] = sym.pilots[i] * std::conj(ref);
      num += ratio[i];
      den += std::norm(ref);
    }
    if (den > 0.0 && std::abs(num) > 0.0) {
      dsp::Cplx c = num / den;
      cpe = std::arg(c);
      const double mag = std::clamp(std::abs(c), 0.5, 2.0);
      c = mag * dsp::Cplx{std::cos(cpe), std::sin(cpe)};
      derot = 1.0 / c;

      if (track_timing) {
        double num_s = 0.0, den_s = 0.0;
        for (std::size_t i = 0; i < kNumPilots; ++i) {
          if (std::abs(ratio[i]) <= 0.0) continue;
          const double theta = std::arg(ratio[i] * std::conj(c));
          const double k = static_cast<double>(pc[i]);
          num_s += theta * k;
          den_s += k * k;
        }
        if (den_s > 0.0) slope = num_s / den_s;
      }
    }
  }
  out.common_phase_error = cpe;
  out.phase_slope = slope;

  const auto& dc = data_carrier_indices();
  const auto hd = est.data_carriers();
  for (std::size_t i = 0; i < kNumDataCarriers; ++i) {
    const double mag2 = std::norm(hd[i]);
    if (mag2 < 1e-18) {
      out.points[i] = dsp::Cplx{0.0, 0.0};
      out.weights[i] = 0.0;
      continue;
    }
    dsp::Cplx p = sym.data[i] * derot / hd[i];
    if (slope != 0.0) {
      const double ang = -slope * static_cast<double>(dc[i]);
      p *= dsp::Cplx{std::cos(ang), std::sin(ang)};
    }
    out.points[i] = p;
    out.weights[i] = mag2;  // CSI weighting for the soft demapper
  }
  return out;
}

std::optional<DetectionResult> detect_packet(std::span<const dsp::Cplx> rx,
                                             double threshold) {
  if (rx.size() < kCorrLen + kLag + 1) return std::nullopt;
  // m(n) = |sum r[n+k+16] conj(r[n+k])| / sum |r[n+k+16]|^2; a plateau near
  // 1 marks the short preamble. Require the metric to hold for 32
  // consecutive positions to reject noise spikes.
  std::size_t run = 0;
  const std::size_t last = rx.size() - kCorrLen - kLag;
  for (std::size_t n = 0; n < last; ++n) {
    dsp::Cplx c{0.0, 0.0};
    dsp::Cplx mean{0.0, 0.0};
    double p = 0.0;
    for (std::size_t k = 0; k < kCorrLen; ++k) {
      c += rx[n + k + kLag] * std::conj(rx[n + k]);
      p += std::norm(rx[n + k + kLag]);
      mean += rx[n + k + kLag];
    }
    double m = (p > 0.0) ? std::abs(c) / p : 0.0;
    // Reject windows whose energy is mostly at 0 Hz (a DC offset is
    // periodic at every lag).
    const double dc_frac =
        (p > 0.0) ? std::norm(mean) / (static_cast<double>(kCorrLen) * p) : 0.0;
    if (dc_frac > 0.5) m = 0.0;
    if (m > threshold) {
      ++run;
      if (run >= 32) {
        const std::size_t det = n + 1 - run;
        return DetectionResult{det, coarse_cfo(rx, det)};
      }
    } else {
      run = 0;
    }
  }
  return std::nullopt;
}

std::optional<std::size_t> locate_long_training(std::span<const dsp::Cplx> rx,
                                                std::size_t search_start,
                                                std::size_t search_end) {
  const dsp::CVec& ref = long_training_symbol();
  if (search_end > rx.size() + 1)
    search_end = rx.size() >= kNfft ? rx.size() - kNfft + 1 : 0;
  if (search_start >= search_end) return std::nullopt;

  // Normalized cross-correlation peaks at the two LTS copies; take the
  // first of the two (they are 64 samples apart).
  double best = 0.0;
  std::size_t best_idx = 0;
  for (std::size_t n = search_start; n < search_end; ++n) {
    if (n + kNfft > rx.size()) break;
    dsp::Cplx c{0.0, 0.0};
    double p = 0.0;
    for (std::size_t k = 0; k < kNfft; ++k) {
      c += rx[n + k] * std::conj(ref[k]);
      p += std::norm(rx[n + k]);
    }
    const double m = (p > 0.0) ? std::norm(c) / p : 0.0;
    if (m > best) {
      best = m;
      best_idx = n;
    }
  }
  if (best <= 0.0) return std::nullopt;
  // best_idx may be the first or the second LTS copy; disambiguate by
  // testing the correlation 64 samples earlier.
  if (best_idx >= search_start + kNfft) {
    const std::size_t prev = best_idx - kNfft;
    dsp::Cplx c{0.0, 0.0};
    double p = 0.0;
    for (std::size_t k = 0; k < kNfft; ++k) {
      c += rx[prev + k] * std::conj(ref[k]);
      p += std::norm(rx[prev + k]);
    }
    const double m = (p > 0.0) ? std::norm(c) / p : 0.0;
    if (m > 0.5 * best) return prev;
  }
  return best_idx;
}

dsp::CVec modulate(const Transmitter::Config& cfg, const Frame& frame) {
  const Transmitter tx(cfg);
  const RateParams& p = rate_params(frame.rate);
  const Bits coded =
      puncture(convolutional_encode(tx.encode_data_field(frame)), p.code_rate);
  const std::size_t w = cfg.window_overlap;
  if (w >= kCpLen / 2)
    throw std::invalid_argument("Transmitter: window overlap too large");

  dsp::CVec ppdu = full_preamble();
  const dsp::CVec sig = ofdm_modulate_symbol(
      symbol_points(interleaver_for(Rate::kMbps6), Mapper(Modulation::kBpsk),
                    convolutional_encode(signal_field_bits(
                        {frame.rate, frame.psdu.size()}))),
      /*symbol_index=*/0);
  ppdu.insert(ppdu.end(), sig.begin(), sig.end());
  if (w > 0) append_cyclic_tail(ppdu, sig, w);

  const Interleaver& il = interleaver_for(frame.rate);
  const Mapper mapper(p.modulation);
  for (std::size_t s = 0; s < coded.size() / p.ncbps; ++s) {
    const Bits block(
        coded.begin() + static_cast<std::ptrdiff_t>(s * p.ncbps),
        coded.begin() + static_cast<std::ptrdiff_t>((s + 1) * p.ncbps));
    const dsp::CVec sym =
        ofdm_modulate_symbol(symbol_points(il, mapper, block), s + 1);
    overlap_add_symbol(ppdu, sym, w);
    if (w > 0) append_cyclic_tail(ppdu, sym, w);
  }
  finish_frame(ppdu, cfg);
  return ppdu;
}

RxResult receive(const Receiver::Config& cfg, std::span<const dsp::Cplx> rx) {
  RxResult res;
  const auto det = phy::detect_packet(rx, cfg.detect_threshold);
  if (!det) return res;

  dsp::CVec buf(rx.begin() + static_cast<std::ptrdiff_t>(det->detect_index),
                rx.end());
  correct_cfo(buf, det->coarse_cfo_norm);
  const std::size_t search_end = std::min<std::size_t>(buf.size(), 420);
  const auto lts = phy::locate_long_training(buf, 0, search_end);
  if (!lts) return res;

  const double residual = fine_cfo(buf, *lts);
  correct_cfo(buf, residual);

  RxResult out =
      decode_from(cfg, buf, *lts, det->coarse_cfo_norm + residual);
  out.frame_start += det->detect_index;
  return out;
}

}  // namespace wlansim::phy::ref
