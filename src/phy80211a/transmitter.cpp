#include "phy80211a/transmitter.h"

#include <cmath>
#include <stdexcept>

#include "dsp/mathutil.h"
#include "phy80211a/convcode.h"
#include "phy80211a/interleaver.h"
#include "phy80211a/mapper.h"
#include "phy80211a/ofdm.h"
#include "phy80211a/preamble.h"
#include "phy80211a/scrambler.h"

namespace wlansim::phy {

Transmitter::Transmitter() : Transmitter(Config()) {}

Transmitter::Transmitter(Config cfg) : cfg_(cfg) {
  if ((cfg_.scrambler_seed & 0x7F) == 0)
    throw std::invalid_argument("Transmitter: scrambler seed must be non-zero");
}

Bits Transmitter::encode_data_field(const Frame& frame) const {
  if (frame.psdu.empty() || frame.psdu.size() > 4095)
    throw std::invalid_argument("Transmitter: PSDU must be 1..4095 bytes");
  const RateParams& p = rate_params(frame.rate);
  const std::size_t nsym = num_data_symbols(frame.rate, frame.psdu.size());

  // SERVICE (16 zero bits) + PSDU + tail + pad (Std 17.3.5.3).
  Bits bits(kServiceBits, 0);
  const Bits payload = bytes_to_bits(frame.psdu);
  bits.insert(bits.end(), payload.begin(), payload.end());
  const std::size_t tail_pos = bits.size();
  bits.insert(bits.end(), kTailBits, 0);
  bits.resize(nsym * p.ndbps, 0);

  // Scramble everything, then zero the scrambled tail bits so the
  // convolutional code still terminates (Std 17.3.5.2 step d).
  Scrambler scr(cfg_.scrambler_seed);
  scr.process(bits);
  for (std::size_t i = 0; i < kTailBits; ++i) bits[tail_pos + i] = 0;
  return bits;
}

namespace {

/// Append one 80-sample OFDM symbol with a raised-cosine crossfade of `w`
/// samples into the already-emitted tail. The crossfade uses the symbol's
/// cyclic structure: its last `w` samples (an extension of the FFT period)
/// fade out while the next symbol's first CP samples fade in.
void overlap_add_symbol(dsp::CVec& out, std::span<const dsp::Cplx> sym,
                        std::size_t w) {
  if (w == 0 || out.size() < w) {
    out.insert(out.end(), sym.begin(), sym.end());
    return;
  }
  // Cyclic post-extension of the previous symbol was already appended by
  // the previous call (the `w` trailing samples); fade the new symbol in
  // over them.
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

/// Cyclic post-extension: the first `w` samples of the FFT period, i.e.
/// the samples that would follow the symbol if it continued periodically.
void append_cyclic_tail(dsp::CVec& out, std::span<const dsp::Cplx> sym,
                        std::size_t w) {
  if (w == 0) return;
  out.insert(out.end(), sym.begin() + kCpLen,
             sym.begin() + static_cast<std::ptrdiff_t>(kCpLen + w));
}

/// Post-processing of the assembled frame: fade the final window extension
/// out, clip envelope peaks, normalize the OFDM portion.
void finish_frame(dsp::CVec& ppdu, const Transmitter::Config& cfg) {
  const std::size_t w = cfg.window_overlap;
  if (w > 0) {
    // Fade the final extension out so the frame ends smoothly.
    for (std::size_t i = 0; i < w; ++i) {
      const double r =
          0.5 * (1.0 - std::cos(dsp::kPi * (static_cast<double>(i) + 0.5) /
                                static_cast<double>(w)));
      ppdu[ppdu.size() - w + i] *= (1.0 - r);
    }
  }

  // Optional crest-factor reduction: hard-limit envelope peaks beyond the
  // configured PAPR, preserving phase.
  if (cfg.clip_papr_db > 0.0) {
    const double mean = dsp::mean_power(ppdu);
    const double limit = std::sqrt(mean * std::pow(10.0, cfg.clip_papr_db / 10.0));
    for (dsp::Cplx& v : ppdu) {
      const double a = std::abs(v);
      if (a > limit) v *= limit / a;
    }
  }

  // Normalize so the OFDM portion (preamble excluded from the average to
  // keep DATA at the nominal level) has the requested mean power.
  const double target = dsp::dbm_to_watts(cfg.output_power_dbm);
  const std::span<const dsp::Cplx> data_part(
      ppdu.data() + kPreambleLen, ppdu.size() - kPreambleLen);
  const double current = dsp::mean_power(data_part);
  if (current > 0.0) {
    const double g = std::sqrt(target / current);
    for (dsp::Cplx& v : ppdu) v *= g;
  }
}

}  // namespace

dsp::CVec Transmitter::modulate(const Frame& frame, dsp::CVec* points) const {
  const std::size_t w = cfg_.window_overlap;
  if (w >= kCpLen / 2)
    throw std::invalid_argument("Transmitter: window overlap too large");

  const RateParams& p = rate_params(frame.rate);
  const Bits data_bits = encode_data_field(frame);
  const Bits coded = puncture(convolutional_encode(data_bits), p.code_rate);
  const std::size_t nsym = coded.size() / p.ncbps;

  // Fused interleave+map: gather each symbol's constellation points
  // straight from the coded bit block through the inverse permutation
  // (points[i] reads coded[inv[i*nbpsc + t]], which is exactly
  // map(interleave(block))), then one batch IFFT over every DATA symbol.
  const Interleaver& il = interleaver_for(frame.rate);
  const Mapper mapper(p.modulation);
  const std::size_t* perm = il.inv().data();
  thread_local dsp::CVec own_points, td;
  dsp::CVec& pts = points != nullptr ? *points : own_points;
  pts.resize(nsym * kNumDataCarriers);
  td.resize(nsym * kSymbolLen);
  for (std::size_t s = 0; s < nsym; ++s)
    mapper.map_permuted(coded.data() + s * p.ncbps, perm, kNumDataCarriers,
                        pts.data() + s * kNumDataCarriers);
  ofdm_modulate_symbols_into(pts.data(), nsym, /*first_symbol_index=*/1,
                             td.data());

  dsp::CVec ppdu = full_preamble();
  ppdu.reserve(kPreambleLen + (nsym + 1) * kSymbolLen + w + 1);
  const dsp::CVec sig = modulate_signal_field({frame.rate, frame.psdu.size()});
  ppdu.insert(ppdu.end(), sig.begin(), sig.end());
  if (w > 0) append_cyclic_tail(ppdu, sig, w);
  for (std::size_t s = 0; s < nsym; ++s) {
    const std::span<const dsp::Cplx> sym(td.data() + s * kSymbolLen,
                                         kSymbolLen);
    overlap_add_symbol(ppdu, sym, w);
    if (w > 0) append_cyclic_tail(ppdu, sym, w);
  }
  finish_frame(ppdu, cfg_);
  return ppdu;
}

}  // namespace wlansim::phy
