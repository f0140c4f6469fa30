#include "phy80211a/signal_field.h"

#include <array>
#include <stdexcept>

#include "phy80211a/interleaver.h"
#include "phy80211a/mapper.h"
#include "phy80211a/ofdm.h"

namespace wlansim::phy {

Bits signal_field_bits(const SignalField& sf) {
  if (sf.length == 0 || sf.length > 4095)
    throw std::invalid_argument("signal_field_bits: LENGTH must be 1..4095");
  Bits b;
  b.reserve(24);
  const std::uint8_t rate_field = rate_params(sf.rate).rate_field;
  for (int i = 3; i >= 0; --i) b.push_back((rate_field >> i) & 1);  // R1..R4
  b.push_back(0);  // reserved
  for (int i = 0; i < 12; ++i)
    b.push_back(static_cast<std::uint8_t>((sf.length >> i) & 1));  // LSB first
  std::uint8_t parity = 0;
  for (std::uint8_t v : b) parity ^= (v & 1);
  b.push_back(parity);                  // even parity over bits 0..16
  for (int i = 0; i < 6; ++i) b.push_back(0);  // tail
  return b;
}

std::optional<SignalField> parse_signal_field(const Bits& bits) {
  if (bits.size() != 24) return std::nullopt;
  std::uint8_t parity = 0;
  for (std::size_t i = 0; i < 18; ++i) parity ^= (bits[i] & 1);
  if (parity != 0) return std::nullopt;  // even parity violated
  std::uint8_t rate_field = 0;
  for (int i = 0; i < 4; ++i)
    rate_field = static_cast<std::uint8_t>((rate_field << 1) | (bits[i] & 1));
  Rate rate;
  if (!rate_from_field(rate_field, &rate)) return std::nullopt;
  std::size_t length = 0;
  for (int i = 0; i < 12; ++i)
    length |= static_cast<std::size_t>(bits[5 + i] & 1) << i;
  if (length == 0) return std::nullopt;
  return SignalField{rate, length};
}

dsp::CVec modulate_signal_field(const SignalField& sf) {
  const Bits coded = convolutional_encode(signal_field_bits(sf));  // 48 bits
  // SIGNAL is always BPSK over 48 carriers — the 6 Mbps permutation —
  // gathered and modulated as a one-symbol batch.
  const Interleaver& il = interleaver_for(Rate::kMbps6);
  std::array<dsp::Cplx, kNumDataCarriers> pts;
  Mapper(Modulation::kBpsk)
      .map_permuted(coded.data(), il.inv().data(), kNumDataCarriers,
                    pts.data());
  dsp::CVec out(kSymbolLen);
  ofdm_modulate_symbols_into(pts.data(), 1, /*first_symbol_index=*/0,
                             out.data());
  return out;
}

std::optional<SignalField> decode_signal_field(
    std::span<const dsp::Cplx> data48, std::span<const double> weights) {
  if (data48.size() != kNumDataCarriers || weights.size() != kNumDataCarriers)
    throw std::invalid_argument("decode_signal_field: need 48 points");
  const Interleaver& il = interleaver_for(Rate::kMbps6);
  SoftBits deinter(kNumDataCarriers);
  Mapper(Modulation::kBpsk)
      .demap_soft_deinterleaved(data48, weights, il.inv().data(),
                                deinter.data());
  return parse_signal_field(viterbi_decode(deinter));
}

}  // namespace wlansim::phy
