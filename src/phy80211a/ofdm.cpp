#include "phy80211a/ofdm.h"

#include <stdexcept>

#include "dsp/fft.h"

namespace wlansim::phy {

namespace {

std::array<int, kNumDataCarriers> make_data_carriers() {
  std::array<int, kNumDataCarriers> out{};
  std::size_t n = 0;
  for (int k = -26; k <= 26; ++k) {
    if (k == 0 || k == -21 || k == -7 || k == 7 || k == 21) continue;
    out[n++] = k;
  }
  return out;
}

// Pilot polarity sequence p_0..p_126 (Std 802.11a 17.3.5.9).
constexpr std::array<int, 127> kPolarity = {
    1, 1, 1, 1, -1, -1, -1, 1,  -1, -1, -1, -1, 1,  1,  -1, 1,
    -1, -1, 1, 1, -1, 1, 1, -1, 1,  1,  1,  1,  1,  1,  -1, 1,
    1, 1, -1, 1, 1, -1, -1, 1,  1,  1,  -1, 1,  -1, -1, -1, 1,
    -1, 1, -1, -1, 1, -1, -1, 1, 1,  1,  1,  1,  -1, -1, 1,  1,
    -1, -1, 1, -1, 1, -1, 1, 1,  -1, -1, -1, 1,  1,  -1, -1, -1,
    -1, 1, -1, -1, 1, -1, 1, 1,  1,  1,  -1, 1,  -1, 1,  -1, 1,
    -1, -1, -1, -1, -1, 1, -1, 1, 1,  -1, 1,  -1, 1,  1,  1,  -1,
    -1, 1, -1, -1, -1, 1, 1, 1,  -1, -1, -1, -1, -1, -1, -1};

const dsp::Fft& fft64() {
  static const dsp::Fft engine(kNfft);
  return engine;
}

/// FFT bin numbers of the 48 data carriers, in transmission order.
const std::array<std::size_t, kNumDataCarriers>& data_bins() {
  static const auto table = [] {
    std::array<std::size_t, kNumDataCarriers> t{};
    const auto& dc = data_carrier_indices();
    for (std::size_t i = 0; i < kNumDataCarriers; ++i)
      t[i] = carrier_to_bin(dc[i]);
    return t;
  }();
  return table;
}

/// FFT bin numbers of the 4 pilot carriers.
const std::array<std::size_t, kNumPilots>& pilot_bins() {
  static const auto table = [] {
    std::array<std::size_t, kNumPilots> t{};
    const auto& pc = pilot_carrier_indices();
    for (std::size_t i = 0; i < kNumPilots; ++i)
      t[i] = carrier_to_bin(pc[i]);
    return t;
  }();
  return table;
}

}  // namespace

const std::array<int, kNumDataCarriers>& data_carrier_indices() {
  static const auto table = make_data_carriers();
  return table;
}

const std::array<int, kNumPilots>& pilot_carrier_indices() {
  static const std::array<int, kNumPilots> table = {-21, -7, 7, 21};
  return table;
}

const std::array<double, kNumPilots>& pilot_base_values() {
  static const std::array<double, kNumPilots> table = {1.0, 1.0, 1.0, -1.0};
  return table;
}

double pilot_polarity(std::size_t symbol_index) {
  return static_cast<double>(kPolarity[symbol_index % kPolarity.size()]);
}

std::size_t carrier_to_bin(int carrier) {
  if (carrier < -32 || carrier > 31)
    throw std::invalid_argument("carrier_to_bin: out of range");
  return static_cast<std::size_t>((carrier + kNfft) % kNfft);
}

void ofdm_demodulate_symbols_into(const dsp::Cplx* time, std::size_t stride,
                                  std::size_t nsym, dsp::Cplx* data48,
                                  dsp::Cplx* pilots4) {
  if (nsym == 0) return;
  // One batch FFT over all symbols (row r reads time[r*stride..+64)), then
  // a table-driven bin gather.
  thread_local dsp::CVec fd;
  fd.resize(nsym * kNfft);
  fft64().forward_batch(time, stride, fd.data(), nsym);
  const auto& db = data_bins();
  const auto& pb = pilot_bins();
  for (std::size_t s = 0; s < nsym; ++s) {
    const dsp::Cplx* __restrict row = fd.data() + s * kNfft;
    dsp::Cplx* __restrict d = data48 + s * kNumDataCarriers;
    for (std::size_t i = 0; i < kNumDataCarriers; ++i) d[i] = row[db[i]];
    dsp::Cplx* __restrict p = pilots4 + s * kNumPilots;
    for (std::size_t i = 0; i < kNumPilots; ++i) p[i] = row[pb[i]];
  }
}

void ofdm_modulate_symbols_into(const dsp::Cplx* points48, std::size_t nsym,
                                std::size_t first_symbol_index,
                                dsp::Cplx* out) {
  if (nsym == 0) return;
  thread_local dsp::CVec fd, td;
  fd.assign(nsym * kNfft, dsp::Cplx{0.0, 0.0});
  td.resize(nsym * kNfft);
  const auto& db = data_bins();
  const auto& pb = pilot_bins();
  const auto& pv = pilot_base_values();
  for (std::size_t s = 0; s < nsym; ++s) {
    dsp::Cplx* __restrict row = fd.data() + s * kNfft;
    const dsp::Cplx* __restrict pts = points48 + s * kNumDataCarriers;
    for (std::size_t i = 0; i < kNumDataCarriers; ++i) row[db[i]] = pts[i];
    const double pol = pilot_polarity(first_symbol_index + s);
    for (std::size_t i = 0; i < kNumPilots; ++i) row[pb[i]] = pol * pv[i];
  }
  fft64().inverse_batch(fd.data(), kNfft, td.data(), nsym);
  for (std::size_t s = 0; s < nsym; ++s) {
    const dsp::Cplx* __restrict body = td.data() + s * kNfft;
    dsp::Cplx* __restrict sym = out + s * kSymbolLen;
    for (std::size_t i = 0; i < kCpLen; ++i)
      sym[i] = body[kNfft - kCpLen + i];  // cyclic prefix
    for (std::size_t i = 0; i < kNfft; ++i) sym[kCpLen + i] = body[i];
  }
}

}  // namespace wlansim::phy
