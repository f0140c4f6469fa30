// OFDM symbol assembly/disassembly: subcarrier mapping (48 data + 4 pilot
// carriers on a 64-point FFT), cyclic prefix, and the pilot polarity
// sequence (IEEE 802.11a-1999, 17.3.5.8 / 17.3.5.9).
#pragma once

#include <array>

#include "dsp/types.h"
#include "phy80211a/params.h"

namespace wlansim::phy {

/// Logical subcarrier indices (-26..26, excluding 0 and pilots) of the 48
/// data carriers, in transmission order.
const std::array<int, kNumDataCarriers>& data_carrier_indices();

/// Pilot subcarrier indices {-21, -7, 7, 21}.
const std::array<int, kNumPilots>& pilot_carrier_indices();

/// Base pilot values {1, 1, 1, -1} before polarity scrambling.
const std::array<double, kNumPilots>& pilot_base_values();

/// 127-periodic pilot polarity sequence p_n (Std 17.3.5.9); the SIGNAL
/// symbol uses index 0, DATA symbol n uses index n+1.
double pilot_polarity(std::size_t symbol_index);

/// Demodulate `nsym` received symbols through one batch FFT: symbol s's
/// 64 FFT-input samples (CP already skipped) start at time[s*stride]
/// (stride >= 64; the receiver passes kSymbolLen to lift the FFT windows
/// straight out of the frame without a copy). Writes the 48 data bins to
/// data48[s*48 + i] and the 4 pilot bins to pilots4[s*4 + i]. The receiver
/// runs the SIGNAL symbol through it at nsym = 1.
void ofdm_demodulate_symbols_into(const dsp::Cplx* time, std::size_t stride,
                                  std::size_t nsym, dsp::Cplx* data48,
                                  dsp::Cplx* pilots4);

/// Modulate `nsym` symbols through one batch IFFT: symbol s is built from
/// the 48 constellation points points48[s*48..] plus the pilots at
/// polarity index first_symbol_index + s (0 for SIGNAL, n+1 for DATA
/// symbol n), and written to out[s*kSymbolLen..] as cyclic prefix + body.
void ofdm_modulate_symbols_into(const dsp::Cplx* points48, std::size_t nsym,
                                std::size_t first_symbol_index,
                                dsp::Cplx* out);

/// Map a logical subcarrier index (-32..31) to its FFT bin (0..63).
std::size_t carrier_to_bin(int carrier);

}  // namespace wlansim::phy
