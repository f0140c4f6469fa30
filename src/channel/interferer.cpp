#include "channel/interferer.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dsp/iir.h"
#include "dsp/mathutil.h"
#include "dsp/resample.h"
#include "phy80211a/bits.h"
#include "phy80211a/transmitter.h"

namespace wlansim::channel {

bool offset_fits_rate(double offset_hz, double sample_rate_hz) {
  return std::abs(offset_hz) + 10e6 <= sample_rate_hz / 2.0;
}

dsp::CVec make_interferer(std::size_t length, double sample_rate_hz,
                          double wanted_power_watts,
                          const InterfererConfig& cfg, dsp::Rng& rng) {
  dsp::CVec out;
  make_interferer_into(out, length, sample_rate_hz, wanted_power_watts, cfg,
                       rng);
  return out;
}

void make_interferer_into(dsp::CVec& out, std::size_t length,
                          double sample_rate_hz, double wanted_power_watts,
                          const InterfererConfig& cfg, dsp::Rng& rng) {
  if (sample_rate_hz < phy::kSampleRate)
    throw std::invalid_argument("make_interferer: rate below 20 Msps");
  const double ratio = sample_rate_hz / phy::kSampleRate;
  const auto factor = static_cast<std::size_t>(std::lround(ratio));
  if (std::abs(ratio - static_cast<double>(factor)) > 1e-9)
    throw std::invalid_argument("make_interferer: need integer oversampling");
  if (!offset_fits_rate(cfg.offset_hz, sample_rate_hz))
    throw std::invalid_argument(
        "make_interferer: offset violates the sampling theorem at this rate");

  // Tile transmitter frames (fresh random payload each) until long enough.
  // The 20 Msps tiling buffer is per thread and keeps its capacity.
  phy::Transmitter tx({.scrambler_seed = 0x13, .output_power_dbm = 0.0});
  thread_local dsp::CVec base;
  base.clear();
  base.reserve(length / factor + 2048);
  while (base.size() * factor < length) {
    const phy::Bytes payload = phy::random_bytes(cfg.psdu_bytes, rng);
    const dsp::CVec frame = tx.modulate({cfg.rate, payload});
    base.insert(base.end(), frame.begin(), frame.end());
    // Short idle gap between frames, like a busy but realistic channel.
    base.insert(base.end(), 40, dsp::Cplx{0.0, 0.0});
  }

  // The first `length` oversampled samples never read the tail of the last
  // frame, so only the prefix they depend on is interpolated.
  const std::size_t used =
      std::min(base.size(), dsp::upsample_inputs_needed(length, factor));
  dsp::upsample_into(std::span<const dsp::Cplx>(base).first(used), factor,
                     out);
  out.resize(length);

  // Shift to the adjacent channel and set the level.
  dsp::frequency_shift_in_place(out, cfg.offset_hz / sample_rate_hz,
                                rng.uniform(0.0, dsp::kTwoPi));
  dsp::set_mean_power(out, wanted_power_watts * dsp::from_db(cfg.level_db));
}

dsp::CVec make_dsss_interferer(std::size_t length, double sample_rate_hz,
                               double wanted_power_watts, double offset_hz,
                               double level_db, dsp::Rng& rng) {
  if (sample_rate_hz <= 0.0)
    throw std::invalid_argument("make_dsss_interferer: bad sample rate");
  const double chip_rate = 11e6;
  // The DSSS main lobe spans +/- chip_rate around the offset.
  if (std::abs(offset_hz) + chip_rate > sample_rate_hz / 2.0)
    throw std::invalid_argument(
        "make_dsss_interferer: offset violates the sampling theorem");

  // Barker-spread DBPSK chip stream, synthesized by NCO chip indexing so
  // any output rate works (chips are rectangular; the spectrum is the
  // classic DSSS sinc).
  static constexpr double kBarker[11] = {1, -1, 1, 1, -1, 1, 1, 1, -1, -1, -1};
  dsp::CVec out(length);
  double phase = 0.0;  // DBPSK phase
  const double dt = 1.0 / sample_rate_hz;
  std::int64_t last_sym = -1;
  for (std::size_t n = 0; n < length; ++n) {
    const auto chip_idx =
        static_cast<std::int64_t>(static_cast<double>(n) * dt * chip_rate);
    const std::int64_t sym_idx = chip_idx / 11;
    if (sym_idx != last_sym) {
      phase += rng.bit() ? dsp::kPi : 0.0;  // new symbol, random data
      last_sym = sym_idx;
    }
    out[n] = kBarker[chip_idx % 11] * dsp::Cplx{std::cos(phase), std::sin(phase)};
  }

  // Transmit spectrum shaping: raw rectangular chips carry sinc sidelobes
  // far outside the channel; the 802.11b transmit mask (-30 dBr at 11 MHz)
  // implies baseband filtering, modeled with a Butterworth lowpass.
  dsp::BiquadCascade tx_filter =
      dsp::design_butterworth_lowpass(5, 9e6 / sample_rate_hz);
  out = tx_filter.process(out);

  dsp::CVec shifted = dsp::frequency_shift(out, offset_hz / sample_rate_hz,
                                           rng.uniform(0.0, dsp::kTwoPi));
  dsp::set_mean_power(shifted, wanted_power_watts * dsp::from_db(level_db));
  return shifted;
}

}  // namespace wlansim::channel
