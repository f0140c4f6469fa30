// Adjacent-channel interferer: a duplicated 802.11a transmitter whose OFDM
// signal is shifted in frequency — exactly the construction of the paper
// (§4.1: "the transmitter model was duplicated and its OFDM signal was
// shifted by 20 MHz in the frequency domain. The baseband signal was
// over-sampled to fulfill the sampling theorem.").
#pragma once

#include "dsp/rng.h"
#include "dsp/types.h"
#include "phy80211a/params.h"

namespace wlansim::channel {

struct InterfererConfig {
  /// Channel offset [Hz]: +20 MHz = adjacent, +40 MHz = non-adjacent
  /// (second adjacent) in the 802.11a band plan.
  double offset_hz = 20e6;
  /// Interferer power relative to the wanted signal [dB]. The paper's
  /// receiver spec allows +16 dB adjacent and +32 dB non-adjacent.
  double level_db = 16.0;
  /// Interfering traffic parameters.
  phy::Rate rate = phy::Rate::kMbps24;
  std::size_t psdu_bytes = 400;
};

/// True when an 802.11a channel shifted by `offset_hz` fits a scene sampled
/// at `sample_rate_hz`: |offset| + 10 MHz <= fs/2 (the sampling theorem of
/// §4.1). make_interferer() throws std::invalid_argument otherwise.
bool offset_fits_rate(double offset_hz, double sample_rate_hz);

/// Generate `length` samples of interferer signal at the oversampled rate
/// `sample_rate_hz`, frequency-shifted and scaled to `level_db` above
/// `wanted_power_watts`. Continuous OFDM frames are tiled (with random data
/// per frame) so the interferer is always on.
dsp::CVec make_interferer(std::size_t length, double sample_rate_hz,
                          double wanted_power_watts,
                          const InterfererConfig& cfg, dsp::Rng& rng);

/// make_interferer() into a caller-owned buffer: `out` is resized to
/// `length` and overwritten, so a warm buffer is reused. Same samples and
/// the same draws from `rng`.
void make_interferer_into(dsp::CVec& out, std::size_t length,
                          double sample_rate_hz, double wanted_power_watts,
                          const InterfererConfig& cfg, dsp::Rng& rng);

/// Legacy 802.11b DSSS interferer: Barker-spread DBPSK traffic at
/// 11 Mchip/s synthesized directly at `sample_rate_hz` (chip timing by
/// NCO, so any rate works), frequency-shifted to `offset_hz` and scaled to
/// `level_db` above `wanted_power_watts`. The coexistence scenario of the
/// paper's Table 1 world: 11 Mbit/s legacy gear next to high-speed WLAN.
dsp::CVec make_dsss_interferer(std::size_t length, double sample_rate_hz,
                               double wanted_power_watts, double offset_hz,
                               double level_db, dsp::Rng& rng);

}  // namespace wlansim::channel
