#include "rf/direct_conversion.h"

#include <stdexcept>

#include "dsp/mathutil.h"

namespace wlansim::rf {

DirectConversionReceiver::DirectConversionReceiver(
    const DirectConversionConfig& cfg, dsp::Rng rng)
    : cfg_(cfg) {
  const double fs = cfg_.sample_rate_hz;
  if (fs <= 0.0)
    throw std::invalid_argument("DirectConversionReceiver: bad sample rate");

  AmplifierConfig lna;
  lna.label = "zif_lna";
  lna.gain_db = cfg_.lna_gain_db;
  lna.noise_figure_db = cfg_.lna_nf_db;
  lna.p1db_in_dbm = cfg_.lna_p1db_in_dbm;
  lna.model = cfg_.lna_model;
  lna.noise_enabled = cfg_.noise_enabled;
  chain_.emplace<Amplifier>(lna, fs, rng.fork());

  MixerConfig mix;
  mix.label = "zif_mixer";
  mix.conversion_gain_db = cfg_.mixer_gain_db;
  mix.lo_offset_hz = cfg_.lo_offset_hz;
  mix.phase_noise = cfg_.lo_phase_noise;
  mix.dc_offset = cfg_.dc_offset;  // lands at the channel center
  mix.iq_gain_imbalance_db = cfg_.iq_gain_imbalance_db;
  mix.iq_phase_error_deg = cfg_.iq_phase_error_deg;
  mix.noise_enabled = cfg_.noise_enabled;
  chain_.emplace<Mixer>(mix, fs, rng.fork());

  if (cfg_.dynamic_dc_rms > 0.0) {
    chain_.emplace<WanderingDcSource>(cfg_.dynamic_dc_rms,
                                      cfg_.dynamic_dc_bandwidth_hz, fs,
                                      rng.fork());
  }

  if (cfg_.noise_enabled && cfg_.flicker_power_dbm > -150.0) {
    chain_.emplace<FlickerNoiseSource>(
        dsp::dbm_to_watts(cfg_.flicker_power_dbm),
        /*corner_low_hz=*/1e3, cfg_.flicker_corner_hz, fs, rng.fork());
  }

  if (cfg_.dc_servo_cutoff_hz > 0.0) {
    chain_.emplace<DcBlockHighpass>(1, cfg_.dc_servo_cutoff_hz, fs,
                                    "dc_servo");
  }

  chain_.emplace<ChebyshevLowpass>(cfg_.bb_filter_order,
                                   cfg_.bb_filter_ripple_db,
                                   cfg_.bb_filter_edge_hz, fs, "zif_lpf");
  chain_.emplace<Agc>(cfg_.agc);
  chain_.emplace<Adc>(cfg_.adc);
}

void DirectConversionReceiver::begin_lanes(std::size_t nl) {
  if (nl != 1)
    throw std::invalid_argument(
        "DirectConversionReceiver: runs at width 1 only");
}

void DirectConversionReceiver::process_tile_lanes(double* soa, std::size_t n,
                                                  std::size_t nl) {
  begin_lanes(nl);
  chain_.process_tile_lanes(soa, n, 1);
}

}  // namespace wlansim::rf
