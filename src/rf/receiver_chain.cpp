#include "rf/receiver_chain.h"

#include <stdexcept>

#include "dsp/mathutil.h"

namespace wlansim::rf {

DoubleConversionReceiver::DoubleConversionReceiver(
    const DoubleConversionConfig& cfg, dsp::Rng rng)
    : cfg_(cfg) {
  const double fs = cfg_.sample_rate_hz;
  if (fs <= 0.0)
    throw std::invalid_argument("DoubleConversionReceiver: bad sample rate");

  AmplifierConfig lna_cfg;
  lna_cfg.label = "lna";
  lna_cfg.gain_db = cfg_.lna_gain_db;
  lna_cfg.noise_figure_db = cfg_.lna_nf_db;
  lna_cfg.model = cfg_.lna_model;
  lna_cfg.p1db_in_dbm = cfg_.lna_p1db_in_dbm;
  lna_cfg.am_pm_max_deg = cfg_.lna_am_pm_max_deg;
  lna_cfg.noise_enabled = cfg_.noise_enabled;
  lna_ = chain_.emplace<Amplifier>(lna_cfg, fs, rng.fork());

  MixerConfig m1;
  m1.label = "mixer1";
  m1.conversion_gain_db = cfg_.mixer1_gain_db;
  m1.lo_offset_hz = cfg_.lo_offset_hz;
  m1.phase_noise = cfg_.lo_phase_noise;
  m1.image_rejection_db = cfg_.mixer1_image_rejection_db;
  m1.noise_enabled = cfg_.noise_enabled;
  mixer1_ = chain_.emplace<Mixer>(m1, fs, rng.fork());

  chain_.emplace<DcBlockHighpass>(cfg_.hpf_order, cfg_.hpf_cutoff_hz, fs,
                                  "interstage_hpf1");

  MixerConfig m2;
  m2.label = "mixer2";
  m2.conversion_gain_db = cfg_.mixer2_gain_db;
  // Second stage shares the LO; its frequency error is already expressed at
  // stage one, so only the self-mixing DC offset appears here.
  m2.dc_offset = cfg_.mixer2_dc_offset;
  m2.noise_enabled = cfg_.noise_enabled;
  mixer2_ = chain_.emplace<Mixer>(m2, fs, rng.fork());

  if (cfg_.noise_enabled && cfg_.mixer2_flicker_power_dbm > -150.0) {
    flicker_ = chain_.emplace<FlickerNoiseSource>(
        dsp::dbm_to_watts(cfg_.mixer2_flicker_power_dbm),
        /*corner_low_hz=*/1e3, cfg_.flicker_corner_hz, fs, rng.fork());
  }

  chain_.emplace<DcBlockHighpass>(cfg_.hpf_order, cfg_.hpf_cutoff_hz, fs,
                                  "interstage_hpf2");

  bb_lpf_ = chain_.emplace<ChebyshevLowpass>(
      cfg_.bb_filter_order, cfg_.bb_filter_ripple_db,
      cfg_.bb_filter_edge_hz * cfg_.bb_bandwidth_factor, fs, "bb_chebyshev");

  agc_ = chain_.emplace<Agc>(cfg_.agc);
  chain_.emplace<Adc>(cfg_.adc);
}

void DoubleConversionReceiver::reseed_lanes(std::size_t lane, dsp::Rng rng) {
  // Same fork order as the constructor: lna, mixer1, mixer2, flicker.
  lna_->set_lane_rng(lane, rng.fork());
  mixer1_->set_lane_rng(lane, rng.fork());
  mixer2_->set_lane_rng(lane, rng.fork());
  if (flicker_) flicker_->set_lane_rng(lane, rng.fork());
}

void DoubleConversionReceiver::set_lane_tapes(std::size_t lane,
                                              dsp::RVec* lna_tape,
                                              ShapedNoiseTape* flicker_tape) {
  lna_->set_lane_tape(lane, lna_tape);
  if (flicker_) flicker_->set_lane_tape(lane, flicker_tape);
}

double DoubleConversionReceiver::front_end_gain_db() const {
  return cfg_.lna_gain_db + cfg_.mixer1_gain_db + cfg_.mixer2_gain_db;
}

}  // namespace wlansim::rf
