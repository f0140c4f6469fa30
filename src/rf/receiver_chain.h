// The double-conversion WLAN receiver front-end of the paper's Fig. 2,
// assembled from behavioral blocks at complex baseband:
//
//   LNA -> mixer 1 -> interstage HPF -> mixer 2 (I/Q, DC offset, flicker)
//       -> interstage HPF -> Chebyshev channel-select LPF -> AGC -> ADC
//
// Both mixers run from one 2.6 GHz LO in the real architecture; at complex
// baseband the two stages appear as their impairments (phase noise and
// frequency error once, self-mixing DC and 1/f noise at the second stage).
#pragma once

#include <optional>

#include "dsp/rng.h"
#include "rf/adc.h"
#include "rf/agc.h"
#include "rf/amplifier.h"
#include "rf/filters.h"
#include "rf/mixer.h"
#include "rf/noise.h"
#include "rf/rfblock.h"

namespace wlansim::rf {

struct DoubleConversionConfig {
  double sample_rate_hz = 80e6;  ///< oversampled complex baseband rate

  // --- LNA ---------------------------------------------------------------
  double lna_gain_db = 15.0;
  double lna_nf_db = 3.0;
  double lna_p1db_in_dbm = -20.0;         ///< the Fig. 6 sweep variable
  NonlinearityModel lna_model = NonlinearityModel::kRapp;
  double lna_am_pm_max_deg = 0.0;

  // --- Mixer stages (shared 2.6 GHz LO) -----------------------------------
  double mixer1_gain_db = 8.0;
  double mixer2_gain_db = 8.0;
  double lo_offset_hz = 0.0;              ///< LO frequency error
  PhaseNoiseSpec lo_phase_noise{};        ///< disabled by default
  double mixer1_image_rejection_db = 40.0;
  dsp::Cplx mixer2_dc_offset{3e-5, 2e-5}; ///< self-mixing product [sqrt(W)]
  double mixer2_flicker_power_dbm = -65.0;///< 1/f noise power (< -150 = off)
  double flicker_corner_hz = 200e3;

  // --- Interstage high-pass (DC / flicker removal) ------------------------
  std::size_t hpf_order = 2;
  double hpf_cutoff_hz = 120e3;

  // --- Channel-select Chebyshev lowpass (the Fig. 5 sweep) ----------------
  std::size_t bb_filter_order = 7;
  double bb_filter_ripple_db = 1.0;
  /// Nominal single-sided channel bandwidth [Hz]; the occupied 802.11a
  /// spectrum extends to +/-8.3 MHz.
  double bb_filter_edge_hz = 8.6e6;
  /// Multiplier on the nominal edge — the x-axis of Fig. 5.
  double bb_bandwidth_factor = 1.0;

  // --- AGC / ADC -----------------------------------------------------------
  /// AGC tuned to settle ~10-25 dB of level error within the 16 us PLCP
  /// preamble at 80 Msps and then hold quiet; residual slow drift is
  /// absorbed by the receiver's pilot common-gain correction.
  AgcConfig agc{.label = "bb_agc",
                .target_power_dbm = -3.0,
                .max_gain_db = 70.0,
                .min_gain_db = -30.0,
                .loop_gain = 0.01,
                .attack_db_per_sample = 0.1,
                .decay_db_per_sample = 0.1,
                .detector_time_const = 32.0,
                .initial_gain_db = 30.0,
                .lock_window_db = 2.0,
                .lock_count = 96,
                .unlock_window_db = 10.0};
  AdcConfig adc{.label = "adc", .bits = 10, .full_scale = 0.08, .enabled = true};

  /// Master switch for every stochastic impairment (thermal noise, flicker,
  /// phase noise). Turning it off reproduces the AMS Designer limitation of
  /// §5.1 — "the AMS designer does not support ... white_noise,
  /// flicker_noise" — which made co-simulated BER optimistic.
  bool noise_enabled = true;
};

class DoubleConversionReceiver : public RfBlock {
 public:
  DoubleConversionReceiver(const DoubleConversionConfig& cfg, dsp::Rng rng);

  void reset() override { chain_.reset(); }
  std::string name() const override { return "double_conversion_rx"; }

  /// Every block of the cascade runs its configuration on lanes, fused
  /// (see RfChain).
  void begin_lanes(std::size_t nl) override { chain_.begin_lanes(nl); }
  void process_tile_lanes(double* soa, std::size_t n, std::size_t nl) override {
    chain_.process_tile_lanes(soa, n, nl);
  }

  /// Lane 0's reseed_lanes(): after reset() + reseed(rng) a persistent
  /// width-1 receiver produces exactly the stream a
  /// DoubleConversionReceiver(cfg, rng) built from scratch would (the
  /// flicker calibration uses its own fixed seed, so skipping it changes
  /// nothing).
  void reseed(dsp::Rng rng) { reseed_lanes(0, rng); }

  /// Fork the per-stage rngs from `rng` into lane `lane`'s slots in the
  /// constructor's order. After begin_lanes(), lane l then reproduces a
  /// receiver built with that rng, bit for bit.
  void reseed_lanes(std::size_t lane, dsp::Rng rng);

  /// Optional per-lane noise tapes for the two noisy stages (see
  /// rf/lane_tape.h): the LNA's thermal-noise unit normals, and mixer 2's
  /// flicker noise after its shaping filter, keyed by the flicker source's
  /// shape. Pass nullptr to draw from the lane rng; pass an empty tape to
  /// record; pass a complete tape to replay (the flicker tape only when its
  /// shape matches, and only when every lane's does).
  void set_lane_tapes(std::size_t lane, dsp::RVec* lna_tape,
                      ShapedNoiseTape* flicker_tape);

  const DoubleConversionConfig& config() const { return cfg_; }

  /// Stage handles for characterization and tests.
  Amplifier& lna() { return *lna_; }
  Mixer& mixer1() { return *mixer1_; }
  Mixer& mixer2() { return *mixer2_; }
  ChebyshevLowpass& channel_filter() { return *bb_lpf_; }
  Agc& agc() { return *agc_; }

  /// Total small-signal voltage gain up to the AGC input [dB].
  double front_end_gain_db() const;

 private:
  DoubleConversionConfig cfg_;
  RfChain chain_;
  Amplifier* lna_ = nullptr;
  Mixer* mixer1_ = nullptr;
  Mixer* mixer2_ = nullptr;
  FlickerNoiseSource* flicker_ = nullptr;
  ChebyshevLowpass* bb_lpf_ = nullptr;
  Agc* agc_ = nullptr;
};

}  // namespace wlansim::rf
