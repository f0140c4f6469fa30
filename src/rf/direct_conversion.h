// Zero-IF (direct-conversion) receiver — the architecture the paper's
// double-conversion design is built to avoid (§2.2): with the LO at the
// carrier, the self-mixing DC offset and flicker noise land in the middle
// of the occupied spectrum where no high-pass filter can remove them
// without eating the signal, and finite LO isolation gives time-varying
// offsets. Having both architectures makes the paper's design rationale a
// measurable comparison (see bench/architecture_comparison).
#pragma once

#include "dsp/rng.h"
#include "rf/adc.h"
#include "rf/agc.h"
#include "rf/amplifier.h"
#include "rf/filters.h"
#include "rf/mixer.h"
#include "rf/noise.h"
#include "rf/rfblock.h"

namespace wlansim::rf {

struct DirectConversionConfig {
  double sample_rate_hz = 80e6;

  // --- LNA (same role as in the double-conversion chain) -------------------
  double lna_gain_db = 15.0;
  double lna_nf_db = 3.0;
  double lna_p1db_in_dbm = -20.0;
  NonlinearityModel lna_model = NonlinearityModel::kRapp;

  // --- Single quadrature mixer at the carrier ------------------------------
  double mixer_gain_db = 16.0;  ///< one stage does both conversions' work
  double lo_offset_hz = 0.0;
  PhaseNoiseSpec lo_phase_noise{};
  /// Self-mixing DC offset [sqrt(W)] — sits at the channel center, on top
  /// of the signal, and cannot be high-pass filtered away.
  dsp::Cplx dc_offset{3e-4, 2e-4};
  /// Wandering LO-leakage self-mixing product: RMS amplitude [sqrt(W)] of
  /// an offset drifting within `dynamic_dc_bandwidth_hz` of DC (antenna
  /// reflections, AGC gain steps). The defining zero-IF impairment: too
  /// fast for a DC servo, squarely inside the occupied spectrum. In the
  /// half-RF double-conversion architecture the equivalent product appears
  /// between the stages and is removed by the interstage high-pass.
  double dynamic_dc_rms = 0.0;
  double dynamic_dc_bandwidth_hz = 50e3;
  /// IQ imbalance is a first-order problem at zero IF.
  double iq_gain_imbalance_db = 0.3;
  double iq_phase_error_deg = 2.0;

  // --- Baseband flicker noise (in-band at zero IF) -------------------------
  double flicker_power_dbm = -60.0;
  double flicker_corner_hz = 200e3;

  /// Optional "DC servo" notch: a very narrow high-pass. At zero IF it
  /// necessarily bites into the occupied spectrum near DC — the tradeoff
  /// that motivates the paper's double-conversion choice. 0 disables.
  double dc_servo_cutoff_hz = 10e3;

  // --- Channel selection / AGC / ADC (shared design) -----------------------
  std::size_t bb_filter_order = 7;
  double bb_filter_ripple_db = 1.0;
  double bb_filter_edge_hz = 8.6e6;
  AgcConfig agc{.label = "zif_agc",
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
  AdcConfig adc{.label = "zif_adc", .bits = 10, .full_scale = 0.08,
                .enabled = true};
  bool noise_enabled = true;
};

class DirectConversionReceiver : public RfBlock {
 public:
  DirectConversionReceiver(const DirectConversionConfig& cfg, dsp::Rng rng);

  void reset() override { chain_.reset(); }
  std::string name() const override { return "direct_conversion_rx"; }

  /// The cascade, fused (see RfChain), at width 1 only: a link builds one
  /// receiver per packet, and its blocks have no per-lane reseed here.
  /// begin_lanes() and process_tile_lanes() throw std::invalid_argument for
  /// any other width.
  void begin_lanes(std::size_t nl) override;
  void process_tile_lanes(double* soa, std::size_t n, std::size_t nl) override;

  const DirectConversionConfig& config() const { return cfg_; }
  double front_end_gain_db() const {
    return cfg_.lna_gain_db + cfg_.mixer_gain_db;
  }

 private:
  DirectConversionConfig cfg_;
  RfChain chain_;
};

}  // namespace wlansim::rf
