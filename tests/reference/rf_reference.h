// Scalar reference models of the RF blocks, in the test-only
// `wlansim_reference` library: each runs one complex stream through its own
// loop, written independently of the block's lane loop, so the
// lanes-against-scalar tests compare two implementations rather than one
// with itself. Each reference computes its constants from the
// configuration the block was built with and carries its state across
// process_tile() calls, so any tiling of a buffer equals one whole-buffer
// call; its rng draws the stream a fresh rf:: block built with that rng
// draws.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "dsp/iir.h"
#include "dsp/rng.h"
#include "rf/adc.h"
#include "rf/agc.h"
#include "rf/amplifier.h"
#include "rf/mixer.h"
#include "rf/receiver_chain.h"
#include "sim/cosim.h"

namespace wlansim::rf::ref {

class Block {
 public:
  virtual ~Block() = default;
  /// Filter `in` into the pre-sized `out`, which may be `in`.
  virtual void process_tile(std::span<const dsp::Cplx> in,
                            std::span<dsp::Cplx> out) = 0;
  dsp::CVec process(std::span<const dsp::Cplx> in);
};

class Amplifier : public Block {
 public:
  Amplifier(const AmplifierConfig& cfg, double sample_rate_hz, dsp::Rng rng);
  void process_tile(std::span<const dsp::Cplx> in,
                    std::span<dsp::Cplx> out) override;

 private:
  double rapp_gain_from_norm(double n2) const;
  double am_am(double a) const;
  double am_pm(double a) const;
  dsp::Cplx rapp_sample(dsp::Cplx x) const;
  dsp::Cplx envelope_sample(dsp::Cplx x, bool pm_active) const;

  AmplifierConfig cfg_;
  double lin_gain_, a1db_, vsat_rapp_, lin_gain2_, inv_vsat2_, inv_2p_;
  bool rapp_is_p2_;
  double cubic_a3_, clip_in_, noise_power_;
  dsp::Rng rng_;
  dsp::RVec noise_scratch_;
};

class Mixer : public Block {
 public:
  Mixer(const MixerConfig& cfg, double sample_rate_hz, dsp::Rng rng);
  void process_tile(std::span<const dsp::Cplx> in,
                    std::span<dsp::Cplx> out) override;

 private:
  MixerConfig cfg_;
  double gain_, dphi_lo_, pn_sigma_, image_amp_, iq_eps_, iq_phi_;
  double lo_phase_ = 0.0;
  double pn_phase_ = 0.0;
  dsp::Rng rng_;
  dsp::RVec phase_scratch_;
};

/// ChebyshevLowpass and DcBlockHighpass: dsp::BiquadCascade's own loop over
/// the block's design.
class Biquads : public Block {
 public:
  explicit Biquads(dsp::BiquadCascade design) : filt_(std::move(design)) {}
  void process_tile(std::span<const dsp::Cplx> in,
                    std::span<dsp::Cplx> out) override;

 private:
  dsp::BiquadCascade filt_;
};

class Agc : public Block {
 public:
  explicit Agc(const AgcConfig& cfg);
  void process_tile(std::span<const dsp::Cplx> in,
                    std::span<dsp::Cplx> out) override;

 private:
  AgcConfig cfg_;
  double gain_db_, det_power_ = 0.0, alpha_;
  bool locked_ = false;
  std::size_t settled_run_ = 0;
  double cached_gain_db_, cached_gain_lin_ = 1.0;
  double unlock_lo_w_, unlock_hi_w_;
};

class Adc : public Block {
 public:
  explicit Adc(const AdcConfig& cfg);
  void process_tile(std::span<const dsp::Cplx> in,
                    std::span<dsp::Cplx> out) override;

 private:
  AdcConfig cfg_;
  double step_, inv_step_;
};

class FlickerNoise : public Block {
 public:
  FlickerNoise(double power_watts, double corner_low_hz, double corner_high_hz,
               double sample_rate_hz, dsp::Rng rng);
  void process_tile(std::span<const dsp::Cplx> in,
                    std::span<dsp::Cplx> out) override;

 private:
  double drive_sigma_;
  std::vector<dsp::Biquad> stages_;
  dsp::Rng rng_;
  dsp::CVec scratch_;
  dsp::RVec rscratch_;
};

class WanderingDc : public Block {
 public:
  WanderingDc(double rms_amplitude, double bandwidth_hz, double sample_rate_hz,
              dsp::Rng rng);
  void process_tile(std::span<const dsp::Cplx> in,
                    std::span<dsp::Cplx> out) override;

 private:
  double rms_, alpha_, drive_std_;
  dsp::Cplx state_;
  dsp::Rng rng_;
  dsp::RVec scratch_;
};

/// A cascade run block at a time: each block over the whole buffer in turn.
class Chain : public Block {
 public:
  void append(std::unique_ptr<Block> b) { blocks_.push_back(std::move(b)); }
  void process_tile(std::span<const dsp::Cplx> in,
                    std::span<dsp::Cplx> out) override;

 private:
  std::vector<std::unique_ptr<Block>> blocks_;
};

/// rf::DoubleConversionReceiver(cfg, rng)'s cascade, same rng forks.
std::unique_ptr<Chain> double_conversion_receiver(
    const DoubleConversionConfig& cfg, dsp::Rng rng);

/// sim::CosimRfReceiver's co-simulation loop, one system sample at a time
/// (the handshake, which only costs time, is left out).
class Cosim : public Block {
 public:
  Cosim(const DoubleConversionConfig& rf_cfg, const sim::CosimConfig& cfg,
        dsp::Rng rng);
  void process_tile(std::span<const dsp::Cplx> in,
                    std::span<dsp::Cplx> out) override;

 private:
  std::size_t r_;
  std::unique_ptr<Chain> analog_;
  dsp::Cplx prev_in_{0.0, 0.0};
  dsp::CVec fine_;
};

}  // namespace wlansim::rf::ref
