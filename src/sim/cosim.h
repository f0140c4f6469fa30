// Co-simulation engine: runs the analog RF subsystem at a fine "analog
// solver" timestep synchronized sample-by-sample with the system-rate
// dataflow side — the C++ stand-in for the SPW <-> AMS Designer
// co-simulation the paper evaluates (§4.3, §5.3).
//
// Two properties of the real tool chain are reproduced deliberately:
//  * cost — every system-rate sample triggers an event synchronization and
//    `analog_oversample` fine-step evaluations of the full analog model,
//    which is why the paper measures co-simulation 30-40x slower than the
//    pure system simulation (Table 2);
//  * the noise-function gap — AMS Designer 2.0 ignored the Verilog-A
//    white_noise/flicker_noise functions in transient analysis (§4.3), so
//    co-simulated BER came out optimistic (§5.1). The same limitation is
//    the default here and can be lifted like the paper's proposed fix.
//
// The receiver has one loop, on lanes (see rf::RfBlock): the packet wave
// runs it at width W, and the dataflow graph through process() at width 1.
// It keeps the per-packet cost model — each lane pays its own handshake
// and its own fine steps of the whole analog chain per system sample — and
// lets up to W co-simulated packets share the fine chain's SIMD lanes.
#pragma once

#include "dsp/rng.h"
#include "rf/receiver_chain.h"

namespace wlansim::sim {

struct CosimConfig {
  /// Fine analog steps per system-rate sample. The default resolves ~0.1 ns
  /// dynamics from the 80 Msps boundary — an analog transient of a 2.6 GHz
  /// front-end must step at a fraction of the carrier period, which is
  /// precisely why the paper measured co-simulation 30-40x slower.
  std::size_t analog_oversample = 128;
  /// Whether the analog transient supports the noise functions. AMS 2.0
  /// did not; enabling this models the paper's "insert noise functionality
  /// ... by using Verilog-AMS random functions" workaround.
  bool supports_noise_functions = false;
  /// Extra per-sample synchronization work (number of handshake
  /// operations) to model the simulator-coupling (VPI) overhead.
  std::size_t sync_overhead_ops = 256;
};

/// Drop-in replacement for rf::DoubleConversionReceiver that evaluates the
/// same front-end through the co-simulation path: first-order-hold
/// interpolation to the fine timestep, full analog evaluation per fine
/// step, decimation back to the system rate.
class CosimRfReceiver : public rf::RfBlock {
 public:
  CosimRfReceiver(const rf::DoubleConversionConfig& rf_cfg,
                  const CosimConfig& cosim_cfg, dsp::Rng rng);

  /// Clears the fine chain's carried state, every lane's hold value and
  /// the step count.
  void reset() override;
  std::string name() const override { return "cosim_rf_rx"; }

  /// Sets the width and clears every lane's hold value and the step count;
  /// lane l of process_tile_lanes() then equals a fresh receiver built
  /// with the rng passed to reseed_lanes(l, ...), bit for bit.
  void begin_lanes(std::size_t nl) override;
  /// Fork the fine-rate chain's per-stage rngs into lane `lane`'s slots in
  /// the constructor's order (see DoubleConversionReceiver::reseed_lanes).
  void reseed_lanes(std::size_t lane, dsp::Rng rng) {
    analog_->reseed_lanes(lane, rng);
  }
  void process_tile_lanes(double* soa, std::size_t n, std::size_t nl) override;

  const CosimConfig& cosim_config() const { return cfg_; }

  /// Number of analog fine-step evaluations performed so far, per lane:
  /// every lane steps in lockstep.
  std::size_t analog_steps() const { return analog_steps_; }

 private:
  /// The modelled simulator-coupling cost of one system sample of one
  /// packet: `sync_overhead_ops` square roots into the volatile sink.
  void handshake();

  CosimConfig cfg_;
  std::unique_ptr<rf::DoubleConversionReceiver> analog_;
  dsp::RVec lane_prev_;      ///< 2*nl rails: each lane's previous sample
  dsp::RVec lane_fine_;      ///< one fine SoA tile: analog_oversample rows
  std::size_t analog_steps_ = 0;
  volatile double sync_sink_ = 0.0;  ///< defeats optimizing the handshake away
};

}  // namespace wlansim::sim
