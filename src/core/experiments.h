// Canned experiments reproducing every table and figure of the paper's
// evaluation. Each returns raw data; the bench binaries print the series.
//
// Index (see DESIGN.md):
//   FIG4     - OFDM spectrum with adjacent channel
//   FIG5     - BER vs. Chebyshev baseband filter bandwidth
//   FIG6     - BER vs. LNA compression point (adjacent / non-adjacent)
//   TAB2     - simulation time, system-level vs. co-simulation
//   EVM      - error vector magnitude with ideal receiver (§5.2)
//   NOISEGAP - co-simulation optimistic BER without noise functions (§5.1)
#pragma once

#include <vector>

#include "core/link.h"
#include "dsp/spectrum.h"
#include "sim/sweep.h"

namespace wlansim::core {

/// Baseline link used by the experiments: 24 Mbps, 200-byte packets,
/// double-conversion front-end at 4x oversampling, 25 dB SNR.
LinkConfig default_link_config();

// ---------------------------------------------------------------------------
// FIG4 — "OFDM signal and adjacent channel"
// ---------------------------------------------------------------------------
struct SpectrumResult {
  dsp::PsdEstimate psd;          ///< of the RF front-end input
  double sample_rate_hz = 0.0;
  double wanted_power_dbm = 0.0;    ///< integrated over +/-10 MHz around 0
  double adjacent_power_dbm = 0.0;  ///< integrated around the offset
  double offset_hz = 0.0;
};
SpectrumResult experiment_fig4_spectrum(LinkConfig base);

// ---------------------------------------------------------------------------
// FIG5 — "BER vs filter bandwidth (with present adjacent channel)"
// ---------------------------------------------------------------------------
/// Sweeps the Chebyshev channel-select passband-edge multiplier. Columns:
/// "ber", "per", "evm".
sim::SweepResult experiment_fig5_filter_bandwidth(
    LinkConfig base, const std::vector<double>& bandwidth_factors,
    std::size_t packets_per_point);

// ---------------------------------------------------------------------------
// FIG6 — "BER vs compression point of first LNA"
// ---------------------------------------------------------------------------
/// Sweeps the LNA input-referred P1dB. Columns: "ber_adjacent",
/// "ber_nonadjacent" (adjacent = +16 dB at +20 MHz, non-adjacent = +32 dB
/// at +40 MHz, per the paper's §2.2 receiver requirements).
sim::SweepResult experiment_fig6_compression(
    LinkConfig base, const std::vector<double>& p1db_dbm,
    std::size_t packets_per_point);

/// §4.1 companion sweep: BER vs LNA IIP3 (clipped-cubic model, adjacent
/// channel present). Columns: "ber", "evm".
sim::SweepResult experiment_ip3_sweep(LinkConfig base,
                                      const std::vector<double>& iip3_dbm,
                                      std::size_t packets_per_point);

// ---------------------------------------------------------------------------
// ADAPTIVE — sequential early-stopping BER waterfall (Figs. 5-7 cost shape)
// ---------------------------------------------------------------------------
/// BER vs SNR on the adaptive Monte-Carlo engine: every point runs until
/// `rule` is satisfied (or its packet cap), with converged points donating
/// their workers to the deep-SNR stragglers. Columns: "ber", "per", "evm",
/// "packets", "bit_errors", "ci_rel", "converged", "wall_s". Results are
/// deterministic for any `threads` (see core/parallel.h).
sim::SweepResult experiment_ber_waterfall_adaptive(
    LinkConfig base, const std::vector<double>& snrs_db,
    const sim::StoppingRule& rule, std::size_t threads = 0);

// ---------------------------------------------------------------------------
// TAB2 — "Comparison of simulation time"
// ---------------------------------------------------------------------------
/// Both runs are timed after one untimed warm-up packet on their link.
struct TimingRow {
  std::size_t packets = 0;
  double system_seconds = 0.0;  ///< SPW-style system-level run
  double cosim_seconds = 0.0;   ///< AMS-style co-simulation run
  double ratio = 0.0;           ///< cosim / system (paper: 30-40x)
};
std::vector<TimingRow> experiment_table2_timing(
    LinkConfig base, const std::vector<std::size_t>& packet_counts);

// ---------------------------------------------------------------------------
// EVM (§5.2) — ideal-receiver constellation quality vs. drive level
// ---------------------------------------------------------------------------
/// Sweeps the received power toward the LNA compression point. Columns:
/// "evm_percent", "evm_db", "ber" for each rate requested.
sim::SweepResult experiment_evm_vs_power(LinkConfig base,
                                         const std::vector<double>& rx_dbm,
                                         std::size_t packets_per_point);

// ---------------------------------------------------------------------------
// NOISEGAP (§5.1) — missing noise functions make co-simulated BER optimistic
// ---------------------------------------------------------------------------
struct NoiseGapResult {
  double ber_system = 0.0;        ///< system-level model, noise on (SPW)
  double ber_cosim_nonoise = 0.0; ///< co-sim, noise functions unsupported
  double ber_cosim_fixed = 0.0;   ///< co-sim with the random-function fix
  double evm_system = 0.0;
  double evm_cosim_nonoise = 0.0;
};
NoiseGapResult experiment_noise_gap(LinkConfig base,
                                    std::size_t packets_per_point);

}  // namespace wlansim::core
