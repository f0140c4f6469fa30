#include "core/experiments.h"

#include <chrono>
#include <cmath>

#include "core/parallel.h"
#include "dsp/mathutil.h"

namespace wlansim::core {

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::map<std::string, double> ber_row(const BerResult& r) {
  return {{"ber", r.ber()}, {"per", r.per()}, {"evm", r.evm_rms_avg}};
}

}  // namespace

LinkConfig default_link_config() {
  LinkConfig cfg;
  cfg.rate = phy::Rate::kMbps24;
  cfg.psdu_bytes = 200;
  cfg.rx_power_dbm = -65.0;
  cfg.snr_db = 25.0;
  cfg.rf_engine = RfEngine::kSystemLevel;
  cfg.oversample = 4;
  cfg.seed = 2003;  // venue year
  return cfg;
}

SpectrumResult experiment_fig4_spectrum(LinkConfig base) {
  if (!base.interferer.has_value()) {
    channel::InterfererConfig jam;
    jam.offset_hz = 20e6;
    jam.level_db = 16.0;
    base.interferer = jam;
  }
  // A longer packet gives the PSD estimator more segments.
  base.psdu_bytes = 1000;
  WlanLink link(base);
  (void)link.run_packet(0);

  SpectrumResult out;
  out.sample_rate_hz = base.rf.sample_rate_hz;
  out.offset_hz = base.interferer->offset_hz;
  dsp::WelchConfig wc;
  wc.nfft = 1024;
  out.psd = dsp::welch_psd(link.last_rf_input(), wc);

  const double bw_norm = 16.6e6 / out.sample_rate_hz;
  out.wanted_power_dbm =
      dsp::watts_to_dbm(out.psd.band_power(0.0, bw_norm));
  out.adjacent_power_dbm = dsp::watts_to_dbm(
      out.psd.band_power(out.offset_hz / out.sample_rate_hz, bw_norm));
  return out;
}

sim::SweepResult experiment_fig5_filter_bandwidth(
    LinkConfig base, const std::vector<double>& bandwidth_factors,
    std::size_t packets_per_point) {
  if (!base.interferer.has_value()) {
    channel::InterfererConfig jam;
    jam.offset_hz = 20e6;
    jam.level_db = 16.0;
    base.interferer = jam;
  }
  return sim::run_sweep(
      "bandwidth_factor", bandwidth_factors,
      [&](double factor) {
        LinkConfig cfg = base;
        cfg.rf.bb_bandwidth_factor = factor;
        WlanLink link(cfg);
        return ber_row(link.run_ber(packets_per_point));
      });
}

sim::SweepResult experiment_fig6_compression(
    LinkConfig base, const std::vector<double>& p1db_dbm,
    std::size_t packets_per_point) {
  // The +40 MHz non-adjacent channel needs 8x oversampling to stay inside
  // Nyquist (paper §4.1: "over-sampled to fulfill the sampling theorem").
  base.oversample = std::max<std::size_t>(base.oversample, 8);
  // Drive levels matching the paper's spec (§2.2): strong wanted signal,
  // adjacent +16 dB, non-adjacent (second adjacent) +32 dB.
  base.rx_power_dbm = -40.0;

  return sim::run_sweep(
      "lna_p1db_dbm", p1db_dbm,
      [&](double p1db) {
        std::map<std::string, double> row;

        LinkConfig adj = base;
        adj.rf.lna_p1db_in_dbm = p1db;
        adj.interferer = channel::InterfererConfig{
            .offset_hz = 20e6, .level_db = 16.0};
        WlanLink link_adj(adj);
        const BerResult a = link_adj.run_ber(packets_per_point);
        row["ber_adjacent"] = a.ber();
        row["per_adjacent"] = a.per();

        LinkConfig non = base;
        non.rf.lna_p1db_in_dbm = p1db;
        non.interferer = channel::InterfererConfig{
            .offset_hz = 40e6, .level_db = 32.0};
        WlanLink link_non(non);
        const BerResult b = link_non.run_ber(packets_per_point);
        row["ber_nonadjacent"] = b.ber();
        row["per_nonadjacent"] = b.per();
        return row;
      });
}

sim::SweepResult experiment_ip3_sweep(LinkConfig base,
                                      const std::vector<double>& iip3_dbm,
                                      std::size_t packets_per_point) {
  if (!base.interferer.has_value()) {
    base.interferer =
        channel::InterfererConfig{.offset_hz = 20e6, .level_db = 16.0};
  }
  base.rx_power_dbm = -40.0;
  base.rf.lna_model = rf::NonlinearityModel::kClippedCubic;
  return sim::run_sweep(
      "lna_iip3_dbm", iip3_dbm,
      [&](double iip3) {
        LinkConfig cfg = base;
        // For the cubic model IIP3 sits 9.6 dB above P1dB.
        cfg.rf.lna_p1db_in_dbm = iip3 - 9.6;
        WlanLink link(cfg);
        return ber_row(link.run_ber(packets_per_point));
      });
}

sim::SweepResult experiment_ber_waterfall_adaptive(
    LinkConfig base, const std::vector<double>& snrs_db,
    const sim::StoppingRule& rule, std::size_t threads) {
  std::vector<LinkConfig> points;
  points.reserve(snrs_db.size());
  for (const double snr : snrs_db) {
    LinkConfig cfg = base;
    cfg.snr_db = snr;
    points.push_back(cfg);
  }
  SweepOptions opts;
  opts.threads = threads;
  const std::vector<BerResult> results =
      sweep_ber_adaptive(points, rule, opts);

  sim::SweepResult out;
  out.param_name = "snr_db";
  out.rows.reserve(snrs_db.size());
  for (std::size_t k = 0; k < snrs_db.size(); ++k) {
    const BerResult& r = results[k];
    std::map<std::string, double> row = ber_row(r);
    row["packets"] = static_cast<double>(r.packets);
    row["bit_errors"] = static_cast<double>(r.bit_errors);
    row["ci_rel"] = r.ber_ci_rel;
    row["converged"] = r.converged ? 1.0 : 0.0;
    row["wall_s"] = r.wall_seconds;
    out.rows.push_back(sim::SweepRow{snrs_db[k], std::move(row)});
  }
  return out;
}

std::vector<TimingRow> experiment_table2_timing(
    LinkConfig base, const std::vector<std::size_t>& packet_counts) {
  std::vector<TimingRow> rows;
  for (std::size_t n : packet_counts) {
    TimingRow row;
    row.packets = n;

    // Each link runs one untimed packet first, so the lazy set-up its
    // first packet pays (workspaces, FFT plans, filter taps) stays out of
    // the steady-state time the paper compares.
    LinkConfig sys = base;
    sys.rf_engine = RfEngine::kSystemLevel;
    {
      WlanLink link(sys);
      (void)link.run_packet(0);
      const double t0 = now_seconds();
      (void)link.run_ber(n);
      row.system_seconds = now_seconds() - t0;
    }

    LinkConfig co = base;
    co.rf_engine = RfEngine::kCosim;
    {
      WlanLink link(co);
      (void)link.run_packet(0);
      const double t0 = now_seconds();
      (void)link.run_ber(n);
      row.cosim_seconds = now_seconds() - t0;
    }

    row.ratio = row.system_seconds > 0.0
                    ? row.cosim_seconds / row.system_seconds
                    : 0.0;
    rows.push_back(row);
  }
  return rows;
}

sim::SweepResult experiment_evm_vs_power(LinkConfig base,
                                         const std::vector<double>& rx_dbm,
                                         std::size_t packets_per_point) {
  return sim::run_sweep(
      "rx_power_dbm", rx_dbm,
      [&](double dbm) {
        LinkConfig cfg = base;
        cfg.rx_power_dbm = dbm;
        WlanLink link(cfg);
        const BerResult r = link.run_ber(packets_per_point);
        return std::map<std::string, double>{
            {"evm_percent", 100.0 * r.evm_rms_avg},
            {"evm_db", r.evm_rms_avg > 0.0
                           ? 20.0 * std::log10(r.evm_rms_avg)
                           : -100.0},
            {"ber", r.ber()}};
      });
}

NoiseGapResult experiment_noise_gap(LinkConfig base,
                                    std::size_t packets_per_point) {
  // The gap concerns the RF subsystem's own noise sources; remove channel
  // noise so they dominate, and run close to sensitivity.
  base.snr_db.reset();
  NoiseGapResult out;

  LinkConfig sys = base;
  sys.rf_engine = RfEngine::kSystemLevel;
  sys.rf.noise_enabled = true;
  {
    WlanLink link(sys);
    const BerResult r = link.run_ber(packets_per_point);
    out.ber_system = r.ber();
    out.evm_system = r.evm_rms_avg;
  }

  LinkConfig co = base;
  co.rf_engine = RfEngine::kCosim;
  co.rf.noise_enabled = true;
  co.cosim.supports_noise_functions = false;  // the AMS 2.0 limitation
  {
    WlanLink link(co);
    const BerResult r = link.run_ber(packets_per_point);
    out.ber_cosim_nonoise = r.ber();
    out.evm_cosim_nonoise = r.evm_rms_avg;
  }

  LinkConfig fixed = co;
  fixed.cosim.supports_noise_functions = true;  // the paper's workaround
  {
    WlanLink link(fixed);
    const BerResult r = link.run_ber(packets_per_point);
    out.ber_cosim_fixed = r.ber();
  }
  return out;
}

}  // namespace wlansim::core
