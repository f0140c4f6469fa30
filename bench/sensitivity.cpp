// SENS — receiver minimum input sensitivity (Std 802.11a 17.3.10.1,
// Table 91; the "-88 to -23 dBm" operating range of the paper's §2.2).
// Measures the level where each rate's PER crosses 10 % through the full
// double-conversion front-end and compares against the standard's
// requirement (which budgets a 10 dB noise figure + 5 dB implementation
// margin — a good front-end beats it comfortably).
//
// The sensitivity walk runs on the calibrated BER surrogate
// (core/surrogate.h, axis = receive power): the first run measures each
// level with the adaptive Monte-Carlo engine and backfills the persistent
// calibration store; later runs answer the whole ladder from the store in
// microseconds. A Monte-Carlo spot-check pass re-measures the sensitivity
// edge (a stored knot — must match exactly) and an off-knot interpolated
// level (must agree within the combined Wilson CI) every run.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <span>

#include "bench_util.h"
#include "core/experiments.h"
#include "core/parallel.h"
#include "core/surrogate.h"
#include "phy80211a/conformance.h"

namespace {

using namespace wlansim;

sim::StoppingRule sens_rule() {
  // Per-level adaptive budget: tight enough that the 10 % PER crossing is
  // trustworthy, capped so clean (error-free) levels stay cheap.
  sim::StoppingRule rule;
  rule.target_rel_ci = 0.30;
  rule.min_errors = 32;
  rule.min_packets = 8;
  rule.max_packets = 32;
  return rule;
}

core::DedupOptions sens_opts() {
  // A plain surrogate query: no quantization, so a level between stored
  // knots is interpolated and a missed one measured and backfilled.
  core::DedupOptions opts;
  opts.surrogate.axis = sim::SurrogateAxis::kRxPowerDbm;
  opts.surrogate.rule = sens_rule();
  opts.bin_width_db = 0.0;
  return opts;  // store_dir empty: default_calibration_dir()
}

core::LinkConfig sens_config(phy::Rate rate, double dbm) {
  core::LinkConfig cfg = core::default_link_config();
  cfg.rate = rate;
  cfg.psdu_bytes = 1000;  // the standard's PER reference length
  cfg.rx_power_dbm = dbm;
  cfg.snr_db.reset();  // thermal floor + chain noise only
  return cfg;
}

struct SensResult {
  double sensitivity_dbm = 0.0;
  std::size_t levels = 0;
  std::size_t surrogate_hits = 0;
  double wall_s = 0.0;
};

SensResult measure_sensitivity(phy::Rate rate) {
  using clock = std::chrono::steady_clock;
  // The 2 dB ladder from just above the requirement down to -95 dBm; one
  // surrogate sweep answers every level (stored-curve interpolation where
  // calibrated, adaptive MC + store backfill where not).
  std::vector<core::LinkConfig> levels;
  for (double dbm = phy::required_sensitivity_dbm(rate) + 2.0; dbm >= -95.0;
       dbm -= 2.0) {
    levels.push_back(sens_config(rate, dbm));
  }
  const auto t0 = clock::now();
  const std::vector<core::BerResult> results =
      core::sweep_ber_deduped(levels, sens_opts());
  const auto t1 = clock::now();

  SensResult out;
  out.levels = levels.size();
  out.wall_s = std::chrono::duration<double>(t1 - t0).count();
  double last_pass = 0.0;
  bool crossed = false;
  for (std::size_t k = 0; k < levels.size(); ++k) {
    if (results[k].from_surrogate) ++out.surrogate_hits;
    if (!crossed) {
      if (results[k].per() > 0.10) {
        crossed = true;
      } else {
        last_pass = levels[k].rx_power_dbm;
      }
    }
  }
  out.sensitivity_dbm = last_pass;
  return out;
}

/// Monte-Carlo spot check at one level: the surrogate answer must agree
/// with a direct adaptive-MC measurement within the combined Wilson CI
/// band (for a stored knot the two are bit-identical — the MC fallback is
/// a pure function of (config, rule), so re-running it reproduces the
/// stored curve exactly).
bool spot_check(phy::Rate rate, double dbm, const char* what) {
  const core::LinkConfig cfg = sens_config(rate, dbm);
  const core::BerResult s = core::sweep_ber_deduped(
      std::span<const core::LinkConfig>(&cfg, 1), sens_opts())[0];
  const core::BerResult mc = core::run_ber_adaptive(cfg, sens_rule());
  const double s_hw =
      std::isfinite(s.ber_ci_rel) ? s.ber() * s.ber_ci_rel : 0.0;
  const double mc_hw =
      std::isfinite(mc.ber_ci_rel) ? mc.ber() * mc.ber_ci_rel : 0.0;
  const double tol = s_hw + mc_hw;
  const bool agree = std::abs(s.ber() - mc.ber()) <= tol;
  std::printf("  spot check %-22s @ %5.0f dBm: surrogate BER %.2e vs "
              "MC %.2e (tol %.1e) %s%s\n",
              what, dbm, s.ber(), mc.ber(), tol, agree ? "AGREE" : "DISAGREE",
              s.from_surrogate ? "" : " [store was cold: MC vs MC]");
  return agree;
}

}  // namespace

int main() {
  using namespace wlansim;
  bench::banner("SENS", "receiver minimum sensitivity (Std Table 91)",
                "every rate meets its required sensitivity; the ladder "
                "spans ~17 dB from 6 to 54 Mbps");
  std::printf("calibration store: %s\n\n",
              core::default_calibration_dir().string().c_str());

  std::printf("%-24s %14s %14s %8s %10s %8s\n", "rate", "required [dBm]",
              "measured [dBm]", "margin", "surrogate", "wall [s]");
  bool all_pass = true;
  double sens6 = 0.0, sens54 = 0.0;
  double total_wall = 0.0;
  std::size_t total_hits = 0, total_levels = 0;
  for (phy::Rate rate : {phy::Rate::kMbps6, phy::Rate::kMbps12,
                         phy::Rate::kMbps24, phy::Rate::kMbps36,
                         phy::Rate::kMbps54}) {
    const double req = phy::required_sensitivity_dbm(rate);
    const SensResult r = measure_sensitivity(rate);
    const double margin = req - r.sensitivity_dbm;
    std::printf("%-24s %14.0f %14.0f %7.0f %6zu/%-3zu %8.3f\n",
                std::string(phy::rate_name(rate)).c_str(), req,
                r.sensitivity_dbm, margin, r.surrogate_hits, r.levels,
                r.wall_s);
    all_pass = all_pass && r.sensitivity_dbm <= req;
    total_wall += r.wall_s;
    total_hits += r.surrogate_hits;
    total_levels += r.levels;
    if (rate == phy::Rate::kMbps6) sens6 = r.sensitivity_dbm;
    if (rate == phy::Rate::kMbps54) sens54 = r.sensitivity_dbm;
  }
  std::printf("\n%zu/%zu levels answered from the calibration store, "
              "total walk %.3f s (%s store)\n",
              total_hits, total_levels, total_wall,
              total_hits == total_levels ? "warm"
              : total_hits == 0          ? "cold"
                                         : "partly warm");

  const double ladder = sens54 - sens6;
  std::printf("\nsensitivity ladder 6 -> 54 Mbps: %.0f dB (standard "
              "requires 17 dB spread)\n\n", ladder);

  // Surrogate-vs-MC agreement: a stored knot (the 6 Mbps edge) and an
  // interpolated off-knot level halfway to the next knot.
  bool spots_ok = spot_check(phy::Rate::kMbps6, sens6, "edge knot");
  spots_ok =
      spot_check(phy::Rate::kMbps6, sens6 - 1.0, "interpolated edge-1") &&
      spots_ok;

  const bool ok = all_pass && ladder > 10.0 && ladder < 25.0 && spots_ok;
  std::printf("\nresult: %s\n", ok ? "SHAPE REPRODUCED" : "MISMATCH");
  return ok ? 0 : 1;
}
