// BLACKBOX — paper §4 (flow option two) and §6: "the J&K models [6] are
// available to bring the RF subsystems of receiver and transmitter as
// black-box into a SPW system simulation."
//
// Extracts a J&K-style surrogate (frequency response + AM/AM + AM/PM +
// equivalent noise) from the full double-conversion chain, then runs the
// identical WLAN link with both and compares fidelity and speed.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/experiments.h"
#include "rf/blackbox.h"

int main() {
  using namespace wlansim;
  bench::banner("BLACKBOX", "J&K black-box model of the RF subsystem",
                "the extracted surrogate matches the full chain's link "
                "quality and simulates faster");

  // A static-gain variant of the front-end (extraction needs the chain in
  // a settled state, like the PSS-based K-model extraction).
  core::LinkConfig base = core::default_link_config();
  base.rf.agc.loop_gain = 0.0;
  base.rf.agc.initial_gain_db = 0.0;
  base.rf.adc.enabled = false;

  rf::DoubleConversionConfig rfc = base.rf;
  rfc.sample_rate_hz = phy::kSampleRate * base.oversample;
  rf::DoubleConversionReceiver chain(rfc, dsp::Rng(99));

  std::printf("extracting (frequency grid + envelope sweep + noise)...\n");
  rf::ExtractionConfig ec;
  const auto t0 = std::chrono::steady_clock::now();
  const auto fit = rf::fit_blackbox(rf::extract_blackbox(chain, ec));
  const rf::BlackBoxData& data = fit->data;
  const double t_extract =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  std::printf("extraction done in %.2f s (%zu frequency points, %zu "
              "envelope points)\n\n", t_extract, data.freq_hz.size(),
              data.env_in.size());

  const std::size_t packets = 20;

  core::LinkConfig full = base;
  core::WlanLink full_link(full);
  const core::BerResult r_full = full_link.run_ber(packets);

  core::LinkConfig surr = base;
  surr.rf_engine = core::RfEngine::kCustom;
  // The link builds one block per packet; each shares the one fit and
  // brings only its filter delay line and rng.
  surr.custom_rf = [fit](dsp::Rng rng) {
    return std::make_unique<rf::BlackBoxModel>(fit, rng);
  };
  core::WlanLink surr_link(surr);
  const core::BerResult r_surr = surr_link.run_ber(packets);

  // Speed: per-packet medians on the two warm links, alternating packet by
  // packet so both see the same machine load.
  std::vector<double> dt_full, dt_surr;
  const auto time_packet = [](core::WlanLink& link, std::size_t i) {
    const auto t = std::chrono::steady_clock::now();
    (void)link.run_packet(i);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t)
        .count();
  };
  for (std::size_t i = 1; i <= packets; ++i) {
    dt_full.push_back(time_packet(full_link, i));
    dt_surr.push_back(time_packet(surr_link, i));
  }
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return 0.5 * (v[(v.size() - 1) / 2] + v[v.size() / 2]);
  };
  const double t_full = median(dt_full);
  const double t_surr = median(dt_surr);

  std::printf("%-26s %10s %8s %12s\n", "model", "BER", "EVM%",
              "packet [ms]");
  std::printf("%-26s %10.2e %8.2f %12.2f\n", "full behavioral chain",
              r_full.ber(), 100.0 * r_full.evm_rms_avg, 1e3 * t_full);
  std::printf("%-26s %10.2e %8.2f %12.2f\n", "extracted black-box",
              r_surr.ber(), 100.0 * r_surr.evm_rms_avg, 1e3 * t_surr);
  std::printf("\nspeedup %.1fx; EVM difference %.2f points\n",
              t_full / t_surr,
              100.0 * std::abs(r_full.evm_rms_avg - r_surr.evm_rms_avg));

  const bool fidelity =
      std::abs(r_full.evm_rms_avg - r_surr.evm_rms_avg) < 0.04 &&
      r_surr.ber() < 1e-2 && r_full.ber() < 1e-2;
  const bool faster = t_surr < t_full;
  std::printf("\nresult: %s\n",
              (fidelity && faster) ? "SHAPE REPRODUCED" : "MISMATCH");
  return (fidelity && faster) ? 0 : 1;
}
