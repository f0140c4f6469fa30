#include "scenario/drop.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "phy80211a/params.h"

namespace wlansim::scenario {

namespace {

double db_to_lin(double db) { return std::pow(10.0, db / 10.0); }

/// Geometry half of one sample: everything except the link evaluation.
struct Geo {
  Vec2 pos{};
  double dist_m = 0.0;
  double path_loss_db = 0.0;
  double shadowing_db = 0.0;
  double snr_db = 0.0;      ///< clamped SINR
  double snr_bin_db = 0.0;  ///< quantized evaluation point
  std::optional<double> adj_level_db;
};

/// The single adjacent-channel offset of the drop (all adjacent BSSs must
/// share it — their powers sum into one PHY interferer).
std::optional<double> adjacent_offset(const DropConfig& cfg) {
  std::optional<double> offset;
  for (const InterfererBss& bss : cfg.interferers) {
    if (bss.offset_hz == 0.0) continue;
    if (offset.has_value() && *offset != bss.offset_hz) {
      throw std::invalid_argument(
          "run_drop: all adjacent-channel BSSs must share one offset_hz "
          "(the link hosts a single PHY interferer; co-channel BSSs are "
          "unrestricted)");
    }
    offset = bss.offset_hz;
  }
  return offset;
}

/// `shadowing` has room for the AP and every interferer BSS.
Geo station_geometry(const DropConfig& cfg, double noise_floor_dbm,
                     std::uint32_t station, std::uint32_t step, Vec2 pos,
                     std::span<double> shadowing) {
  Geo g;
  g.pos = pos;
  g.dist_m = distance_m(pos, cfg.ap);
  g.path_loss_db = log_distance_path_loss_db(cfg.path_loss, g.dist_m);
  shadowing_db(cfg.seed, station, step, cfg.path_loss.shadowing_sigma_db,
               shadowing);
  g.shadowing_db = shadowing[0];
  const double wanted_dbm = cfg.tx_power_dbm - g.path_loss_db - g.shadowing_db;

  // Interference-as-noise for co-channel BSSs; adjacent BSSs sum into the
  // PHY interferer level (they hit the RF front-end as real OFDM signal,
  // which no SINR abstraction reproduces).
  double denom_lin = db_to_lin(noise_floor_dbm);
  double adj_lin = 0.0;
  for (std::size_t j = 0; j < cfg.interferers.size(); ++j) {
    const InterfererBss& bss = cfg.interferers[j];
    const double pl =
        log_distance_path_loss_db(cfg.path_loss, distance_m(pos, bss.position));
    const double rx_dbm = bss.tx_power_dbm - pl - shadowing[j + 1];
    if (bss.offset_hz == 0.0) {
      denom_lin += db_to_lin(rx_dbm);
    } else {
      adj_lin += db_to_lin(rx_dbm);
    }
  }

  const double sinr_db = wanted_dbm - 10.0 * std::log10(denom_lin);
  g.snr_db = std::clamp(sinr_db, cfg.snr_min_db, cfg.snr_max_db);
  g.snr_bin_db = core::quantize_axis(g.snr_db, cfg.snr_bin_db);

  if (adj_lin > 0.0) {
    const double rel_db = 10.0 * std::log10(adj_lin) - wanted_dbm;
    if (rel_db >= cfg.adj_floor_db) {
      g.adj_level_db = core::quantize_axis(rel_db, cfg.adj_bin_db);
    }
  }
  return g;
}

core::LinkConfig station_link_config(const DropConfig& cfg, double snr_db,
                                     std::optional<double> adj_level_db,
                                     std::optional<double> adj_offset_hz) {
  core::LinkConfig link = cfg.link;
  link.snr_db = snr_db;
  if (adj_level_db.has_value()) {
    channel::InterfererConfig jam =
        cfg.link.interferer.value_or(channel::InterfererConfig{});
    jam.offset_hz = adj_offset_hz.value_or(jam.offset_hz);
    jam.level_db = *adj_level_db;
    link.interferer = jam;
  } else {
    link.interferer.reset();
  }
  return link;
}

}  // namespace

core::LinkConfig sample_link_config(const DropConfig& cfg,
                                    const StationSample& s) {
  return station_link_config(cfg, s.snr_bin_db, s.adj_level_db,
                             adjacent_offset(cfg));
}

DropSummary run_drop(const DropConfig& cfg, const SampleSink& sink) {
  if (!(cfg.snr_min_db <= cfg.snr_max_db)) {
    throw std::invalid_argument("run_drop: snr_min_db > snr_max_db");
  }
  const std::optional<double> adj_offset = adjacent_offset(cfg);
  const double noise_floor_dbm = -174.0 +
                                 10.0 * std::log10(cfg.bandwidth_hz) +
                                 cfg.noise_figure_db;

  const auto t0 = std::chrono::steady_clock::now();
  const auto elapsed = [&t0] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  };

  // One in-memory store view for the whole drop: curves read once, and
  // each step's backfill is visible to the next without a disk round-trip.
  std::optional<sim::BerSurrogate> cache;
  if (cfg.use_store) {
    std::filesystem::path dir = cfg.store_dir.empty()
                                    ? core::default_calibration_dir()
                                    : cfg.store_dir;
    cache.emplace(sim::CalibrationStore(std::move(dir)));
  }
  core::DedupOptions dopts;
  dopts.surrogate.axis = sim::SurrogateAxis::kSnrDb;
  dopts.surrogate.rule = cfg.rule;
  dopts.surrogate.threads = cfg.threads;
  dopts.surrogate.store_dir = cfg.store_dir;
  dopts.surrogate.cache = cache.has_value() ? &*cache : nullptr;
  dopts.bin_width_db = cfg.snr_bin_db;
  dopts.use_store = cfg.use_store;
  dopts.cold_pass = cfg.cold_pass;

  std::vector<Vec2> pos(cfg.num_stations);
  for (std::size_t i = 0; i < cfg.num_stations; ++i)
    pos[i] = place_uniform(cfg.seed, i, cfg.area_half_m);

  DropSummary summary;
  std::vector<Geo> geo(cfg.num_stations);
  std::vector<double> shadowing(1 + cfg.interferers.size());
  std::vector<core::LinkConfig> configs(cfg.num_stations);
  for (std::uint32_t step = 0; step < cfg.num_steps; ++step) {
    if (step > 0) {
      for (std::size_t i = 0; i < cfg.num_stations; ++i) {
        pos[i] = walk_step(pos[i], cfg.seed, i, step, cfg.mobility.step_m,
                           cfg.area_half_m);
      }
    }
    const double step_t0 = elapsed();
    for (std::size_t i = 0; i < cfg.num_stations; ++i) {
      geo[i] = station_geometry(cfg, noise_floor_dbm,
                                static_cast<std::uint32_t>(i), step, pos[i],
                                shadowing);
      configs[i] = station_link_config(cfg, geo[i].snr_db,
                                       geo[i].adj_level_db, adj_offset);
    }

    StepSummary ss;
    ss.step = step;
    const std::vector<core::BerResult> results =
        core::sweep_ber_deduped(configs, dopts, &ss.dedup);
    ss.wall_seconds = elapsed() - step_t0;

    for (std::size_t i = 0; i < cfg.num_stations; ++i) {
      StationSample s;
      s.step = step;
      s.station = static_cast<std::uint32_t>(i);
      s.pos = geo[i].pos;
      s.dist_m = geo[i].dist_m;
      s.path_loss_db = geo[i].path_loss_db;
      s.shadowing_db = geo[i].shadowing_db;
      s.snr_db = geo[i].snr_db;
      s.snr_bin_db = geo[i].snr_bin_db;
      s.adj_level_db = geo[i].adj_level_db;
      s.result = results[i];
      s.goodput_mbps = phy::rate_params(cfg.link.rate).rate_mbps *
                       (1.0 - s.result.per());
      ss.mean_snr_db += s.snr_db;
      ss.mean_ber += s.result.ber();
      ss.mean_goodput_mbps += s.goodput_mbps;
      if (sink) sink(s);
    }
    if (cfg.num_stations > 0) {
      const double n = static_cast<double>(cfg.num_stations);
      ss.mean_snr_db /= n;
      ss.mean_ber /= n;
      ss.mean_goodput_mbps /= n;
    }
    summary.totals += ss.dedup;
    summary.steps.push_back(std::move(ss));
  }
  summary.wall_seconds = elapsed();
  return summary;
}

std::string drop_summary_table(const DropSummary& summary) {
  // The byte-exact table `wlansim drop` has always printed; the service
  // path ships these same bytes to `wlansim_client drop`, so any format
  // change here is a wire-visible change (pinned by tests/service/).
  std::string out;
  char line[160];
  out += "step  stations  distinct  warm  cold  mean_snr_db  mean_ber"
         "   goodput_mbps  wall_s\n";
  for (const StepSummary& st : summary.steps) {
    std::snprintf(line, sizeof(line),
                  "%4u  %8zu  %8zu  %4zu  %4zu  %11.2f  %.2e  %12.2f  %6.2f\n",
                  st.step, st.dedup.queries, st.dedup.distinct, st.dedup.warm,
                  st.dedup.cold, st.mean_snr_db, st.mean_ber,
                  st.mean_goodput_mbps, st.wall_seconds);
    out += line;
  }
  std::snprintf(line, sizeof(line),
                "total: %zu evaluations -> %zu distinct (%zu warm, %zu cold) "
                "in %.2f s\n",
                summary.totals.queries, summary.totals.distinct,
                summary.totals.warm, summary.totals.cold,
                summary.wall_seconds);
  out += line;
  return out;
}

DropSummary run_drop_collect(const DropConfig& cfg,
                             std::vector<StationSample>& samples) {
  samples.clear();
  samples.reserve(cfg.num_stations * cfg.num_steps);
  return run_drop(cfg, [&samples](const StationSample& s) {
    samples.push_back(s);
  });
}

}  // namespace wlansim::scenario
