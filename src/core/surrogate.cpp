#include "core/surrogate.h"

#include <cmath>
#include <cstdlib>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/fingerprint.h"

namespace wlansim::core {

namespace {

double axis_value(const LinkConfig& c, sim::SurrogateAxis axis) {
  switch (axis) {
    case sim::SurrogateAxis::kSnrDb:
      return c.snr_db.value();  // fingerprintability guarantees has_value
    case sim::SurrogateAxis::kRxPowerDbm:
      return c.rx_power_dbm;
  }
  return 0.0;
}

void set_axis_value(LinkConfig& c, sim::SurrogateAxis axis, double x) {
  switch (axis) {
    case sim::SurrogateAxis::kSnrDb:
      c.snr_db = x;
      break;
    case sim::SurrogateAxis::kRxPowerDbm:
      c.rx_power_dbm = x;
      break;
  }
}

/// A stored curve answers for a rule only when it was calibrated under
/// exactly that rule — a looser calibration would report CIs the caller
/// did not ask for, and a tighter one would break the cold-path
/// bit-identity contract on backfill. Mismatch reads as a full miss.
bool rule_matches(const sim::CalibrationCurve& curve,
                  const sim::StoppingRule& rule) {
  return curve.target_rel_ci == rule.target_rel_ci &&
         curve.confidence_z == rule.confidence_z &&
         curve.min_errors == rule.min_errors &&
         curve.min_packets == rule.min_packets &&
         curve.max_packets == rule.max_packets;
}

sim::CalibrationCurve fresh_curve(std::string fingerprint,
                                  const SurrogateOptions& opts) {
  sim::CalibrationCurve curve;
  curve.axis = opts.axis;
  curve.fingerprint = std::move(fingerprint);
  curve.target_rel_ci = opts.rule.target_rel_ci;
  curve.confidence_z = opts.rule.confidence_z;
  curve.min_errors = opts.rule.min_errors;
  curve.min_packets = opts.rule.min_packets;
  curve.max_packets = opts.rule.max_packets;
  return curve;
}

sim::CalibrationPoint point_from_result(double x, const BerResult& r) {
  sim::CalibrationPoint p;
  p.x = x;
  p.ber = r.ber();
  p.ber_ci_rel = r.ber_ci_rel;
  p.per = r.per();
  p.evm = r.evm_rms_avg;
  p.bits = r.bits;
  p.bit_errors = r.bit_errors;
  p.packets = r.packets;
  p.converged = r.converged;
  return p;
}

BerResult result_from_query(const sim::SurrogateQuery& q,
                            const sim::CalibrationCurve& curve) {
  BerResult r;
  r.model_ber = q.ber;
  r.model_per = q.per;
  r.from_surrogate = true;
  r.evm_rms_avg = q.evm;
  r.ber_ci_rel = q.ber_ci_rel;
  r.converged = std::isfinite(q.ber_ci_rel) &&
                q.ber_ci_rel <= curve.target_rel_ci;
  return r;
}

/// The store view for one call: the caller's persistent cache when given,
/// else a fresh per-call view (so store-file deletions between calls are
/// observed — see SurrogateOptions::cache).
sim::BerSurrogate make_local_view(const SurrogateOptions& opts) {
  std::filesystem::path dir =
      opts.store_dir.empty() ? default_calibration_dir() : opts.store_dir;
  return sim::BerSurrogate(sim::CalibrationStore(std::move(dir)));
}

}  // namespace

std::filesystem::path default_calibration_dir() {
  if (const char* dir = std::getenv("WLANSIM_CALIB_DIR"); dir && *dir) {
    return dir;
  }
  if (const char* xdg = std::getenv("XDG_CACHE_HOME"); xdg && *xdg) {
    return std::filesystem::path(xdg) / "wlansim" / "calib";
  }
  if (const char* home = std::getenv("HOME"); home && *home) {
    return std::filesystem::path(home) / ".cache" / "wlansim" / "calib";
  }
  return std::filesystem::path(".wlansim-calib");
}

// ---------------------------------------------------------------------------
// Deduplicated, pooled link evaluation
// ---------------------------------------------------------------------------

double quantize_axis(double x, double bin_width) {
  if (!(bin_width > 0.0)) return x;
  return std::round(x / bin_width) * bin_width;
}

std::vector<BerResult> sweep_ber_deduped(std::span<const LinkConfig> configs,
                                         const DedupOptions& opts,
                                         DedupStats* stats) {
  const SurrogateOptions& sopts = opts.surrogate;
  DedupStats st;
  st.queries = configs.size();
  std::vector<BerResult> out(configs.size());
  if (configs.empty()) {
    if (stats) *stats = st;
    return out;
  }

  // Distinct (fingerprint, quantized-axis) work list, first-appearance
  // order. The axis is snapped onto the bin grid BEFORE evaluation: the
  // representative config carries the binned value, so a key's result is
  // exactly what a direct measurement of that config would produce.
  // Quantized values of one bin are computed by the same expression from
  // the same bin index, so exact double equality in the key is sound.
  struct Entry {
    LinkConfig rep;
    std::string fp;
    double x = 0.0;
    BerResult result;
    bool warm = false;
  };
  std::vector<Entry> entries;
  std::map<std::pair<std::string, double>, std::size_t> index;
  std::vector<std::size_t> slot_of(configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    std::string fp = surrogate_fingerprint(configs[i], sopts.axis);
    if (fp.empty()) {
      throw std::invalid_argument(
          "sweep_ber_deduped: config " + std::to_string(i) +
          " not fingerprintable (custom_rf, or axis snr_db with snr_db "
          "unset)");
    }
    const double x = axis_value(configs[i], sopts.axis);
    if (!std::isfinite(x)) {
      throw std::invalid_argument("sweep_ber_deduped: config " +
                                  std::to_string(i) +
                                  " has a non-finite axis value");
    }
    const double qx = quantize_axis(x, opts.bin_width_db);
    const auto [it, inserted] =
        index.try_emplace({std::move(fp), qx}, entries.size());
    if (inserted) {
      Entry e;
      e.rep = configs[i];
      set_axis_value(e.rep, sopts.axis, qx);
      e.fp = it->first.first;
      e.x = qx;
      entries.push_back(std::move(e));
    }
    slot_of[i] = it->second;
  }
  st.distinct = entries.size();

  sim::BerSurrogate local = make_local_view(sopts);
  sim::BerSurrogate& view = sopts.cache ? *sopts.cache : local;

  // Warm pass: a key whose fingerprint has a stored, rule-matched curve
  // covering its bin is answered from the curve. Backfilled knots sit at
  // exactly the bin values, so a warm key on a knot replays the MC result
  // that filled it exactly; an unquantized key between knots
  // (bin_width_db = 0) is interpolated.
  if (opts.use_store) {
    for (Entry& e : entries) {
      const sim::CalibrationCurve* curve = view.lookup(e.fp);
      if (curve && rule_matches(*curve, sopts.rule) && curve->covers(e.x)) {
        e.result = result_from_query(curve->query(e.x), *curve);
        e.warm = true;
      }
    }
  }

  // Pooled cold pass: ONE adaptive sweep over every cold key across all
  // fingerprint groups, so the wave scheduler steals work across the whole
  // miss list and TX-scene memoization applies whenever the groups share a
  // TX fingerprint. Each point is a pure function of (config, rule) — see
  // core/parallel.h — so pooling changes nothing about any single result,
  // and a cold_pass hook may checkpoint and resume the pass without
  // changing a bit. The hook sees the keys in first-appearance order (the
  // order `cold` preserves), which is the order checkpoint keys are
  // defined against.
  std::vector<std::size_t> cold;
  for (std::size_t k = 0; k < entries.size(); ++k)
    if (!entries[k].warm) cold.push_back(k);
  if (!cold.empty()) {
    std::vector<LinkConfig> cfgs;
    cfgs.reserve(cold.size());
    for (const std::size_t k : cold) cfgs.push_back(entries[k].rep);
    SweepOptions sweep_opts;
    sweep_opts.threads = sopts.threads;
    const std::vector<BerResult> mc =
        opts.cold_pass ? opts.cold_pass(cfgs, sopts.rule, sweep_opts)
                       : sweep_ber_adaptive(cfgs, sopts.rule, sweep_opts);
    if (mc.size() != cold.size())
      throw std::logic_error(
          "sweep_ber_deduped: cold_pass hook returned " +
          std::to_string(mc.size()) + " results for " +
          std::to_string(cold.size()) + " configs");
    for (std::size_t j = 0; j < cold.size(); ++j)
      entries[cold[j]].result = mc[j];

    if (opts.use_store) {
      // Backfill one curve per fingerprint group so the next mobility step
      // (and the next process) hits warm.
      std::map<std::string, std::vector<std::size_t>, std::less<>> by_fp;
      for (const std::size_t k : cold) by_fp[entries[k].fp].push_back(k);
      for (const auto& [fp, ks] : by_fp) {
        const sim::CalibrationCurve* stored = view.lookup(fp);
        sim::CalibrationCurve curve = stored && rule_matches(*stored, sopts.rule)
                                          ? *stored
                                          : fresh_curve(fp, sopts);
        for (const std::size_t k : ks) {
          curve.merge_point(
              point_from_result(entries[k].x, entries[k].result));
        }
        view.put(curve);  // save failure tolerated: the store is a cache
      }
    }
  }

  for (std::size_t i = 0; i < configs.size(); ++i)
    out[i] = entries[slot_of[i]].result;
  st.cold = cold.size();
  st.warm = st.distinct - st.cold;
  if (stats) *stats = st;
  return out;
}

}  // namespace wlansim::core
