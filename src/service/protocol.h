// Wire protocol of the wlansim service: newline-delimited JSON request/
// response pairs over a Unix-domain stream socket (service/server.h).
//
// Requests ("op" selects the handler):
//   {"op":"ping"}
//   {"op":"stats"}
//   {"op":"shutdown"}
//   {"op":"sweep","param":"snr","from":5,"to":25,"step":2,
//    "link":{...},"rule":{...},"bin_width_db":0,"use_store":true}
//   {"op":"eval","links":[{...},...],"param":"snr","rule":{...},
//    "bin_width_db":0.5,"use_store":true}
// Responses always carry "ok"; failures add "error" (and "resumable":true
// when the job was preempted by a daemon shutdown and a checkpoint holds
// its progress). A request line may be at most kMaxRequestBytes
// (service/server.h) long.
//
// Determinism across the wire: every double serializes as the shortest
// decimal that round-trips to the identical bit pattern and every counter
// as an exact integer (service/json.h), so a client reconstructing
// BerResults gets byte-identical statistics to an in-process caller. The
// non-finite CI sentinel (+inf before the first bit error) travels as the
// string "inf" because JSON has no infinity token.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/surrogate.h"
#include "scenario/drop.h"
#include "service/json.h"

namespace wlansim::service {

// --- LinkConfig <-> JSON ----------------------------------------------------
// Serializes the CLI-exposed configuration surface (the same fields
// `wlansim sweep` accepts): rate_mbps, psdu_bytes, rx_power_dbm, snr_db
// (absent = no excess noise), rf_engine, lna_p1db_in_dbm,
// bb_bandwidth_factor, sco_ppm, the optional adjacent-channel interferer,
// and the seed. Unlisted LinkConfig fields keep core::default_link_config()
// values on both sides, so client and daemon agree on the full config;
// link_to_json throws std::invalid_argument for a link that sets one of
// them away from that default (or a custom RF block), which the daemon
// would otherwise answer for as another link.
Json link_to_json(const core::LinkConfig& cfg);
/// Throws on malformed input and, through core::validate, on a link no
/// packet can run.
core::LinkConfig link_from_json(const Json& j);

// --- StoppingRule <-> JSON --------------------------------------------------
Json rule_to_json(const sim::StoppingRule& rule);
sim::StoppingRule rule_from_json(const Json& j);

// --- BerResult <-> JSON -----------------------------------------------------
// Full-field round trip (counters exact, doubles bit-exact, "inf"/"nan"
// spelled as strings); wall_seconds rides along untouched — it is the one
// deliberately non-deterministic field.
Json result_to_json(const core::BerResult& r);
core::BerResult result_from_json(const Json& j);

/// The sweep value expansion `wlansim sweep` uses — shared here so client,
/// daemon, and CLI produce bit-identical axis columns for the same
/// (from, to, step).
std::vector<double> sweep_values(double from, double to, double step);

/// Map a sweep parameter name to the surrogate axis ("snr" or "power";
/// other CLI sweep parameters change the front-end, i.e. the calibration
/// key, and are not serviceable). Throws std::invalid_argument otherwise.
sim::SurrogateAxis axis_from_param(const std::string& param);

// --- Job requests -----------------------------------------------------------

/// "sweep": one base link swept along `param` over [from, to] in `step`s.
struct SweepRequest {
  std::string param = "snr";
  double from = 5.0;
  double to = 25.0;
  double step = 2.0;
  core::LinkConfig base;
  sim::StoppingRule rule;
  /// Axis dedup bin width [dB]; 0 = exact values (bit-parity with
  /// `wlansim sweep --surrogate`).
  double bin_width_db = 0.0;
  bool use_store = true;

  std::vector<double> values() const { return sweep_values(from, to, step); }
  std::vector<core::LinkConfig> expand() const;

  Json to_json() const;
  static SweepRequest from_json(const Json& j);
};

/// "eval": an explicit list of links (the drop-shaped job — stations whose
/// geometry the client already reduced to per-link SNRs), deduplicated and
/// evaluated under one rule.
struct EvalRequest {
  std::string param = "snr";  ///< dedup axis
  std::vector<core::LinkConfig> links;
  sim::StoppingRule rule;
  double bin_width_db = 0.5;
  bool use_store = true;

  Json to_json() const;
  static EvalRequest from_json(const Json& j);
};

/// "drop": a full network-scale drop (scenario::run_drop) executed inside
/// the daemon, so its pooled cold passes ride the same checkpointed
/// executor as sweep jobs and its backfill lands in the daemon's store. Serializes the CLI-exposed DropConfig surface; `threads` and
/// `store_dir` stay daemon-owned (they are resources of the serving
/// process, not of the question being asked).
struct DropRequest {
  scenario::DropConfig cfg;

  Json to_json() const;
  static DropRequest from_json(const Json& j);
};

// --- Responses --------------------------------------------------------------

Json error_response(const std::string& message, bool resumable = false);

Json results_response(const std::vector<double>& values,
                      const std::vector<core::BerResult>& results,
                      const core::DedupStats& stats);

/// Parsed client-side view of a results_response.
struct ResultsReply {
  std::vector<double> values;
  std::vector<core::BerResult> results;
  core::DedupStats stats;
};
/// Throws std::runtime_error carrying the server's "error" text when the
/// response is ok:false.
ResultsReply results_reply_from_json(const Json& j);

/// Drop response: the full per-step summary, doubles bit-exact, so the
/// client renders scenario::drop_summary_table byte-identically to the
/// local CLI (wall_seconds excepted in spirit — it rides along verbatim
/// and simply measures the daemon's clock, not the client's).
Json drop_response(const scenario::DropSummary& summary);
/// Throws std::runtime_error carrying the server's "error" text on
/// ok:false.
scenario::DropSummary drop_summary_from_json(const Json& j);

}  // namespace wlansim::service
