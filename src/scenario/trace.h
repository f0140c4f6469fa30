// Streaming per-station trace output for drop runs: CSV and JSON-lines,
// one row per StationSample, tagged with a run identifier so concatenated
// traces from different runs stay distinguishable.
//
// Byte-stability contract: rows hold deterministic sample fields only
// (wall-clock never appears), and every double prints through
// core::append_shortest — printf's `%.{p}g` at the smallest round-tripping
// p, a pure function of the value's bits — so two drops with the same
// (config, seed) produce byte-identical trace files regardless of thread
// count. Pinned by tests/scenario/test_drop.cpp, which also holds golden
// rows byte for byte.
#pragma once

#include <ostream>
#include <string>

#include "scenario/drop.h"

namespace wlansim::scenario {

enum class TraceFormat {
  kCsv,    ///< header row + one comma-separated row per sample
  kJsonl,  ///< one JSON object per line, no enclosing array
};

/// The CSV header row (no trailing newline).
std::string trace_csv_header();

/// One sample as a CSV row / JSON-lines object (no trailing newline).
/// adj_level_db renders as an empty CSV field — and is omitted from the
/// JSON object — when the station hears no adjacent interferer.
std::string trace_csv_row(const std::string& run_tag, const StationSample& s);
std::string trace_jsonl_row(const std::string& run_tag, const StationSample& s);

/// Streams samples to `out` as they arrive (kCsv writes the header up
/// front). Usable directly as the run_drop sink via `writer.sink()`.
class TraceWriter {
 public:
  TraceWriter(std::ostream& out, TraceFormat format, std::string run_tag);

  void write(const StationSample& s);
  SampleSink sink();

 private:
  std::ostream& out_;
  TraceFormat format_;
  std::string run_tag_;
  std::string line_;  ///< row buffer, reused across write() calls
};

}  // namespace wlansim::scenario
