// The drop engine (scenario/drop.h) and trace writer (scenario/trace.h):
// thread-count determinism of full traces, the dedup-vs-direct bit-identity
// contract, cross-step store warmth, and trace formatting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <sstream>

#include "core/experiments.h"
#include "core/parallel.h"
#include "scenario/drop.h"
#include "scenario/trace.h"

namespace wlansim::scenario {
namespace {

namespace fs = std::filesystem;

fs::path test_store(const char* name) {
  fs::path dir = fs::path(::testing::TempDir()) / "wlansim-droptest" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// A small, fast drop: 12 stations x 2 steps over ~6 coarse SNR bins.
DropConfig small_drop() {
  DropConfig cfg;
  cfg.num_stations = 12;
  cfg.num_steps = 2;
  cfg.area_half_m = 40.0;
  cfg.seed = 5;
  cfg.link = core::default_link_config();
  cfg.link.psdu_bytes = 40;
  cfg.snr_bin_db = 2.0;
  cfg.snr_min_db = 2.0;
  cfg.snr_max_db = 12.0;
  cfg.rule.target_rel_ci = 0.5;
  cfg.rule.min_errors = 10;
  cfg.rule.min_packets = 8;
  cfg.rule.max_packets = 16;
  cfg.use_store = false;
  return cfg;
}

std::string csv_trace(const DropConfig& cfg) {
  std::ostringstream os;
  TraceWriter writer(os, TraceFormat::kCsv, "t");
  run_drop(cfg, writer.sink());
  return os.str();
}

TEST(Drop, TracesByteIdenticalAcrossThreadCounts) {
  DropConfig cfg = small_drop();
  cfg.threads = 1;
  const std::string t1 = csv_trace(cfg);
  cfg.threads = 2;
  const std::string t2 = csv_trace(cfg);
  cfg.threads = 8;
  const std::string t8 = csv_trace(cfg);
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(t1, t8);
  EXPECT_FALSE(t1.empty());
}

TEST(Drop, StoreBackedTracesByteIdenticalAcrossThreadCounts) {
  // Same contract with the calibration store in the loop: each thread
  // count gets a FRESH store, so cold-path measurement + backfill + warm
  // serving all participate in the comparison.
  DropConfig cfg = small_drop();
  cfg.use_store = true;
  cfg.threads = 1;
  cfg.store_dir = test_store("threads1");
  const std::string t1 = csv_trace(cfg);
  cfg.threads = 2;
  cfg.store_dir = test_store("threads2");
  const std::string t2 = csv_trace(cfg);
  cfg.threads = 8;
  cfg.store_dir = test_store("threads8");
  const std::string t8 = csv_trace(cfg);
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(t1, t8);
}

TEST(Drop, ColdSamplesBitIdenticalToDirectAdaptive) {
  const DropConfig cfg = small_drop();
  std::vector<StationSample> samples;
  run_drop_collect(cfg, samples);
  ASSERT_EQ(samples.size(), cfg.num_stations * cfg.num_steps);

  std::size_t checked = 0;
  for (const auto& s : samples) {
    if (s.result.from_surrogate || checked >= 4) continue;
    const core::BerResult direct = core::run_ber_adaptive(
        sample_link_config(cfg, s), cfg.rule, cfg.threads);
    EXPECT_EQ(direct.packets, s.result.packets);
    EXPECT_EQ(direct.packet_errors, s.result.packet_errors);
    EXPECT_EQ(direct.bits, s.result.bits);
    EXPECT_EQ(direct.bit_errors, s.result.bit_errors);
    EXPECT_EQ(direct.evm_rms_avg, s.result.evm_rms_avg);
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

TEST(Drop, SecondRunIsFullyWarm) {
  DropConfig cfg = small_drop();
  cfg.use_store = true;
  cfg.store_dir = test_store("warmth");
  const DropSummary cold = run_drop(cfg, {});
  EXPECT_GT(cold.totals.cold, 0u);

  std::vector<StationSample> samples;
  const DropSummary warm = run_drop_collect(cfg, samples);
  EXPECT_EQ(warm.totals.cold, 0u);
  EXPECT_EQ(warm.totals.warm, warm.totals.distinct);
  for (const auto& s : samples) {
    EXPECT_TRUE(s.result.from_surrogate);
    EXPECT_EQ(s.result.packets, 0u);
  }
}

TEST(Drop, StaticStationsWarmSecondStepFromFirst) {
  // With mobility off, step 1 repeats step 0's bins: everything after the
  // first step is served from the store the first step backfilled.
  DropConfig cfg = small_drop();
  cfg.use_store = true;
  cfg.store_dir = test_store("staticwarm");
  cfg.mobility.step_m = 0.0;
  cfg.path_loss.shadowing_sigma_db = 0.0;  // shadowing redraws per step
  const DropSummary s = run_drop(cfg, {});
  ASSERT_EQ(s.steps.size(), 2u);
  EXPECT_GT(s.steps[0].dedup.cold, 0u);
  EXPECT_EQ(s.steps[1].dedup.cold, 0u);
  EXPECT_EQ(s.steps[1].dedup.warm, s.steps[1].dedup.distinct);
}

TEST(Drop, DedupCollapsesStations) {
  const DropConfig cfg = small_drop();
  const DropSummary s = run_drop(cfg, {});
  EXPECT_EQ(s.totals.queries, cfg.num_stations * cfg.num_steps);
  EXPECT_LT(s.totals.distinct, s.totals.queries);
  EXPECT_EQ(s.totals.warm + s.totals.cold, s.totals.distinct);
}

TEST(Drop, CochannelInterferenceLowersSinr) {
  DropConfig cfg = small_drop();
  cfg.path_loss.shadowing_sigma_db = 0.0;
  cfg.num_steps = 1;
  cfg.snr_min_db = -20.0;
  cfg.snr_max_db = 40.0;
  cfg.rule.max_packets = 8;
  std::vector<StationSample> clean;
  run_drop_collect(cfg, clean);

  cfg.interferers.push_back({{10.0, 10.0}, 16.0, 0.0});
  std::vector<StationSample> jammed;
  run_drop_collect(cfg, jammed);
  ASSERT_EQ(clean.size(), jammed.size());
  for (std::size_t i = 0; i < clean.size(); ++i) {
    EXPECT_LT(jammed[i].snr_db, clean[i].snr_db);
    EXPECT_FALSE(jammed[i].adj_level_db.has_value());
  }
}

TEST(Drop, AdjacentBssMapsToQuantizedInterfererLevel) {
  DropConfig cfg = small_drop();
  cfg.path_loss.shadowing_sigma_db = 0.0;
  cfg.num_steps = 1;
  cfg.num_stations = 4;
  cfg.adj_floor_db = -60.0;
  cfg.interferers.push_back({{0.0, 0.0}, 16.0, 20e6});
  std::vector<StationSample> samples;
  run_drop_collect(cfg, samples);
  std::size_t audible = 0;
  for (const auto& s : samples) {
    if (!s.adj_level_db.has_value()) continue;
    ++audible;
    // Quantized onto the adj_bin_db grid.
    const double q = core::quantize_axis(*s.adj_level_db, cfg.adj_bin_db);
    EXPECT_EQ(q, *s.adj_level_db);
    const core::LinkConfig link = sample_link_config(cfg, s);
    ASSERT_TRUE(link.interferer.has_value());
    EXPECT_EQ(link.interferer->level_db, *s.adj_level_db);
    EXPECT_EQ(link.interferer->offset_hz, 20e6);
  }
  EXPECT_GT(audible, 0u);
}

TEST(Drop, RejectsMixedAdjacentOffsets) {
  DropConfig cfg = small_drop();
  cfg.interferers.push_back({{0.0, 0.0}, 16.0, 20e6});
  cfg.interferers.push_back({{5.0, 5.0}, 16.0, -20e6});
  EXPECT_THROW(run_drop(cfg, {}), std::invalid_argument);
}

TEST(Trace, CsvShapeAndMissingAdjacentField) {
  const DropConfig cfg = small_drop();
  const std::string trace = csv_trace(cfg);
  std::istringstream is(trace);
  std::string line;
  ASSERT_TRUE(std::getline(is, line));
  EXPECT_EQ(line, trace_csv_header());
  const std::size_t fields =
      static_cast<std::size_t>(std::count(line.begin(), line.end(), ',')) + 1;
  std::size_t rows = 0;
  while (std::getline(is, line)) {
    ++rows;
    EXPECT_EQ(static_cast<std::size_t>(
                  std::count(line.begin(), line.end(), ',')) + 1,
              fields);
    EXPECT_EQ(line.rfind("t,", 0), 0u) << line;
  }
  EXPECT_EQ(rows, cfg.num_stations * cfg.num_steps);
}

TEST(Trace, JsonlRowsAreWellFormedObjects) {
  StationSample s;
  s.step = 1;
  s.station = 3;
  s.pos = {1.5, -2.5};
  s.snr_db = 7.25;
  s.snr_bin_db = 7.0;
  const std::string row = trace_jsonl_row("run \"x\"", s);
  EXPECT_EQ(row.front(), '{');
  EXPECT_EQ(row.back(), '}');
  EXPECT_NE(row.find("\"run_tag\":\"run \\\"x\\\"\""), std::string::npos);
  EXPECT_NE(row.find("\"snr_db\":7.25"), std::string::npos);
  EXPECT_NE(row.find("\"source\":\"mc\""), std::string::npos);
  // No adjacent interferer: the key is omitted entirely.
  EXPECT_EQ(row.find("adj_level_db"), std::string::npos);

  s.adj_level_db = -4.0;
  s.result.from_surrogate = true;
  const std::string row2 = trace_jsonl_row("t", s);
  EXPECT_NE(row2.find("\"adj_level_db\":-4"), std::string::npos);
  EXPECT_NE(row2.find("\"source\":\"surrogate\""), std::string::npos);
}

/// Rows whose numbers exercise every shape the formatter prints: 17
/// significant digits, exponents, -0, integral values and a missing
/// adjacent level.
StationSample golden_sample() {
  StationSample s;
  s.step = 3;
  s.station = 17;
  s.pos = {12.345678901234567, -40.0 / 3.0};
  s.dist_m = 18.1732;
  s.path_loss_db = 71.25;
  s.shadowing_db = -0.0;
  s.snr_db = 0.1 + 0.2;
  s.snr_bin_db = 18.0;
  s.adj_level_db = -6.0;
  s.result.model_ber = 1.2345e-05;
  s.result.model_per = 0.1;
  s.result.evm_rms_avg = 0.1 * 0.3;
  s.result.from_surrogate = true;
  s.goodput_mbps = 100000.0;
  return s;
}

StationSample golden_mc_sample() {
  StationSample s = golden_sample();
  s.adj_level_db.reset();
  s.result = core::BerResult{};
  s.result.packets = 48;
  s.result.bits = 48 * 480;
  s.result.bit_errors = 37;
  s.result.packet_errors = 5;
  s.result.evm_rms_avg = std::sqrt(2.0) / 33.0;
  s.goodput_mbps = 24.0 * (1.0 - 5.0 / 48.0);
  return s;
}

// Golden rows, byte for byte: a drift in any number's text fails here,
// where the round-trip and substring checks above would not notice.
constexpr const char* kGoldenJsonl =
    "{\"run_tag\":\"run-\\\"7\\\"\",\"step\":3,\"station\":17,"
    "\"x_m\":12.345678901234567,\"y_m\":-13.333333333333334,"
    "\"dist_m\":18.1732,\"path_loss_db\":71.25,\"shadowing_db\":-0,"
    "\"snr_db\":0.30000000000000004,\"snr_bin_db\":18,\"adj_level_db\":-6,"
    "\"ber\":1.2345e-05,\"per\":0.1,\"evm\":0.03,\"goodput_mbps\":1e+05,"
    "\"packets\":0,\"source\":\"surrogate\"}";
constexpr const char* kGoldenCsv =
    "ci,3,17,12.345678901234567,-13.333333333333334,18.1732,71.25,-0,"
    "0.30000000000000004,18,,0.0016059027777777777,0.10416666666666667,"
    "0.04285495643554834,21.5,48,mc";

TEST(Trace, GoldenRowsAreByteStable) {
  EXPECT_EQ(trace_jsonl_row("run-\"7\"", golden_sample()), kGoldenJsonl);
  EXPECT_EQ(trace_csv_row("ci", golden_mc_sample()), kGoldenCsv);
}

TEST(Trace, WriterStreamsTheRowsItFormats) {
  // The writer reuses one row buffer; consecutive rows must not bleed.
  std::ostringstream jsonl;
  TraceWriter jw(jsonl, TraceFormat::kJsonl, "run-\"7\"");
  jw.write(golden_sample());
  jw.write(golden_mc_sample());
  EXPECT_EQ(jsonl.str(),
            std::string(kGoldenJsonl) + "\n" +
                trace_jsonl_row("run-\"7\"", golden_mc_sample()) + "\n");

  std::ostringstream csv;
  TraceWriter cw(csv, TraceFormat::kCsv, "ci");
  cw.write(golden_mc_sample());
  cw.write(golden_mc_sample());
  EXPECT_EQ(csv.str(), trace_csv_header() + "\n" + kGoldenCsv + "\n" +
                           kGoldenCsv + "\n");
}

}  // namespace
}  // namespace wlansim::scenario
