// Checkpoint/resume of pooled cold passes: a preempted-then-resumed sweep
// must complete bit-identically to an uninterrupted one (any thread
// count), corrupt or truncated checkpoints must fall back to a clean cold
// start, and resume must work from a checkpoint written by another
// process.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiments.h"
#include "core/parallel.h"
#include "service/checkpoint.h"

namespace wlansim::service {
namespace {

namespace fs = std::filesystem;

fs::path test_dir(const char* name) {
  fs::path dir = fs::path(::testing::TempDir()) / "wlansim-ckpttest" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::vector<core::LinkConfig> test_configs() {
  // 6 and 8 dB converge within the first wave; 14 dB is too clean to reach
  // the error floor and runs to the packet cap — so the sweep always spans
  // multiple waves and every interruption below lands mid-flight.
  std::vector<core::LinkConfig> configs;
  for (const double snr : {6.0, 8.0, 14.0}) {
    core::LinkConfig cfg = core::default_link_config();
    cfg.psdu_bytes = 60;
    cfg.snr_db = snr;
    configs.push_back(cfg);
  }
  return configs;
}

sim::StoppingRule test_rule() {
  sim::StoppingRule rule;
  rule.target_rel_ci = 0.30;
  rule.min_errors = 30;
  rule.min_packets = 8;
  rule.max_packets = 48;
  return rule;
}

void expect_identical(const core::BerResult& a, const core::BerResult& b) {
  EXPECT_EQ(a.packets, b.packets);
  EXPECT_EQ(a.packets_lost, b.packets_lost);
  EXPECT_EQ(a.packet_errors, b.packet_errors);
  EXPECT_EQ(a.bits, b.bits);
  EXPECT_EQ(a.bit_errors, b.bit_errors);
  EXPECT_EQ(a.evm_rms_avg, b.evm_rms_avg);
  EXPECT_EQ(a.ber_ci_rel, b.ber_ci_rel);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.ber(), b.ber());
  EXPECT_EQ(a.per(), b.per());
}

std::string read_file(const fs::path& p) {
  std::ifstream is(p, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

/// Drive run_cold_pass_checkpointed to completion, preempting it
/// `interruptions` times first (a pre-set stop flag preempts at the first
/// wave boundary of each attempt, saving the checkpoint — each attempt
/// advances at least one wave).
std::vector<core::BerResult> run_with_interruptions(
    const fs::path& dir, const std::vector<core::LinkConfig>& configs,
    const sim::StoppingRule& rule, const core::SweepOptions& opts,
    int interruptions) {
  for (int i = 0; i < interruptions; ++i) {
    std::atomic<bool> stop{true};
    EXPECT_THROW(
        run_cold_pass_checkpointed(dir, configs, rule, opts, &stop),
        PreemptedError);
    EXPECT_TRUE(fs::exists(
        checkpoint_path(dir, cold_pass_key(configs, rule))));
  }
  return run_cold_pass_checkpointed(dir, configs, rule, opts);
}

class CheckpointResume : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CheckpointResume, BitExactAcrossInterruptions) {
  const std::size_t threads = GetParam();
  const auto configs = test_configs();
  const auto rule = test_rule();
  core::SweepOptions opts;
  opts.threads = threads;

  const std::vector<core::BerResult> direct =
      core::sweep_ber_adaptive(configs, rule, opts);

  const fs::path dir = test_dir(
      ("resume-t" + std::to_string(threads)).c_str());
  const std::vector<core::BerResult> resumed =
      run_with_interruptions(dir, configs, rule, opts, 2);

  ASSERT_EQ(resumed.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i)
    expect_identical(resumed[i], direct[i]);
  // Completion removes the checkpoint.
  EXPECT_FALSE(
      fs::exists(checkpoint_path(dir, cold_pass_key(configs, rule))));
}

INSTANTIATE_TEST_SUITE_P(Threads, CheckpointResume,
                         ::testing::Values(std::size_t{1}, std::size_t{2},
                                           std::size_t{8}));

TEST(Checkpoint, TruncatedFileColdStartsCleanly) {
  const auto configs = test_configs();
  const auto rule = test_rule();
  core::SweepOptions opts;
  opts.threads = 2;
  const fs::path dir = test_dir("truncated");
  const std::string key = cold_pass_key(configs, rule);

  // Produce a real checkpoint, then truncate it mid-file.
  std::atomic<bool> stop{true};
  EXPECT_THROW(run_cold_pass_checkpointed(dir, configs, rule, opts, &stop),
               PreemptedError);
  const fs::path path = checkpoint_path(dir, key);
  const std::string full = read_file(path);
  ASSERT_GT(full.size(), 20u);
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << full.substr(0, full.size() / 2);
  }
  EXPECT_FALSE(load_checkpoint(dir, key, configs.size()).has_value());

  const std::vector<core::BerResult> after =
      run_cold_pass_checkpointed(dir, configs, rule, opts);
  const std::vector<core::BerResult> direct =
      core::sweep_ber_adaptive(configs, rule, opts);
  ASSERT_EQ(after.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i)
    expect_identical(after[i], direct[i]);
}

TEST(Checkpoint, CorruptFileColdStartsCleanly) {
  const auto configs = test_configs();
  const auto rule = test_rule();
  core::SweepOptions opts;
  opts.threads = 2;
  const fs::path dir = test_dir("corrupt");
  const std::string key = cold_pass_key(configs, rule);

  // Garbage, and a hostile point count behind a header that passes the key
  // check: the loader must stop at the first missing point line instead
  // of sizing a buffer from the count.
  const std::string real = serialize_checkpoint(
      key, std::vector<core::SweepPointProgress>(configs.size()));
  const std::size_t at = real.find("\npoints ") + 1;
  ASSERT_NE(at, 0u);
  const std::string points = real.substr(real.find('\n', at) + 1);
  const std::vector<std::string> corrupt{
      "not a checkpoint at all\xff\x00 garbage\n",
      real.substr(0, at) + "points 4294967296\n" + points,
      real.substr(0, at) + "points 18446744073709551615\n" + points};

  const std::vector<core::BerResult> direct =
      core::sweep_ber_adaptive(configs, rule, opts);
  for (std::size_t c = 0; c < corrupt.size(); ++c) {
    SCOPED_TRACE("corruption " + std::to_string(c));
    {
      std::ofstream os(checkpoint_path(dir, key),
                       std::ios::binary | std::ios::trunc);
      os << corrupt[c];
    }
    EXPECT_FALSE(load_checkpoint(dir, key, configs.size()).has_value());

    const std::vector<core::BerResult> after =
        run_cold_pass_checkpointed(dir, configs, rule, opts);
    ASSERT_EQ(after.size(), direct.size());
    for (std::size_t i = 0; i < direct.size(); ++i)
      expect_identical(after[i], direct[i]);
  }
}

TEST(Checkpoint, ResumesFromAnotherProcessesCheckpoint) {
  const auto configs = test_configs();
  const auto rule = test_rule();
  core::SweepOptions opts;
  opts.threads = 2;
  const fs::path dir = test_dir("crosspid");
  const std::string key = cold_pass_key(configs, rule);

  std::atomic<bool> stop{true};
  EXPECT_THROW(run_cold_pass_checkpointed(dir, configs, rule, opts, &stop),
               PreemptedError);

  // Simulate a checkpoint written by a different process: rewrite the
  // recorded pid line. Resume must not care who wrote the file.
  const fs::path path = checkpoint_path(dir, key);
  std::string text = read_file(path);
  const std::size_t pid_at = text.find("pid ");
  ASSERT_NE(pid_at, std::string::npos);
  const std::size_t pid_end = text.find('\n', pid_at);
  ASSERT_NE(pid_end, std::string::npos);
  text.replace(pid_at, pid_end - pid_at, "pid 999999");
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << text;
  }
  long writer_pid = 0;
  const auto loaded = load_checkpoint(dir, key, configs.size(), &writer_pid);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(writer_pid, 999999);

  const std::vector<core::BerResult> resumed =
      run_cold_pass_checkpointed(dir, configs, rule, opts);
  const std::vector<core::BerResult> direct =
      core::sweep_ber_adaptive(configs, rule, opts);
  for (std::size_t i = 0; i < direct.size(); ++i)
    expect_identical(resumed[i], direct[i]);
}

TEST(Checkpoint, KeyBindsRuleAndConfigs) {
  const auto configs = test_configs();
  const auto rule = test_rule();
  const std::string key = cold_pass_key(configs, rule);

  sim::StoppingRule other_rule = rule;
  other_rule.max_packets += 8;
  EXPECT_NE(cold_pass_key(configs, other_rule), key);

  auto other_configs = configs;
  other_configs[1].snr_db = 8.5;
  EXPECT_NE(cold_pass_key(other_configs, rule), key);

  // Order matters: resuming point i from point j's progress would be wrong.
  auto swapped = configs;
  std::swap(swapped[0], swapped[1]);
  EXPECT_NE(cold_pass_key(swapped, rule), key);
}

TEST(Checkpoint, SerializeParsesBackExactly) {
  core::SweepPointProgress p;
  p.packets = 16;
  p.packets_lost = 1;
  p.packet_errors = 5;
  p.bits = 7680;
  p.bit_errors = 321;
  p.evm_sum = 0.123456789012345678;
  p.evm_packets = 15;
  p.stopped = false;
  p.converged = false;
  core::SweepPointProgress q;
  q.packets = 24;
  q.bits = 11520;
  q.evm_sum = 1.0 / 3.0;
  q.evm_packets = 24;
  q.stopped = true;
  q.converged = true;
  const std::vector<core::SweepPointProgress> points{p, q};

  const std::string key = "unit-test-key";
  const std::string text = serialize_checkpoint(key, points);
  long writer_pid = 0;
  const auto back = parse_checkpoint(text, key, &writer_pid);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->size(), 2u);
  EXPECT_GT(writer_pid, 0);
  EXPECT_EQ((*back)[0].packets, p.packets);
  EXPECT_EQ((*back)[0].bit_errors, p.bit_errors);
  EXPECT_EQ((*back)[0].evm_sum, p.evm_sum);
  EXPECT_EQ((*back)[1].evm_sum, q.evm_sum);
  EXPECT_TRUE((*back)[1].stopped);
  EXPECT_TRUE((*back)[1].converged);

  // Wrong key: refused.
  EXPECT_FALSE(parse_checkpoint(text, "other-key").has_value());
  // Wrong point count at load time: refused (exercised via load_checkpoint
  // elsewhere); truncation sentinel: dropping the trailing "end" refuses.
  const std::size_t end_at = text.rfind("end");
  ASSERT_NE(end_at, std::string::npos);
  EXPECT_FALSE(parse_checkpoint(text.substr(0, end_at), key).has_value());
}

}  // namespace
}  // namespace wlansim::service
