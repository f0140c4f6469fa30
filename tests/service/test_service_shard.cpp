// Sharded cold-pass execution (service/shard.h): partition/merge units,
// the shard wire codec, worker-side serve_shard resume semantics, and the
// coordinator's headline contract — a pass fanned out across worker
// processes (under any shard count and any worker-death schedule) merges
// back bit-identical to the single-process pooled pass.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/experiments.h"
#include "core/parallel.h"
#include "service/checkpoint.h"
#include "service/protocol.h"
#include "service/scheduler.h"
#include "service/shard.h"

namespace wlansim::service {
namespace {

namespace fs = std::filesystem;

fs::path test_dir(const char* name) {
  fs::path dir = fs::path(::testing::TempDir()) / "wlansim-shardtest" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

core::LinkConfig cheap_config(double snr) {
  core::LinkConfig cfg = core::default_link_config();
  cfg.psdu_bytes = 60;
  cfg.snr_db = snr;
  return cfg;
}

sim::StoppingRule small_rule() {
  sim::StoppingRule rule;
  rule.target_rel_ci = 0.35;
  rule.min_errors = 25;
  rule.min_packets = 8;
  rule.max_packets = 40;
  return rule;
}

std::vector<core::LinkConfig> study(std::initializer_list<double> snrs) {
  std::vector<core::LinkConfig> cfgs;
  for (const double snr : snrs) cfgs.push_back(cheap_config(snr));
  return cfgs;
}

void expect_identical(const core::BerResult& a, const core::BerResult& b) {
  EXPECT_EQ(a.packets, b.packets);
  EXPECT_EQ(a.bits, b.bits);
  EXPECT_EQ(a.bit_errors, b.bit_errors);
  EXPECT_EQ(a.packet_errors, b.packet_errors);
  EXPECT_EQ(a.packets_lost, b.packets_lost);
  EXPECT_EQ(a.evm_rms_avg, b.evm_rms_avg);
  EXPECT_EQ(a.ber_ci_rel, b.ber_ci_rel);
  EXPECT_EQ(a.converged, b.converged);
}

/// The daemon binary next to this test's build tree, or empty when the
/// layout is unexpected (tests that need workers skip then).
fs::path daemon_binary() {
  std::error_code ec;
  const fs::path self = fs::read_symlink("/proc/self/exe", ec);
  if (ec) return {};
  const fs::path bin =
      self.parent_path().parent_path() / "tools" / "wlansim_daemon";
  return fs::exists(bin, ec) ? bin : fs::path{};
}

// --- Partition and merge ----------------------------------------------------

TEST(ShardPartition, StridedCoversEveryIndexOnce) {
  for (const std::size_t n : {1u, 2u, 5u, 8u, 13u}) {
    for (const std::size_t s : {1u, 2u, 3u, 4u, 7u}) {
      const auto parts = shard_partition(n, s);
      ASSERT_EQ(parts.size(), std::min<std::size_t>(s, n));
      std::vector<bool> seen(n, false);
      for (std::size_t p = 0; p < parts.size(); ++p) {
        EXPECT_FALSE(parts[p].empty());
        for (const std::size_t i : parts[p]) {
          ASSERT_LT(i, n);
          EXPECT_FALSE(seen[i]) << "index " << i << " assigned twice";
          seen[i] = true;
          EXPECT_EQ(i % parts.size(), p) << "not strided";
        }
      }
      for (std::size_t i = 0; i < n; ++i) EXPECT_TRUE(seen[i]);
    }
  }
}

TEST(ShardPartition, EdgeCases) {
  EXPECT_TRUE(shard_partition(0, 4).empty());
  // shards == 0 degrades to one shard, never a division by zero.
  const auto one = shard_partition(3, 0);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], (std::vector<std::size_t>{0, 1, 2}));
}

TEST(ShardMerge, FurtherAlongEntryWinsPerPoint) {
  core::SweepPointProgress a0;
  a0.packets = 16;
  a0.bits = 1000;
  core::SweepPointProgress b0;
  b0.packets = 8;
  b0.bits = 400;
  core::SweepPointProgress b1;
  b1.packets = 24;
  b1.converged = true;

  const std::vector<core::SweepPointProgress> a{a0, {}};
  const std::vector<core::SweepPointProgress> b{b0, b1};
  const auto m = merge_progress(a, b, 2);
  ASSERT_EQ(m.size(), 2u);
  EXPECT_EQ(m[0].packets, 16u);
  EXPECT_EQ(m[0].bits, 1000u);
  EXPECT_EQ(m[1].packets, 24u);
  EXPECT_TRUE(m[1].converged);

  // Either side may be empty (all-zero); sizes must otherwise match.
  EXPECT_EQ(merge_progress({}, b, 2)[1].packets, 24u);
  EXPECT_EQ(merge_progress(a, {}, 2)[0].packets, 16u);
  EXPECT_THROW(merge_progress(a, b, 3), std::invalid_argument);
}

// --- Wire codec -------------------------------------------------------------

TEST(ShardProtocol, ProgressRoundTripIsExact) {
  core::SweepPointProgress p;
  p.packets = 0xDEADBEEFCAFEull;
  p.packets_lost = 3;
  p.packet_errors = 41;
  p.bits = (1ull << 53) + 1;  // would be lossy through a plain double
  p.bit_errors = 977;
  p.evm_sum = 0.1 + 0.2;  // not representable exactly in decimal
  p.evm_packets = 1234;
  p.stopped = true;
  p.converged = false;

  const core::SweepPointProgress q =
      progress_from_json(progress_to_json(p));
  EXPECT_EQ(q.packets, p.packets);
  EXPECT_EQ(q.packets_lost, p.packets_lost);
  EXPECT_EQ(q.packet_errors, p.packet_errors);
  EXPECT_EQ(q.bits, p.bits);
  EXPECT_EQ(q.bit_errors, p.bit_errors);
  EXPECT_EQ(q.evm_sum, p.evm_sum);  // bit-exact, not approximate
  EXPECT_EQ(q.evm_packets, p.evm_packets);
  EXPECT_EQ(q.stopped, p.stopped);
  EXPECT_EQ(q.converged, p.converged);

  const auto arr = progress_array_from_json(
      progress_array_to_json(std::vector<core::SweepPointProgress>{p, {}}));
  ASSERT_EQ(arr.size(), 2u);
  EXPECT_EQ(arr[0].bits, p.bits);
  EXPECT_EQ(arr[1].packets, 0u);
}

TEST(ShardProtocol, ShardRequestRoundTrip) {
  ShardRequest req;
  req.links = study({6.0, 10.0});
  req.rule = small_rule();
  req.threads = 3;
  req.report_every_waves = 4;
  req.resume.resize(2);
  req.resume[1].packets = 16;
  req.resume[1].evm_sum = 1.75;

  // Round-trip through the serialized line, exactly as a worker sees it.
  std::string err;
  const auto j = Json::parse(req.to_json().dump(), &err);
  ASSERT_TRUE(j.has_value()) << err;
  const ShardRequest back = ShardRequest::from_json(*j);

  ASSERT_EQ(back.links.size(), 2u);
  EXPECT_EQ(back.links[0].snr_db, req.links[0].snr_db);
  EXPECT_EQ(back.links[1].psdu_bytes, req.links[1].psdu_bytes);
  // Same content address = same engine question (and same checkpoint key).
  EXPECT_EQ(cold_pass_key(back.links, back.rule),
            cold_pass_key(req.links, req.rule));
  EXPECT_EQ(back.threads, 3u);
  EXPECT_EQ(back.report_every_waves, 4u);
  ASSERT_EQ(back.resume.size(), 2u);
  EXPECT_EQ(back.resume[1].packets, 16u);
  EXPECT_EQ(back.resume[1].evm_sum, 1.75);
}

TEST(ShardProtocol, ShardRequestRejectsMalformedResume) {
  ShardRequest req;
  req.links = study({6.0});
  req.rule = small_rule();
  req.resume.resize(2);  // wrong length for one link
  EXPECT_THROW(ShardRequest::from_json(req.to_json()), std::exception);
}

TEST(ShardProtocol, ShardReplyRoundTrip) {
  std::vector<core::SweepPointProgress> ps(2);
  ps[0].packets = 8;
  const ShardReply prog =
      shard_reply_from_json(shard_progress_response(ps));
  EXPECT_FALSE(prog.done);
  ASSERT_EQ(prog.progress.size(), 2u);
  EXPECT_EQ(prog.progress[0].packets, 8u);

  std::vector<core::BerResult> results(2);
  results[0].packets = 40;
  results[0].bit_errors = 123;
  results[0].evm_rms_avg = 0.25;
  const ShardReply done = shard_reply_from_json(
      shard_done_response(results, ps, /*resumed_packets=*/16));
  EXPECT_TRUE(done.done);
  EXPECT_EQ(done.resumed_packets, 16u);
  ASSERT_EQ(done.results.size(), 2u);
  EXPECT_EQ(done.results[0].packets, 40u);
  EXPECT_EQ(done.results[0].bit_errors, 123u);
  EXPECT_EQ(done.results[0].evm_rms_avg, 0.25);

  EXPECT_THROW(shard_reply_from_json(error_response("worker exploded")),
               std::runtime_error);
}

TEST(ShardProtocol, DropRequestRoundTrip) {
  scenario::DropConfig cfg;
  cfg.num_stations = 7;
  cfg.num_steps = 3;
  cfg.area_half_m = 25.0;
  cfg.tx_power_dbm = 14.5;
  cfg.seed = 99;
  cfg.link = cheap_config(0.0);
  cfg.snr_bin_db = 1.0;
  cfg.rule = small_rule();
  cfg.interferers.push_back({{3.0, -4.0}, 10.0, 312.5e3});
  DropRequest req;
  req.cfg = cfg;

  std::string err;
  const auto j = Json::parse(req.to_json().dump(), &err);
  ASSERT_TRUE(j.has_value()) << err;
  const scenario::DropConfig back = DropRequest::from_json(*j).cfg;
  EXPECT_EQ(back.num_stations, 7u);
  EXPECT_EQ(back.num_steps, 3u);
  EXPECT_EQ(back.area_half_m, 25.0);
  EXPECT_EQ(back.tx_power_dbm, 14.5);
  EXPECT_EQ(back.seed, 99u);
  EXPECT_EQ(back.snr_bin_db, 1.0);
  EXPECT_EQ(back.rule.max_packets, small_rule().max_packets);
  ASSERT_EQ(back.interferers.size(), 1u);
  EXPECT_EQ(back.interferers[0].tx_power_dbm, 10.0);
  EXPECT_EQ(back.interferers[0].offset_hz, 312.5e3);
  EXPECT_EQ(back.link.psdu_bytes, 60u);
}

// --- connect_unix_retry -----------------------------------------------------

TEST(ShardConnect, TimesOutOnMissingSocket) {
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_LT(connect_unix_retry("/tmp/wlansim-no-such.sock", 80), 0);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  EXPECT_GE(ms, 80);
  EXPECT_LT(ms, 3000);
}

TEST(ShardConnect, WaitsForALateBoundSocket) {
  const std::string path = "/tmp/wlansim-late-" +
                           std::to_string(::getpid()) + ".sock";
  ::unlink(path.c_str());
  std::thread binder([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    const int lfd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(lfd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path.c_str());
    ASSERT_EQ(::bind(lfd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    ASSERT_EQ(::listen(lfd, 1), 0);
    const int cfd = ::accept(lfd, nullptr, nullptr);
    if (cfd >= 0) ::close(cfd);
    ::close(lfd);
  });
  const int fd = connect_unix_retry(path, 5000);
  EXPECT_GE(fd, 0);
  if (fd >= 0) ::close(fd);
  binder.join();
  ::unlink(path.c_str());
}

// --- serve_shard (worker side) ----------------------------------------------

/// Drain every line the worker streamed into `fd` and return the parsed
/// replies (the peer end of a socketpair; the worker has already
/// returned, so everything is buffered).
std::vector<ShardReply> read_replies(int fd) {
  ::shutdown(fd, SHUT_WR);
  std::string buf;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (n <= 0) break;
    buf.append(chunk, static_cast<std::size_t>(n));
  }
  std::vector<ShardReply> replies;
  std::size_t start = 0;
  while (start < buf.size()) {
    std::size_t nl = buf.find('\n', start);
    if (nl == std::string::npos) nl = buf.size();
    const std::string line = buf.substr(start, nl - start);
    start = nl + 1;
    if (line.empty()) continue;
    std::string err;
    const auto j = Json::parse(line, &err);
    EXPECT_TRUE(j.has_value()) << line << " -> " << err;
    replies.push_back(shard_reply_from_json(*j));
  }
  return replies;
}

TEST(ServeShard, ResumesFromCheckpointAndColdRerunsWhenCorrupt) {
  const fs::path dir = test_dir("serve-resume");
  const std::vector<core::LinkConfig> links = study({6.0, 8.0});
  const sim::StoppingRule rule = small_rule();
  const std::string key = cold_pass_key(links, rule);
  ASSERT_FALSE(key.empty());

  core::SweepOptions sopts;
  sopts.threads = 2;
  const std::vector<core::BerResult> direct =
      core::sweep_ber_adaptive(links, rule, sopts);

  ShardRequest req;
  req.links = links;
  req.rule = rule;
  req.threads = 2;
  req.report_every_waves = 1;

  ShardServeOptions so;
  so.checkpoint_dir = dir;
  so.checkpoint_every_waves = 1;

  // 1) Preempt at the first wave boundary: the shard checkpoint survives.
  std::atomic<bool> stop{true};
  so.stop = &stop;
  int pair[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
  EXPECT_FALSE(serve_shard(pair[0], req, so));
  ::close(pair[0]);
  ::close(pair[1]);
  const auto saved = load_checkpoint(dir, key, links.size());
  ASSERT_TRUE(saved.has_value());
  std::uint64_t saved_packets = 0;
  for (const auto& p : *saved) saved_packets += p.packets;
  ASSERT_GT(saved_packets, 0u);

  // 2) Re-serve without the stop flag: resumes from its own checkpoint
  //    (resumed_packets > 0) and completes bit-identically.
  so.stop = nullptr;
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
  EXPECT_TRUE(serve_shard(pair[0], req, so));
  ::close(pair[0]);
  std::vector<ShardReply> replies = read_replies(pair[1]);
  ::close(pair[1]);
  ASSERT_FALSE(replies.empty());
  ASSERT_TRUE(replies.back().done);
  EXPECT_EQ(replies.back().resumed_packets, saved_packets);
  ASSERT_EQ(replies.back().results.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i)
    expect_identical(replies.back().results[i], direct[i]);
  // Completion removed the shard checkpoint.
  EXPECT_FALSE(load_checkpoint(dir, key, links.size()).has_value());

  // 3) Corrupt checkpoint: clean cold re-run (resumed_packets == 0), same
  //    bits. Recreate the preempted state first, then scribble over it.
  stop.store(true);
  so.stop = &stop;
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
  EXPECT_FALSE(serve_shard(pair[0], req, so));
  ::close(pair[0]);
  ::close(pair[1]);
  {
    std::ofstream os(checkpoint_path(dir, key), std::ios::trunc);
    os << "not a checkpoint\n";
  }
  so.stop = nullptr;
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
  EXPECT_TRUE(serve_shard(pair[0], req, so));
  ::close(pair[0]);
  replies = read_replies(pair[1]);
  ::close(pair[1]);
  ASSERT_FALSE(replies.empty());
  ASSERT_TRUE(replies.back().done);
  EXPECT_EQ(replies.back().resumed_packets, 0u);
  ASSERT_EQ(replies.back().results.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i)
    expect_identical(replies.back().results[i], direct[i]);
}

// --- Coordinator ------------------------------------------------------------

ShardCoordinator::Options coord_opts(const fs::path& dir,
                                     std::size_t workers) {
  ShardCoordinator::Options opts;
  opts.workers = workers;
  opts.worker_binary = daemon_binary();
  opts.checkpoint_dir = dir;
  opts.worker_threads = 1;
  return opts;
}

TEST(ShardCoordinatorTest, AnyWorkerCountMatchesDirectEvaluation) {
  if (daemon_binary().empty())
    GTEST_SKIP() << "wlansim_daemon not found next to the test binary";
  const std::vector<core::LinkConfig> links =
      study({6.0, 8.0, 10.0, 12.0, 14.0, 16.0});
  const sim::StoppingRule rule = small_rule();
  core::SweepOptions sopts;
  sopts.threads = 1;
  const std::vector<core::BerResult> direct =
      core::sweep_ber_adaptive(links, rule, sopts);

  for (const std::size_t workers : {1u, 2u, 4u}) {
    const fs::path dir = test_dir(
        ("coord-" + std::to_string(workers)).c_str());
    ShardCoordinator coord(coord_opts(dir, workers));
    const std::vector<core::BerResult> sharded =
        coord.run(links, rule, sopts);
    ASSERT_EQ(sharded.size(), direct.size()) << workers << " workers";
    for (std::size_t i = 0; i < direct.size(); ++i)
      expect_identical(sharded[i], direct[i]);
    const ShardStats st = coord.stats();
    EXPECT_EQ(st.passes, 1u);
    EXPECT_GE(st.shards, std::min<std::size_t>(workers, links.size()));
    // A clean run leaves no whole-pass checkpoint behind.
    EXPECT_FALSE(load_checkpoint(dir, cold_pass_key(links, rule),
                                 links.size())
                     .has_value());
  }
}

TEST(ShardCoordinatorTest, SurvivesWorkerKilledBetweenPasses) {
  if (daemon_binary().empty())
    GTEST_SKIP() << "wlansim_daemon not found next to the test binary";
  const fs::path dir = test_dir("coord-kill");
  ShardCoordinator coord(coord_opts(dir, 2));

  core::SweepOptions sopts;
  sopts.threads = 1;
  // Warm-up pass: spawns the workers so there are pids to kill.
  sim::StoppingRule tiny = small_rule();
  tiny.max_packets = 8;
  tiny.min_packets = 8;
  coord.run(study({5.0, 7.0}), tiny, sopts);
  const std::vector<pid_t> pids = coord.worker_pids();
  ASSERT_EQ(pids.size(), 2u);

  // SIGKILL one worker. The next pass finds its socket dead at dispatch
  // (or the connection drops at the first poll), respawns it, and still
  // merges bit-identically.
  ASSERT_EQ(::kill(pids[0], SIGKILL), 0);

  const std::vector<core::LinkConfig> links = study({6.0, 8.0, 10.0, 12.0});
  const sim::StoppingRule rule = small_rule();
  const std::vector<core::BerResult> direct =
      core::sweep_ber_adaptive(links, rule, sopts);
  const std::vector<core::BerResult> sharded = coord.run(links, rule, sopts);
  ASSERT_EQ(sharded.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i)
    expect_identical(sharded[i], direct[i]);
  EXPECT_GE(coord.stats().worker_respawns, 1u);
}

TEST(ShardCoordinatorTest, SurvivesWorkerKilledMidShard) {
  if (daemon_binary().empty())
    GTEST_SKIP() << "wlansim_daemon not found next to the test binary";
  const fs::path dir = test_dir("coord-midkill");
  ShardCoordinator coord(coord_opts(dir, 2));

  core::SweepOptions sopts;
  sopts.threads = 1;
  // Long enough for the kill to land mid-shard on most schedules; if the
  // pass wins the race the assertions below still hold (identity is
  // unconditional, the respawn counter is not asserted here).
  sim::StoppingRule rule = small_rule();
  rule.target_rel_ci = 0.05;
  rule.min_errors = 4000;
  rule.max_packets = 96;
  const std::vector<core::LinkConfig> links =
      study({4.0, 5.0, 6.0, 7.0, 8.0, 9.0});
  const std::vector<core::BerResult> direct =
      core::sweep_ber_adaptive(links, rule, sopts);

  std::thread killer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    const std::vector<pid_t> pids = coord.worker_pids();
    if (!pids.empty()) ::kill(pids.back(), SIGKILL);
  });
  const std::vector<core::BerResult> sharded = coord.run(links, rule, sopts);
  killer.join();

  ASSERT_EQ(sharded.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i)
    expect_identical(sharded[i], direct[i]);
}

TEST(ShardCoordinatorTest, FallsBackToLocalWhenWorkersUnreachable) {
  const fs::path dir = test_dir("coord-local");
  // Attach-only coordinator pointed at a socket nobody serves: every
  // dispatch fails, the pass falls back to in-process execution and still
  // completes bit-identically.
  ShardCoordinator::Options opts;
  opts.attach_sockets = {dir / "nobody.sock"};
  opts.checkpoint_dir = dir;
  ShardCoordinator coord(std::move(opts));

  const std::vector<core::LinkConfig> links = study({6.0, 8.0, 10.0});
  const sim::StoppingRule rule = small_rule();
  core::SweepOptions sopts;
  sopts.threads = 2;
  const std::vector<core::BerResult> direct =
      core::sweep_ber_adaptive(links, rule, sopts);
  const std::vector<core::BerResult> sharded = coord.run(links, rule, sopts);
  ASSERT_EQ(sharded.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i)
    expect_identical(sharded[i], direct[i]);
}

// --- Scheduler integration --------------------------------------------------

std::map<std::string, std::string> store_bytes(const fs::path& dir) {
  std::map<std::string, std::string> files;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (!e.is_regular_file()) continue;
    std::ifstream is(e.path(), std::ios::binary);
    std::string data((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
    files[fs::relative(e.path(), dir).string()] = std::move(data);
  }
  return files;
}

TEST(ShardScheduler, ShardedColdPassMatchesUnshardedIncludingStoreBytes) {
  if (daemon_binary().empty())
    GTEST_SKIP() << "wlansim_daemon not found next to the test binary";
  const fs::path plain_dir = test_dir("sched-plain");
  const fs::path shard_dir = test_dir("sched-shard");

  JobRequest req;
  req.configs = study({6.0, 8.0, 10.0, 12.0, 14.0});
  req.rule = small_rule();

  Scheduler::Options popts;
  popts.store_dir = plain_dir;
  popts.threads = 1;
  Scheduler plain(popts);
  const JobResult plain_res = plain.submit(req).get();
  plain.stop();

  Scheduler::Options sopts_sched;
  sopts_sched.store_dir = shard_dir;
  sopts_sched.threads = 1;
  sopts_sched.workers = 2;
  Scheduler sharded(sopts_sched);
  ASSERT_NE(sharded.coordinator(), nullptr);
  const JobResult shard_res = sharded.submit(req).get();
  const SchedulerStats st = sharded.stats();
  sharded.stop();

  EXPECT_EQ(st.workers, 2u);
  EXPECT_EQ(st.sharded_passes, 1u);
  ASSERT_EQ(shard_res.results.size(), plain_res.results.size());
  for (std::size_t i = 0; i < plain_res.results.size(); ++i)
    expect_identical(shard_res.results[i], plain_res.results[i]);

  // The backfilled store is byte-identical: same files, same contents.
  const auto plain_files = store_bytes(plain_dir);
  const auto shard_files = store_bytes(shard_dir);
  ASSERT_EQ(plain_files.size(), shard_files.size());
  for (const auto& [name, data] : plain_files) {
    const auto it = shard_files.find(name);
    ASSERT_NE(it, shard_files.end()) << name;
    EXPECT_EQ(it->second, data) << name;
  }
}

TEST(ShardScheduler, FailedPassLeavesNoWorkerHoldingAShard) {
  if (daemon_binary().empty())
    GTEST_SKIP() << "wlansim_daemon not found next to the test binary";
  Scheduler::Options sopts_sched;
  sopts_sched.store_dir = test_dir("sched-fail-shard");
  sopts_sched.threads = 1;
  sopts_sched.workers = 2;
  Scheduler sharded(sopts_sched);
  ASSERT_NE(sharded.coordinator(), nullptr);

  // Shard 0 holds a link its worker's codec rejects at once; shard 1's
  // low-SNR points are still running when that error reply arrives.
  JobRequest bad;
  bad.configs = study({4.0, 5.0, 6.0, 7.0});
  bad.configs[0].rf.bb_bandwidth_factor = 0.0;
  bad.rule = small_rule();
  bad.rule.target_rel_ci = 0.05;
  bad.rule.min_errors = 4000;
  bad.rule.max_packets = 96;
  EXPECT_THROW(sharded.submit(bad).get(), std::exception);
  EXPECT_GE(sharded.coordinator()->stats().shards, 2u);

  // The next pass must not pick up the failed pass's late replies.
  JobRequest good;
  good.configs = study({6.0, 8.0, 10.0, 12.0, 14.0});
  good.rule = small_rule();
  const JobResult shard_res = sharded.submit(good).get();
  EXPECT_EQ(sharded.stats().sharded_passes, 1u);
  sharded.stop();

  Scheduler::Options popts;
  popts.store_dir = test_dir("sched-fail-plain");
  popts.threads = 1;
  Scheduler plain(popts);
  const JobResult plain_res = plain.submit(good).get();
  plain.stop();

  ASSERT_EQ(shard_res.results.size(), plain_res.results.size());
  for (std::size_t i = 0; i < plain_res.results.size(); ++i)
    expect_identical(shard_res.results[i], plain_res.results[i]);
}

TEST(ShardScheduler, SingleKeyPassesStayLocal) {
  if (daemon_binary().empty())
    GTEST_SKIP() << "wlansim_daemon not found next to the test binary";
  const fs::path dir = test_dir("sched-single");
  Scheduler::Options opts;
  opts.store_dir = dir;
  opts.threads = 1;
  opts.workers = 2;
  Scheduler sched(opts);
  JobRequest req;
  req.configs = study({9.0});
  req.rule = small_rule();
  sched.submit(req).get();
  // One dedup key: not worth a fan-out, and none should be recorded.
  EXPECT_EQ(sched.stats().sharded_passes, 0u);
  sched.stop();
}

}  // namespace
}  // namespace wlansim::service
