// The socket front end: request handling (protocol level) and a full
// end-to-end exchange over a real Unix-domain socket, checking that a
// daemon-served sweep reproduces direct evaluation bit-for-bit.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/experiments.h"
#include "core/parallel.h"
#include "service/protocol.h"
#include "service/server.h"

namespace wlansim::service {
namespace {

namespace fs = std::filesystem;

fs::path test_dir(const char* name) {
  fs::path dir = fs::path(::testing::TempDir()) / "wlansim-servertest" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

Server::Options server_opts(const fs::path& dir, const char* sock_name) {
  Server::Options opts;
  // Socket paths must fit sockaddr_un; /tmp keeps them short.
  opts.socket_path = fs::path("/tmp") / (std::string("wlansim-test-") +
                                         sock_name + "-" +
                                         std::to_string(::getpid()) + ".sock");
  opts.scheduler.store_dir = dir;
  opts.scheduler.threads = 2;
  return opts;
}

sim::StoppingRule small_rule() {
  sim::StoppingRule rule;
  rule.target_rel_ci = 0.35;
  rule.min_errors = 25;
  rule.min_packets = 8;
  rule.max_packets = 40;
  return rule;
}

Json parse_line(const std::string& line) {
  std::string err;
  const auto j = Json::parse(line, &err);
  EXPECT_TRUE(j.has_value()) << line << " -> " << err;
  return j.value();
}

TEST(ServiceServer, HandleLineProtocol) {
  const fs::path dir = test_dir("handleline");
  Server server(server_opts(dir, "hl"));

  const Json ping = parse_line(server.handle_line("{\"op\":\"ping\"}"));
  EXPECT_TRUE(ping.find("ok")->as_bool());
  EXPECT_EQ(ping.find("service")->as_string(), "wlansim-daemon");
  EXPECT_EQ(ping.find("pid")->as_u64(), static_cast<std::uint64_t>(::getpid()));

  const Json stats = parse_line(server.handle_line("{\"op\":\"stats\"}"));
  EXPECT_TRUE(stats.find("ok")->as_bool());
  EXPECT_EQ(stats.find("jobs")->as_u64(), 0u);

  const Json bad = parse_line(server.handle_line("this is not json"));
  EXPECT_FALSE(bad.find("ok")->as_bool());
  const Json unknown =
      parse_line(server.handle_line("{\"op\":\"frobnicate\"}"));
  EXPECT_FALSE(unknown.find("ok")->as_bool());
  const Json no_op = parse_line(server.handle_line("{\"x\":1}"));
  EXPECT_FALSE(no_op.find("ok")->as_bool());
}

TEST(ServiceServer, HandleLineSweepMatchesDirectEvaluation) {
  const fs::path dir = test_dir("sweep");
  Server server(server_opts(dir, "sw"));

  SweepRequest req;
  req.param = "snr";
  req.from = 6.0;
  req.to = 10.0;
  req.step = 2.0;
  req.base = core::default_link_config();
  req.base.psdu_bytes = 60;
  req.rule = small_rule();

  const std::string line = req.to_json().dump();
  const ResultsReply reply =
      results_reply_from_json(parse_line(server.handle_line(line)));

  core::SweepOptions sopts;
  sopts.threads = 2;
  const std::vector<core::BerResult> direct =
      core::sweep_ber_adaptive(req.expand(), req.rule, sopts);
  ASSERT_EQ(reply.results.size(), direct.size());
  ASSERT_EQ(reply.values.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(reply.results[i].packets, direct[i].packets);
    EXPECT_EQ(reply.results[i].bits, direct[i].bits);
    EXPECT_EQ(reply.results[i].bit_errors, direct[i].bit_errors);
    EXPECT_EQ(reply.results[i].packet_errors, direct[i].packet_errors);
    EXPECT_EQ(reply.results[i].evm_rms_avg, direct[i].evm_rms_avg);
    EXPECT_EQ(reply.results[i].ber_ci_rel, direct[i].ber_ci_rel);
    EXPECT_EQ(reply.results[i].ber(), direct[i].ber());
  }
}

/// Minimal blocking client for the e2e test.
std::string socket_round_trip(const fs::path& path,
                              const std::string& request) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  const std::string p = path.string();
  EXPECT_LT(p.size(), sizeof(addr.sun_path));
  std::memcpy(addr.sun_path, p.c_str(), p.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0)
      << std::strerror(errno);
  const std::string line = request + "\n";
  EXPECT_EQ(::send(fd, line.data(), line.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(line.size()));
  std::string buffer;
  char chunk[4096];
  for (;;) {
    const std::size_t nl = buffer.find('\n');
    if (nl != std::string::npos) {
      ::close(fd);
      return buffer.substr(0, nl);
    }
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      ::close(fd);
      ADD_FAILURE() << "connection closed mid-response";
      return buffer;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

TEST(ServiceServer, EndToEndOverTheSocket) {
  const fs::path dir = test_dir("e2e");
  Server server(server_opts(dir, "e2e"));
  const fs::path sock = server.socket_path();
  std::thread serving([&] { server.run(); });

  const Json ping = parse_line(socket_round_trip(sock, "{\"op\":\"ping\"}"));
  EXPECT_TRUE(ping.find("ok")->as_bool());

  SweepRequest req;
  req.param = "snr";
  req.from = 6.0;
  req.to = 8.0;
  req.step = 2.0;
  req.base = core::default_link_config();
  req.base.psdu_bytes = 60;
  req.rule = small_rule();
  const ResultsReply reply = results_reply_from_json(
      parse_line(socket_round_trip(sock, req.to_json().dump())));

  core::SweepOptions sopts;
  sopts.threads = 2;
  const std::vector<core::BerResult> direct =
      core::sweep_ber_adaptive(req.expand(), req.rule, sopts);
  ASSERT_EQ(reply.results.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(reply.results[i].bits, direct[i].bits);
    EXPECT_EQ(reply.results[i].bit_errors, direct[i].bit_errors);
    EXPECT_EQ(reply.results[i].ber_ci_rel, direct[i].ber_ci_rel);
  }

  // An {"op":"shutdown"} request winds the server down and run() returns.
  const Json bye =
      parse_line(socket_round_trip(sock, "{\"op\":\"shutdown\"}"));
  EXPECT_TRUE(bye.find("ok")->as_bool());
  serving.join();
}

TEST(ServiceServer, HandleLineDropMatchesDirectRun) {
  const fs::path dir = test_dir("drop");
  Server server(server_opts(dir, "dr"));

  DropRequest req;
  req.cfg.num_stations = 6;
  req.cfg.num_steps = 2;
  req.cfg.area_half_m = 30.0;
  req.cfg.seed = 7;
  req.cfg.link = core::default_link_config();
  req.cfg.link.psdu_bytes = 60;
  req.cfg.snr_bin_db = 2.0;
  req.cfg.rule = small_rule();

  const scenario::DropSummary served = drop_summary_from_json(
      parse_line(server.handle_line(req.to_json().dump())));

  // Direct run with the daemon's resources (its store, its threads) — the
  // served drop must agree in everything but wall clock, down to the
  // rendered table bytes once the wall column is excluded.
  scenario::DropConfig direct_cfg = req.cfg;
  direct_cfg.threads = 2;
  direct_cfg.store_dir = test_dir("drop-direct");
  const scenario::DropSummary direct =
      scenario::run_drop(direct_cfg, nullptr);

  ASSERT_EQ(served.steps.size(), direct.steps.size());
  for (std::size_t s = 0; s < direct.steps.size(); ++s) {
    EXPECT_EQ(served.steps[s].dedup.queries, direct.steps[s].dedup.queries);
    EXPECT_EQ(served.steps[s].dedup.distinct, direct.steps[s].dedup.distinct);
    EXPECT_EQ(served.steps[s].mean_snr_db, direct.steps[s].mean_snr_db);
    EXPECT_EQ(served.steps[s].mean_ber, direct.steps[s].mean_ber);
    EXPECT_EQ(served.steps[s].mean_goodput_mbps,
              direct.steps[s].mean_goodput_mbps);
  }
  EXPECT_EQ(served.totals.queries, direct.totals.queries);
  EXPECT_EQ(served.totals.distinct, direct.totals.distinct);
  EXPECT_EQ(server.scheduler().stats().drops, 1u);
}

TEST(ServiceServer, ConcurrentClientsCoalesce) {
  const fs::path dir = test_dir("concurrent");
  Server::Options opts = server_opts(dir, "cc");
  opts.scheduler.start_paused = true;  // hold the engine so requests pile up
  Server server(std::move(opts));
  const fs::path sock = server.socket_path();
  std::thread serving([&] { server.run(); });

  SweepRequest req;
  req.param = "snr";
  req.from = 6.0;
  req.to = 8.0;
  req.step = 2.0;
  req.base = core::default_link_config();
  req.base.psdu_bytes = 60;
  req.rule = small_rule();
  const std::string line = req.to_json().dump();

  std::vector<std::thread> clients;
  std::vector<std::string> replies(4);
  for (int c = 0; c < 4; ++c)
    clients.emplace_back(
        [&, c] { replies[c] = socket_round_trip(sock, line); });

  // Release the engine once all four requests are queued.
  while (server.scheduler().stats().jobs < 4) std::this_thread::yield();
  server.scheduler().resume();
  for (auto& t : clients) t.join();

  // Identical requests must produce identical response lines, served from
  // ONE pooled pass (2 distinct cold points for 8 queries).
  for (int c = 1; c < 4; ++c) EXPECT_EQ(replies[c], replies[0]);
  const ResultsReply parsed =
      results_reply_from_json(parse_line(replies[0]));
  EXPECT_EQ(parsed.stats.distinct, 2u);
  const SchedulerStats st = server.scheduler().stats();
  EXPECT_EQ(st.jobs, 4u);
  EXPECT_EQ(st.batches, 1u);
  EXPECT_EQ(st.groups, 1u);
  EXPECT_EQ(st.dedup.cold, 2u);

  server.request_stop();
  serving.join();
}

TEST(ServiceServer, BadEvalFailsClosedAndKeepsServing) {
  const fs::path dir = test_dir("badeval");
  Server::Options opts = server_opts(dir, "be");
  opts.scheduler.threads = 3;
  opts.scheduler.start_paused = true;  // hold the valid request in the queue
  Server server(std::move(opts));

  EvalRequest eval;
  for (int k = 0; k < 8; ++k) {
    core::LinkConfig cfg = core::default_link_config();
    cfg.psdu_bytes = 60;
    cfg.snr_db = 10.0 + k;
    eval.links.push_back(cfg);
  }
  eval.rule = small_rule();

  // Each of these throws inside a packet; the sixth link carries it.
  std::vector<EvalRequest> bad(5, eval);
  bad[0].links[5].interferer =
      channel::InterfererConfig{.offset_hz = 4e7};  // > fs/2 - 10 MHz at 4x
  bad[1].links[5].rf.bb_bandwidth_factor = 0.0;
  bad[2].links[5].psdu_bytes = 5000;
  bad[3].links[5].psdu_bytes = 0;
  bad[4].links[5].sco_ppm = -2e6;

  // A valid request waits in the paused engine's queue.
  std::string good_line;
  std::thread client(
      [&] { good_line = server.handle_line(eval.to_json().dump()); });
  while (server.scheduler().stats().jobs < 1) std::this_thread::yield();

  // The bad requests are answered while the engine is still paused, so
  // none of them joined the batch that carries the valid one.
  for (std::size_t b = 0; b < bad.size(); ++b) {
    const Json reply =
        parse_line(server.handle_line(bad[b].to_json().dump()));
    EXPECT_FALSE(reply.find("ok")->as_bool()) << b << ": " << reply.dump();
    const Json ping = parse_line(server.handle_line("{\"op\":\"ping\"}"));
    EXPECT_TRUE(ping.find("ok")->as_bool());
  }

  server.scheduler().resume();
  client.join();
  const Json good = parse_line(good_line);
  EXPECT_TRUE(good.find("ok")->as_bool()) << good.dump();
  EXPECT_EQ(results_reply_from_json(good).results.size(), eval.links.size());
  const SchedulerStats st = server.scheduler().stats();
  EXPECT_EQ(st.jobs, 1u);
  EXPECT_EQ(st.batches, 1u);

  // The same engine then serves the next request.
  const Json again = parse_line(server.handle_line(eval.to_json().dump()));
  EXPECT_TRUE(again.find("ok")->as_bool()) << again.dump();
}

}  // namespace
}  // namespace wlansim::service
