// The socket front end: request handling (protocol level), a full
// end-to-end exchange over a real Unix-domain socket checking that a
// daemon-served sweep reproduces direct evaluation bit-for-bit, request
// framing (the line-length limit, byte-at-a-time writes), and
// connect_unix_retry.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
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

/// A persistent client connection. Reads time out after 10 s (SO_RCVTIMEO),
/// so a server that never answers fails the test instead of hanging it.
class Client {
 public:
  explicit Client(const fs::path& path)
      : fd_(connect_unix_retry(path, 5000)) {
    EXPECT_GE(fd_, 0) << std::strerror(errno);
    timeval tv{};
    tv.tv_sec = 10;
    if (fd_ >= 0)
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Write `data` in `piece`-byte send() calls.
  void send_bytes(std::string_view data, std::size_t piece) {
    for (std::size_t off = 0; off < data.size();) {
      const ssize_t n = ::send(fd_, data.data() + off,
                               std::min(piece, data.size() - off),
                               MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      ASSERT_GT(n, 0) << std::strerror(errno);
      off += static_cast<std::size_t>(n);
    }
  }

  /// The next response line without its '\n'; nullopt on EOF (eof() then
  /// holds), a read error or the timeout.
  std::optional<std::string> read_line() {
    char chunk[4096];
    for (;;) {
      const std::size_t nl = rx_.find('\n');
      if (nl != std::string::npos) {
        std::string line = rx_.substr(0, nl);
        rx_.erase(0, nl + 1);
        return line;
      }
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        eof_ = n == 0;
        return std::nullopt;
      }
      rx_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  bool eof() const { return eof_; }

 private:
  int fd_;
  std::string rx_;
  bool eof_ = false;
};

/// Runs `server` on its own thread until stop() or scope exit, so a failed
/// ASSERT never leaves a joinable thread behind.
class Serving {
 public:
  explicit Serving(Server& server)
      : server_(server), thread_([this] { server_.run(); }) {}
  ~Serving() { stop(); }
  Serving(const Serving&) = delete;
  Serving& operator=(const Serving&) = delete;
  void stop() {
    if (!thread_.joinable()) return;
    server_.request_stop();
    thread_.join();
  }

 private:
  Server& server_;
  std::thread thread_;
};

/// The removed "shard" op is an unknown op like any other, and the
/// connection that sent it keeps serving.
void expect_shard_op_unknown(const fs::path& sock) {
  Client client(sock);
  client.send_bytes("{\"op\":\"shard\"}\n", 64);
  const std::optional<std::string> reply = client.read_line();
  ASSERT_TRUE(reply.has_value());
  const Json shard = parse_line(*reply);
  EXPECT_FALSE(shard.find("ok")->as_bool());
  EXPECT_NE(shard.find("error")->as_string().find("unknown op"),
            std::string::npos)
      << *reply;
  client.send_bytes("{\"op\":\"ping\"}\n", 64);
  const std::optional<std::string> pong = client.read_line();
  ASSERT_TRUE(pong.has_value());
  EXPECT_TRUE(parse_line(*pong).find("ok")->as_bool());
}

TEST(ServiceServer, EndToEndOverTheSocket) {
  const fs::path dir = test_dir("e2e");
  Server server(server_opts(dir, "e2e"));
  const fs::path sock = server.socket_path();
  std::thread serving([&] { server.run(); });

  const Json ping = parse_line(socket_round_trip(sock, "{\"op\":\"ping\"}"));
  EXPECT_TRUE(ping.find("ok")->as_bool());

  expect_shard_op_unknown(sock);

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

TEST(ServiceServer, OverlongLineGetsOneErrorThenEof) {
  const fs::path dir = test_dir("overlong");
  Server server(server_opts(dir, "ol"));
  const fs::path sock = server.socket_path();
  Serving serving(server);

  // A line of exactly the limit is still read and answered.
  {
    const std::string head = "{\"op\":\"ping\",\"pad\":\"";
    const std::string line =
        head + std::string(kMaxRequestBytes - head.size() - 2, 'x') + "\"}";
    ASSERT_EQ(line.size(), kMaxRequestBytes);
    Client client(sock);
    client.send_bytes(line + "\n", 1 << 16);
    const std::optional<std::string> reply = client.read_line();
    ASSERT_TRUE(reply.has_value());
    EXPECT_TRUE(parse_line(*reply).find("ok")->as_bool()) << *reply;
  }

  // One byte more, unterminated: one error line naming the limit, then EOF.
  {
    Client client(sock);
    client.send_bytes(std::string(kMaxRequestBytes + 1, 'x'), 1 << 16);
    const std::optional<std::string> reply = client.read_line();
    ASSERT_TRUE(reply.has_value());
    const Json err = parse_line(*reply);
    EXPECT_FALSE(err.find("ok")->as_bool());
    EXPECT_NE(err.find("error")->as_string().find(
                  std::to_string(kMaxRequestBytes)),
              std::string::npos)
        << *reply;
    EXPECT_FALSE(client.read_line().has_value());
    EXPECT_TRUE(client.eof());
  }

  // The server keeps accepting: a fresh connection's ping answers.
  {
    Client client(sock);
    client.send_bytes("{\"op\":\"ping\"}\n", 64);
    const std::optional<std::string> pong = client.read_line();
    ASSERT_TRUE(pong.has_value());
    EXPECT_TRUE(parse_line(*pong).find("ok")->as_bool());
  }
}

TEST(ServiceServer, StopStillAnswersAWaitingClient) {
  // A job the stop fails must reach its client as the resumable error; a
  // closed connection would leave the client unable to tell preemption
  // from a crash.
  const fs::path dir = test_dir("stopreply");
  Server::Options opts = server_opts(dir, "sr");
  opts.scheduler.start_paused = true;  // the job waits in the queue
  Server server(std::move(opts));
  const fs::path sock = server.socket_path();
  Serving serving(server);

  SweepRequest req;
  req.base = core::default_link_config();
  req.base.psdu_bytes = 60;
  req.from = 6.0;
  req.to = 6.0;
  req.rule = small_rule();
  Client client(sock);
  client.send_bytes(req.to_json().dump() + "\n", 1 << 16);
  while (server.scheduler().stats().jobs < 1) std::this_thread::yield();

  serving.stop();
  const std::optional<std::string> reply = client.read_line();
  ASSERT_TRUE(reply.has_value()) << "connection closed without a reply";
  const Json err = parse_line(*reply);
  EXPECT_FALSE(err.find("ok")->as_bool());
  const Json* resumable = err.find("resumable");
  ASSERT_NE(resumable, nullptr) << *reply;
  EXPECT_TRUE(resumable->as_bool());
}

TEST(ServiceServer, ByteAtATimeRequestGetsTheSameReply) {
  const fs::path dir = test_dir("bytewise");
  Server server(server_opts(dir, "bw"));
  const fs::path sock = server.socket_path();
  Serving serving(server);

  SweepRequest req;
  req.param = "snr";
  req.from = 6.0;
  req.to = 8.0;
  req.step = 2.0;
  req.base = core::default_link_config();
  req.base.psdu_bytes = 60;
  req.rule = small_rule();
  const std::string line = req.to_json().dump() + "\n";

  // The first pass is cold and fills the store; the two compared replies
  // are then both warm, so every byte of them is deterministic.
  Client client(sock);
  client.send_bytes(line, line.size());
  ASSERT_TRUE(client.read_line().has_value());
  client.send_bytes(line, 1);
  const std::optional<std::string> bytewise = client.read_line();
  client.send_bytes(line, line.size());
  const std::optional<std::string> whole = client.read_line();
  ASSERT_TRUE(bytewise.has_value());
  ASSERT_TRUE(whole.has_value());
  EXPECT_TRUE(parse_line(*whole).find("ok")->as_bool()) << *whole;
  EXPECT_EQ(*bytewise, *whole);
}

// --- connect_unix_retry -----------------------------------------------------

TEST(ServiceConnect, TimesOutOnMissingSocket) {
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_LT(connect_unix_retry("/tmp/wlansim-no-such.sock", 80), 0);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  EXPECT_GE(ms, 80);
  EXPECT_LT(ms, 3000);
}

TEST(ServiceConnect, WaitsForALateBoundSocket) {
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

}  // namespace
}  // namespace wlansim::service
