#include "service/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <future>
#include <stdexcept>

#include "service/checkpoint.h"

namespace wlansim::service {

namespace {

/// A send() to a client that stopped reading fails after this long, so a
/// connection thread never blocks shutdown on such a client.
constexpr timeval kSendTimeout{10, 0};

/// Write the whole buffer, riding out EINTR and partial writes. MSG_NOSIGNAL
/// turns a vanished client into an error return instead of SIGPIPE.
bool send_all(int fd, std::string_view data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// The value of a scheduler job, or its exception rethrown as a copy made
/// in this thread. `held` keeps the exception the engine thread stored
/// alive until the copy is made: that exception's reference count lives in
/// the uninstrumented C++ runtime, so without `held` ThreadSanitizer cannot
/// see that this read comes before the engine thread frees it.
template <class T>
T await_job(std::future<T> fut) {
  const std::shared_future<T> held = fut.share();
  try {
    return held.get();
  } catch (const PreemptedError& e) {
    throw PreemptedError(e.what());
  } catch (const std::exception& e) {
    throw std::runtime_error(e.what());
  }
}

}  // namespace

int connect_unix_retry(const std::filesystem::path& path, int timeout_ms) {
  const std::string p = path.string();
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (p.empty() || p.size() >= sizeof(addr.sun_path)) return -1;
  std::memcpy(addr.sun_path, p.c_str(), p.size() + 1);

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  int backoff_ms = 10;
  for (;;) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      return fd;
    }
    const int err = errno;
    ::close(fd);
    // Retry only the startup race: socket file not yet created (ENOENT)
    // or bound-but-not-listening leftovers (ECONNREFUSED). Anything else
    // (EACCES, path too long, ...) will not heal by waiting.
    if (err != ENOENT && err != ECONNREFUSED) return -1;
    if (std::chrono::steady_clock::now() >= deadline) return -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
    backoff_ms = std::min(backoff_ms * 2, 200);
  }
}

Server::Server(Options opts)
    : opts_(std::move(opts)), scheduler_(opts_.scheduler) {
  const std::string path = opts_.socket_path.string();
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path))
    throw std::runtime_error("Server: socket path empty or too long: " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0)
    throw std::runtime_error(std::string("Server: socket(): ") +
                             std::strerror(errno));
  ::unlink(path.c_str());  // the daemon owns its path; stale files go
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("Server: bind(" + path +
                             "): " + std::strerror(err));
  }
  if (::listen(listen_fd_, 64) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(path.c_str());
    throw std::runtime_error(std::string("Server: listen(): ") +
                             std::strerror(err));
  }
}

Server::~Server() {
  request_stop();
  scheduler_.stop();
  teardown_connections();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  ::unlink(opts_.socket_path.string().c_str());
}

void Server::request_stop() { stop_.store(true); }

void Server::reap_finished() {
  std::lock_guard<std::mutex> lock(conn_mu_);
  auto it = connections_.begin();
  while (it != connections_.end()) {
    Connection& c = **it;
    if (!c.done.load()) {
      ++it;
      continue;
    }
    if (c.thread.joinable()) c.thread.join();
    if (c.fd >= 0) ::close(c.fd);
    c.fd = -1;
    it = connections_.erase(it);
  }
}

void Server::teardown_connections() {
  // Reads only: a thread whose job the scheduler's stop just failed still
  // sends that reply (the resumable preemption error) before it exits;
  // kSendTimeout bounds a send to a client that stopped reading.
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (auto& c : connections_)
      if (c->fd >= 0) ::shutdown(c->fd, SHUT_RD);
  }
  std::lock_guard<std::mutex> lock(conn_mu_);
  for (auto& c : connections_) {
    if (c->thread.joinable()) c->thread.join();
    if (c->fd >= 0) ::close(c->fd);
    c->fd = -1;
  }
  connections_.clear();
}

void Server::run(const std::atomic<bool>* external_stop) {
  while (!stop_.load() && !(external_stop && external_stop->load())) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, /*timeout_ms=*/200);
    if (rc < 0) {
      if (errno == EINTR) continue;  // a signal set the stop flag; re-check
      break;
    }
    reap_finished();
    if (rc == 0 || !(pfd.revents & POLLIN)) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &kSendTimeout,
                 sizeof(kSendTimeout));
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    Connection* raw = conn.get();
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      connections_.push_back(std::move(conn));
    }
    raw->thread = std::thread([this, raw] { serve_connection(raw); });
  }
  stop_.store(true);

  // Teardown order matters: shutdown() first unblocks threads parked in
  // recv(); stopping the scheduler next fails any job future a connection
  // thread is blocked on (preempting + checkpointing an in-flight cold
  // pass); only then can every thread be joined.
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (auto& c : connections_)
      if (c->fd >= 0) ::shutdown(c->fd, SHUT_RD);
  }
  scheduler_.stop();
  teardown_connections();
}

std::string Server::handle_line(const std::string& line) {
  std::string parse_err;
  const std::optional<Json> req = Json::parse(line, &parse_err);
  if (!req)
    return error_response("bad request: " + parse_err).dump();

  try {
    const Json* op = req->find("op");
    if (!op || !op->is_string())
      return error_response("request needs a string \"op\"").dump();
    const std::string& name = op->as_string();

    if (name == "ping") {
      Json j = Json::object();
      j.set("ok", Json::boolean(true));
      j.set("service", Json::string("wlansim-daemon"));
      j.set("pid", Json::number_u64(static_cast<std::uint64_t>(::getpid())));
      return j.dump();
    }
    if (name == "stats") {
      const SchedulerStats st = scheduler_.stats();
      Json j = Json::object();
      j.set("ok", Json::boolean(true));
      j.set("jobs", Json::number_u64(st.jobs));
      j.set("batches", Json::number_u64(st.batches));
      j.set("groups", Json::number_u64(st.groups));
      j.set("preempted", Json::number_u64(st.preempted));
      j.set("drops", Json::number_u64(st.drops));
      j.set("queries", Json::number_u64(st.dedup.queries));
      j.set("distinct", Json::number_u64(st.dedup.distinct));
      j.set("warm", Json::number_u64(st.dedup.warm));
      j.set("cold", Json::number_u64(st.dedup.cold));
      return j.dump();
    }
    if (name == "shutdown") {
      request_stop();
      Json j = Json::object();
      j.set("ok", Json::boolean(true));
      j.set("stopping", Json::boolean(true));
      return j.dump();
    }

    if (name == "drop") {
      const DropRequest drop = DropRequest::from_json(*req);
      const scenario::DropSummary summary =
          await_job(scheduler_.submit_drop(drop.cfg));
      return drop_response(summary).dump();
    }

    JobRequest job;
    std::vector<double> values;
    if (name == "sweep") {
      const SweepRequest sweep = SweepRequest::from_json(*req);
      values = sweep.values();
      job.configs = sweep.expand();
      job.rule = sweep.rule;
      job.axis = axis_from_param(sweep.param);
      job.bin_width_db = sweep.bin_width_db;
      job.use_store = sweep.use_store;
    } else if (name == "eval") {
      const EvalRequest eval = EvalRequest::from_json(*req);
      job.configs = eval.links;
      job.rule = eval.rule;
      job.axis = axis_from_param(eval.param);
      job.bin_width_db = eval.bin_width_db;
      job.use_store = eval.use_store;
      values.reserve(job.configs.size());
      for (const core::LinkConfig& cfg : job.configs) {
        values.push_back(job.axis == sim::SurrogateAxis::kSnrDb
                             ? cfg.snr_db.value_or(0.0)
                             : cfg.rx_power_dbm);
      }
    } else {
      return error_response("unknown op \"" + name + "\"").dump();
    }

    const JobResult result = await_job(scheduler_.submit(std::move(job)));
    return results_response(values, result.results, result.stats).dump();
  } catch (const PreemptedError& e) {
    return error_response(e.what(), /*resumable=*/true).dump();
  } catch (const std::exception& e) {
    return error_response(e.what()).dump();
  }
}

void Server::serve_connection(Connection* conn) {
  const int fd = conn->fd;
  std::string buffer;
  std::size_t scanned = 0;  // prefix of `buffer` known to hold no '\n'
  char chunk[4096];
  for (;;) {
    const std::size_t nl = buffer.find('\n', scanned);
    if ((nl == std::string::npos ? buffer.size() : nl) > kMaxRequestBytes) {
      const Json err = error_response("request line exceeds " +
                                      std::to_string(kMaxRequestBytes) +
                                      " bytes");
      send_all(fd, err.dump() + "\n");
      break;
    }
    if (nl != std::string::npos) {
      std::string line = buffer.substr(0, nl);
      buffer.erase(0, nl + 1);
      scanned = 0;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      const std::string response = handle_line(line) + "\n";
      if (!send_all(fd, response)) break;
      continue;
    }
    scanned = buffer.size();
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) break;  // client closed (or shutdown() during stop)
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
  // The peer sees EOF now; the fd itself stays open until the owner joins
  // this thread: closing here would let the kernel recycle the descriptor
  // number while teardown still shutdown()s it.
  ::shutdown(fd, SHUT_RDWR);
  conn->done.store(true);
}

}  // namespace wlansim::service
