// Unix-domain socket front of the wlansim service.
//
// Accepts connections on a stream socket and speaks the newline-delimited
// JSON protocol (service/protocol.h): each request line produces exactly
// one response line, and a line longer than kMaxRequestBytes gets one
// error line before its connection is closed. Every connection gets its
// own thread; a thread blocks on its Scheduler job's future while the job
// runs, which is exactly the mechanism that lets concurrent requests pile
// up in the scheduler queue and coalesce into pooled passes. The accept
// loop polls with a short timeout so a stop flag (SIGTERM in the daemon)
// is honored promptly; shutdown preempts in-flight cold passes at the next
// wave boundary (checkpointing them), drains the thread pool gracefully,
// and unlinks the socket.
#pragma once

#include <atomic>
#include <cstddef>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/protocol.h"
#include "service/scheduler.h"

namespace wlansim::service {

/// Longest request line the server reads, newline excluded. A pending line
/// past it is answered with an error and its connection closed, so a client
/// that never sends '\n' cannot grow the daemon's memory. Apart from the
/// tests of this limit, the largest request the repository sends is an
/// 8-link eval of about 2 KB.
inline constexpr std::size_t kMaxRequestBytes = std::size_t{1} << 20;

/// Connect to a Unix-domain stream socket, retrying ECONNREFUSED/ENOENT
/// with a short backoff until `timeout_ms` elapses — the daemon-startup
/// race (socket file not yet bound) becomes a wait instead of a failure.
/// Returns the connected fd, or -1 when the timeout expires.
int connect_unix_retry(const std::filesystem::path& path, int timeout_ms);

class Server {
 public:
  struct Options {
    /// Socket path; must fit a sockaddr_un (~100 bytes). An existing file
    /// at the path is unlinked before binding — the daemon owns its path.
    std::filesystem::path socket_path;
    Scheduler::Options scheduler;
  };

  /// Binds and listens (throws std::runtime_error on socket errors);
  /// serving starts with run().
  explicit Server(Options opts);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Accept-and-serve loop. Returns after request_stop() is called, an
  /// "op":"shutdown" request arrives, or `external_stop` (polled ~5x/s,
  /// e.g. a signal handler's flag) becomes true — at which point all
  /// connections are shut down, their threads joined, and the scheduler
  /// stopped (preempting + checkpointing any in-flight cold pass).
  void run(const std::atomic<bool>* external_stop = nullptr);

  /// Ask a running run() to wind down (safe from any thread).
  void request_stop();

  const std::filesystem::path& socket_path() const {
    return opts_.socket_path;
  }
  Scheduler& scheduler() { return scheduler_; }

  /// One request line -> one response line (exposed for protocol-level
  /// tests; run() uses it per connection).
  std::string handle_line(const std::string& line);

 private:
  struct Connection {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void serve_connection(Connection* conn);
  /// Join and close connections whose threads have finished (the fd is
  /// closed only here and at teardown, so a descriptor is never recycled
  /// while another thread still holds its number).
  void reap_finished();
  void teardown_connections();

  Options opts_;
  Scheduler scheduler_;
  int listen_fd_ = -1;
  std::atomic<bool> stop_{false};
  std::mutex conn_mu_;
  std::vector<std::unique_ptr<Connection>> connections_;
};

}  // namespace wlansim::service
