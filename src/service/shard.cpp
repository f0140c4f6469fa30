#include "service/shard.h"

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "service/checkpoint.h"

namespace wlansim::service {

namespace {

bool send_all(int fd, std::string_view data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool send_line(int fd, const Json& j) { return send_all(fd, j.dump() + "\n"); }

/// Has the peer closed (or errored) its end? One-byte peek without
/// consuming: EAGAIN means "alive, nothing to read", 0 means EOF.
bool peer_gone(int fd) {
  char b;
  const ssize_t n = ::recv(fd, &b, 1, MSG_DONTWAIT | MSG_PEEK);
  if (n > 0) return false;
  if (n == 0) return true;
  return !(errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR);
}

std::filesystem::path resolve_worker_binary(
    const std::filesystem::path& hint) {
  if (!hint.empty()) return hint;
  if (const char* env = std::getenv("WLANSIM_DAEMON_BIN")) {
    if (*env != '\0') return env;
  }
  std::error_code ec;
  const std::filesystem::path self =
      std::filesystem::read_symlink("/proc/self/exe", ec);
  if (ec) return {};
  if (self.filename() == "wlansim_daemon") return self;
  // A sibling (installed layouts) or ../tools/ (test and bench binaries in
  // the build tree) — whichever exists.
  const std::filesystem::path sibling = self.parent_path() / "wlansim_daemon";
  if (std::filesystem::exists(sibling, ec)) return sibling;
  const std::filesystem::path tools =
      self.parent_path().parent_path() / "tools" / "wlansim_daemon";
  if (std::filesystem::exists(tools, ec)) return tools;
  return {};
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

std::vector<std::vector<std::size_t>> shard_partition(std::size_t n,
                                                      std::size_t shards) {
  const std::size_t s = std::min(std::max<std::size_t>(shards, 1), std::max<std::size_t>(n, 1));
  std::vector<std::vector<std::size_t>> parts(n == 0 ? 0 : s);
  for (std::size_t i = 0; i < n; ++i) parts[i % s].push_back(i);
  return parts;
}

std::vector<core::SweepPointProgress> merge_progress(
    std::span<const core::SweepPointProgress> a,
    std::span<const core::SweepPointProgress> b, std::size_t n) {
  if (!a.empty() && a.size() != n)
    throw std::invalid_argument("merge_progress: size mismatch");
  if (!b.empty() && b.size() != n)
    throw std::invalid_argument("merge_progress: size mismatch");
  std::vector<core::SweepPointProgress> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    const core::SweepPointProgress pa = a.empty() ? core::SweepPointProgress{}
                                                  : a[i];
    const core::SweepPointProgress pb = b.empty() ? core::SweepPointProgress{}
                                                  : b[i];
    out[i] = pb.packets > pa.packets ? pb : pa;
  }
  return out;
}

// --- Worker side ------------------------------------------------------------

bool serve_shard(int fd, const ShardRequest& req,
                 const ShardServeOptions& opts) {
  const std::string key = cold_pass_key(req.links, req.rule);
  const bool ckpt = !key.empty() && !opts.checkpoint_dir.empty();

  std::vector<core::SweepPointProgress> seed = req.resume;
  if (ckpt) {
    if (auto local = load_checkpoint(opts.checkpoint_dir, key,
                                     req.links.size())) {
      seed = merge_progress(seed, *local, req.links.size());
    }
  }
  std::uint64_t resumed = 0;
  for (const core::SweepPointProgress& p : seed) resumed += p.packets;

  core::SweepOptions sopts;
  sopts.threads = req.threads;
  const std::size_t report_every = std::max<std::size_t>(
      req.report_every_waves, 1);
  const std::size_t ckpt_every = std::max<std::size_t>(
      opts.checkpoint_every_waves, 1);

  core::AdaptiveResume resume;
  auto run_once = [&](std::vector<core::SweepPointProgress> start) {
    resume = core::AdaptiveResume{};
    resume.progress = std::move(start);
    std::size_t wave = 0;
    resume.on_wave = [&, wave](
                         std::span<const core::SweepPointProgress> ps) mutable {
      const bool stopping = opts.stop && opts.stop->load();
      if (stopping || peer_gone(fd)) {
        if (ckpt) save_checkpoint(opts.checkpoint_dir, key, ps);
        return false;
      }
      ++wave;
      if (wave % ckpt_every == 0 && ckpt)
        save_checkpoint(opts.checkpoint_dir, key, ps);
      if (wave % report_every == 0) {
        if (!send_line(fd, shard_progress_response(ps))) {
          if (ckpt) save_checkpoint(opts.checkpoint_dir, key, ps);
          return false;
        }
      }
      return true;
    };
    return core::sweep_ber_adaptive_resumable(req.links, req.rule, sopts,
                                              &resume);
  };

  std::vector<core::BerResult> results;
  const bool resuming = !seed.empty();
  try {
    results = run_once(std::move(seed));
  } catch (const std::invalid_argument&) {
    // Stale or incompatible resume state (e.g. saved under a different
    // cap): clean cold re-run, exactly as the single-process path does.
    // A cold run that throws would only throw again.
    if (!resuming) throw;
    resumed = 0;
    results = run_once({});
  }
  if (resume.preempted) return false;
  if (ckpt) remove_checkpoint(opts.checkpoint_dir, key);
  return send_line(fd, shard_done_response(results, resume.progress, resumed));
}

// --- Coordinator ------------------------------------------------------------

ShardCoordinator::ShardCoordinator(Options opts) : opts_(std::move(opts)) {
  if (opts_.workers > 0) {
    static std::atomic<unsigned> seq{0};
    spawn_dir_ = std::filesystem::temp_directory_path() /
                 ("wlansim-shard-" + std::to_string(::getpid()) + "-" +
                  std::to_string(seq.fetch_add(1)));
    std::filesystem::create_directories(spawn_dir_);
  }
  for (std::size_t i = 0; i < opts_.workers; ++i) {
    Worker w;
    w.socket = spawn_dir_ / ("w" + std::to_string(i) + ".sock");
    w.spawned = true;
    workers_.push_back(std::move(w));
  }
  for (const std::filesystem::path& sock : opts_.attach_sockets) {
    Worker w;
    w.socket = sock;
    w.spawned = false;
    workers_.push_back(std::move(w));
  }
}

ShardCoordinator::~ShardCoordinator() {
  for (Worker& w : workers_) {
    if (w.fd >= 0) ::close(w.fd);
    w.fd = -1;
  }
  // SIGTERM our spawned workers, give them a moment, then SIGKILL: the
  // coordinator owns their lifetime, and a worker parked between shards
  // exits promptly on SIGTERM.
  for (Worker& w : workers_) {
    if (!w.spawned || w.pid <= 0) continue;
    ::kill(w.pid, SIGTERM);
  }
  for (Worker& w : workers_) {
    if (!w.spawned || w.pid <= 0) continue;
    bool reaped = false;
    for (int i = 0; i < 100; ++i) {  // ~2 s
      if (::waitpid(w.pid, nullptr, WNOHANG) == w.pid) {
        reaped = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    if (!reaped) {
      ::kill(w.pid, SIGKILL);
      ::waitpid(w.pid, nullptr, 0);
    }
    w.pid = -1;
  }
  if (!spawn_dir_.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(spawn_dir_, ec);
  }
}

std::size_t ShardCoordinator::num_workers() const { return workers_.size(); }

std::vector<pid_t> ShardCoordinator::worker_pids() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<pid_t> pids;
  for (const Worker& w : workers_)
    if (w.spawned && w.pid > 0) pids.push_back(w.pid);
  return pids;
}

void ShardCoordinator::close_worker(Worker& w) {
  if (w.fd >= 0) ::close(w.fd);
  w.fd = -1;
  w.rx.clear();
  w.shard = -1;
}

void ShardCoordinator::respawn(Worker& w) {
  close_worker(w);
  if (!w.spawned) return;
  if (w.pid > 0) {
    // Collect the corpse (or evict a wedged survivor) before reusing the
    // socket path.
    if (::waitpid(w.pid, nullptr, WNOHANG) == 0) {
      ::kill(w.pid, SIGKILL);
      ::waitpid(w.pid, nullptr, 0);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      w.pid = -1;
      ++stats_.worker_respawns;
    }
  }
  const std::filesystem::path bin = resolve_worker_binary(opts_.worker_binary);
  if (bin.empty()) return;
  // Strings must outlive execl; build them before fork. Between fork and
  // exec only async-signal-safe calls are legal (this process has threads).
  const std::string bin_s = bin.string();
  const std::string sock_s = w.socket.string();
  const std::string ckpt_s = opts_.checkpoint_dir.string();
  const std::string every_s = std::to_string(opts_.checkpoint_every_waves);
  ::unlink(sock_s.c_str());
  const pid_t pid = ::fork();
  if (pid == 0) {
    if (ckpt_s.empty()) {
      ::execl(bin_s.c_str(), "wlansim_daemon", "--worker", "--socket",
              sock_s.c_str(), "--checkpoint-every", every_s.c_str(),
              static_cast<char*>(nullptr));
    } else {
      ::execl(bin_s.c_str(), "wlansim_daemon", "--worker", "--socket",
              sock_s.c_str(), "--checkpoint-dir", ckpt_s.c_str(),
              "--checkpoint-every", every_s.c_str(),
              static_cast<char*>(nullptr));
    }
    ::_exit(127);
  }
  if (pid > 0) {
    std::lock_guard<std::mutex> lock(mu_);
    w.pid = pid;
  }
}

bool ShardCoordinator::ensure_worker(Worker& w) {
  if (w.fd >= 0) return true;
  w.rx.clear();
  if (w.spawned) {
    const bool alive =
        w.pid > 0 && ::waitpid(w.pid, nullptr, WNOHANG) == 0;
    if (!alive) respawn(w);
    if (w.pid <= 0) return false;
    w.fd = connect_unix_retry(w.socket, /*timeout_ms=*/10000);
  } else {
    w.fd = connect_unix_retry(w.socket, /*timeout_ms=*/2000);
  }
  return w.fd >= 0;
}

bool ShardCoordinator::dispatch(Worker& w, int shard_index,
                                const ShardRequest& req) {
  if (!ensure_worker(w)) return false;
  if (!send_all(w.fd, req.to_json().dump() + "\n")) {
    close_worker(w);
    return false;
  }
  w.shard = shard_index;
  return true;
}

std::vector<core::BerResult> ShardCoordinator::run(
    std::span<const core::LinkConfig> configs, const sim::StoppingRule& rule,
    const core::SweepOptions& sweep_opts) {
  const std::size_t n = configs.size();
  if (n == 0) return {};

  // The whole-pass checkpoint uses the SAME key (and directory) as the
  // single-process run_cold_pass_checkpointed path, so a preempted
  // sharded pass resumes under any later worker count — including zero.
  const std::string key = cold_pass_key(configs, rule);
  const bool ckpt = !key.empty() && !opts_.checkpoint_dir.empty();
  std::vector<core::SweepPointProgress> latest(n);
  if (ckpt) {
    if (auto loaded = load_checkpoint(opts_.checkpoint_dir, key, n))
      latest = std::move(*loaded);
  }

  struct Task {
    std::vector<std::size_t> indices;  ///< original positions of this shard
    std::vector<core::SweepPointProgress> progress;  ///< latest view
    std::vector<core::BerResult> results;
    std::uint64_t resumed_packets = 0;
    bool done = false;
  };

  const std::vector<std::vector<std::size_t>> parts =
      shard_partition(n, std::max<std::size_t>(num_workers(), 1));
  std::vector<Task> tasks(parts.size());
  for (std::size_t s = 0; s < parts.size(); ++s) {
    tasks[s].indices = parts[s];
    tasks[s].progress.reserve(parts[s].size());
    for (const std::size_t i : parts[s]) tasks[s].progress.push_back(latest[i]);
  }

  const auto make_request = [&](const Task& t) {
    ShardRequest req;
    req.links.reserve(t.indices.size());
    for (const std::size_t i : t.indices) req.links.push_back(configs[i]);
    req.rule = rule;
    req.threads = opts_.worker_threads != 0 ? opts_.worker_threads
                                            : sweep_opts.threads;
    req.report_every_waves = std::max<std::size_t>(
        opts_.checkpoint_every_waves, 1);
    bool any = false;
    for (const core::SweepPointProgress& p : t.progress) any |= p.packets > 0;
    if (any) req.resume = t.progress;
    return req;
  };

  const auto save_merged = [&] {
    if (!ckpt) return;
    for (const Task& t : tasks)
      for (std::size_t k = 0; k < t.indices.size(); ++k)
        latest[t.indices[k]] = t.progress[k];
    save_checkpoint(opts_.checkpoint_dir, key, latest);
  };

  const auto stopping = [&] { return opts_.stop && opts_.stop->load(); };

  std::vector<int> pending;  // task indices awaiting a worker
  for (std::size_t s = 0; s < tasks.size(); ++s)
    pending.push_back(static_cast<int>(s));
  std::size_t done_count = 0;

  const auto assign_pending = [&] {
    auto it = pending.begin();
    while (it != pending.end()) {
      bool assigned = false;
      for (Worker& w : workers_) {
        if (w.shard != -1) continue;
        if (dispatch(w, *it, make_request(tasks[*it]))) {
          {
            std::lock_guard<std::mutex> lock(mu_);
            ++stats_.shards;
          }
          assigned = true;
          break;
        }
      }
      if (!assigned) break;  // no dispatchable worker right now
      it = pending.erase(it);
    }
  };

  // Run a shard in-process — the last-resort path when every worker is
  // unreachable (binary missing, all sockets dead). Same purity, same
  // results; the pass always completes.
  const auto run_local = [&](Task& t) {
    std::vector<core::LinkConfig> links;
    links.reserve(t.indices.size());
    for (const std::size_t i : t.indices) links.push_back(configs[i]);
    core::AdaptiveResume resume;
    bool any = false;
    for (const core::SweepPointProgress& p : t.progress) any |= p.packets > 0;
    if (any) resume.progress = t.progress;
    resume.on_wave = [&](std::span<const core::SweepPointProgress> ps) {
      if (!stopping()) return true;
      t.progress.assign(ps.begin(), ps.end());
      return false;
    };
    std::vector<core::BerResult> results;
    try {
      results = core::sweep_ber_adaptive_resumable(links, rule, sweep_opts,
                                                   &resume);
    } catch (const std::invalid_argument&) {
      if (!any) throw;  // a cold run that throws would only throw again
      resume = core::AdaptiveResume{};
      resume.on_wave = [&](std::span<const core::SweepPointProgress> ps) {
        if (!stopping()) return true;
        t.progress.assign(ps.begin(), ps.end());
        return false;
      };
      results = core::sweep_ber_adaptive_resumable(links, rule, sweep_opts,
                                                   &resume);
    }
    if (resume.preempted) {
      save_merged();
      throw PreemptedError("sharded cold pass preempted: checkpoint saved");
    }
    t.results = std::move(results);
    t.done = true;
    ++done_count;
  };

  // However the pass ends early (a worker's error reply, bad JSON, a
  // preemption), no worker may keep this pass's shard and connection: the
  // next pass would read its late reply into a task of its own.
  try {
    assign_pending();

    while (done_count < tasks.size()) {
      if (stopping()) {
        save_merged();
        throw PreemptedError(
            "sharded cold pass preempted: progress checkpointed");
      }

      // Nothing running and nothing dispatchable: fall back to in-process
      // execution of the remaining shards rather than spinning forever.
      const bool any_active = [&] {
        for (const Worker& w : workers_)
          if (w.shard != -1) return true;
        return false;
      }();
      if (!any_active) {
        if (pending.empty()) break;  // all done
        std::vector<int> rest;
        std::swap(rest, pending);
        for (const int t : rest) run_local(tasks[t]);
        continue;
      }

      std::vector<pollfd> pfds;
      std::vector<Worker*> polled;
      for (Worker& w : workers_) {
        if (w.shard == -1) continue;
        pfds.push_back({w.fd, POLLIN, 0});
        polled.push_back(&w);
      }
      const int rc = ::poll(pfds.data(), pfds.size(), /*timeout_ms=*/200);
      if (rc < 0 && errno != EINTR)
        throw std::runtime_error(std::string("shard poll(): ") +
                                 std::strerror(errno));

      for (std::size_t p = 0; p < pfds.size(); ++p) {
        if (!(pfds[p].revents & (POLLIN | POLLHUP | POLLERR))) continue;
        Worker& w = *polled[p];
        char chunk[4096];
        const ssize_t nr = ::recv(w.fd, chunk, sizeof(chunk), 0);
        if (nr <= 0) {
          if (nr < 0 && errno == EINTR) continue;
          // Worker lost mid-shard (SIGKILL, crash, socket teardown): its
          // last progress report seeds the reassignment — at most
          // report_every_waves quanta redone.
          const int t = w.shard;
          close_worker(w);
          if (w.spawned) respawn(w);
          if (t >= 0 && !tasks[t].done) {
            pending.push_back(t);
            std::lock_guard<std::mutex> lock(mu_);
            ++stats_.reassigned;
          }
          continue;
        }
        w.rx.append(chunk, static_cast<std::size_t>(nr));
        std::size_t nl;
        while (w.shard != -1 && (nl = w.rx.find('\n')) != std::string::npos) {
          const std::string line = w.rx.substr(0, nl);
          w.rx.erase(0, nl + 1);
          if (line.empty()) continue;
          std::string perr;
          const std::optional<Json> j = Json::parse(line, &perr);
          if (!j)
            throw std::runtime_error("shard worker sent bad JSON: " + perr);
          const ShardReply reply = shard_reply_from_json(*j);
          Task& t = tasks[w.shard];
          if (reply.progress.size() != t.indices.size() ||
              (reply.done && reply.results.size() != t.indices.size()))
            throw std::runtime_error(
                "shard worker replied for a different number of links");
          t.progress = reply.progress;
          if (reply.done) {
            t.results = reply.results;
            t.resumed_packets = reply.resumed_packets;
            t.done = true;
            ++done_count;
            w.shard = -1;
          } else {
            save_merged();
          }
        }
      }
      assign_pending();
    }
  } catch (...) {
    for (Worker& w : workers_) close_worker(w);
    throw;
  }

  std::vector<core::BerResult> out(n);
  for (const Task& t : tasks)
    for (std::size_t k = 0; k < t.indices.size(); ++k)
      out[t.indices[k]] = t.results[k];
  if (ckpt) remove_checkpoint(opts_.checkpoint_dir, key);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.passes;
    stats_.last_resumed_packets.clear();
    for (const Task& t : tasks)
      stats_.last_resumed_packets.push_back(t.resumed_packets);
  }
  return out;
}

ShardStats ShardCoordinator::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace wlansim::service
