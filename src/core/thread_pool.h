// Persistent worker pool with chunked dynamic scheduling.
//
// Multi-packet measurements used to spawn and join a fresh set of
// std::threads per call — per sweep point, that is thread creation plus a
// full per-worker WlanLink construction on every point. The pool keeps its
// workers (and whatever per-worker state the caller caches) alive across
// calls, so a 20-point sweep pays the startup cost once.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace wlansim::core {

class ThreadPool {
 public:
  /// `threads` = total workers participating in parallel_for, including the
  /// calling thread (0 = hardware concurrency). A pool of size 1 runs
  /// everything inline on the caller.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return size_; }

  /// Invoke `fn(worker, index)` for every index in [0, n). Indices are
  /// claimed in contiguous chunks of `chunk` by whichever worker is free
  /// (dynamic scheduling); `worker` is a stable id in [0, size()), with the
  /// calling thread participating as worker 0. Blocks until all indices are
  /// done and returns true. Not reentrant — one parallel_for at a time per
  /// pool. After shutdown() the call is rejected: returns false with NO
  /// index invoked (callers owning result buffers must check).
  ///
  /// Exceptions: if `fn` throws on any worker, the pool stops handing out
  /// indices, waits until every worker has left `fn`, resets the job and
  /// rethrows the first exception on the calling thread. Other workers
  /// finish the chunk they are in; unclaimed indices never run. The pool
  /// stays usable for the next parallel_for.
  bool parallel_for(std::size_t n, std::size_t chunk,
                    const std::function<void(std::size_t, std::size_t)>& fn);

  /// Graceful drain: waits for an in-flight parallel_for to finish its full
  /// index range (nothing is interrupted mid-chunk), rejects any submit
  /// that arrives after this call, then joins the worker threads. Safe to
  /// call while another thread is inside parallel_for, and idempotent —
  /// late/duplicate calls return once the pool is quiescent. The daemon's
  /// SIGTERM path: stop accepting jobs, shutdown() the pool, exit.
  void shutdown();

  /// True once shutdown() has been requested (submits are being rejected).
  bool is_shutdown() const;

  /// Process-wide pool at hardware concurrency, created on first use.
  static ThreadPool& shared();

 private:
  void worker_loop(std::size_t worker);
  void drain(std::size_t worker);

  std::size_t size_;
  std::vector<std::thread> workers_;

  mutable std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  const std::function<void(std::size_t, std::size_t)>* fn_ = nullptr;
  std::size_t n_ = 0;
  std::size_t chunk_ = 1;
  std::size_t next_ = 0;        ///< next unclaimed index (guarded by mu_)
  std::size_t generation_ = 0;  ///< bumped per parallel_for
  std::size_t active_ = 0;      ///< helpers still inside the current job
  bool in_flight_ = false;      ///< a parallel_for is between entry and exit
  std::exception_ptr error_;    ///< first exception thrown by the current job
  bool draining_ = false;       ///< shutdown requested; reject new submits
  bool stop_ = false;
};

}  // namespace wlansim::core
