#include "core/thread_pool.h"

#include <algorithm>
#include <exception>

namespace wlansim::core {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0)
    threads = std::max(1u, std::thread::hardware_concurrency());
  size_ = threads;
  workers_.reserve(size_ > 0 ? size_ - 1 : 0);
  // Worker 0 is the calling thread; spawn the rest.
  for (std::size_t w = 1; w < size_; ++w)
    workers_.emplace_back([this, w] { worker_loop(w); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (auto& t : workers_)
    if (t.joinable()) t.join();
}

void ThreadPool::drain(std::size_t worker) {
  for (;;) {
    std::size_t begin, end;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (next_ >= n_) return;
      begin = next_;
      end = std::min(n_, begin + chunk_);
      next_ = end;
    }
    try {
      for (std::size_t i = begin; i < end; ++i) (*fn_)(worker, i);
    } catch (...) {
      // Fail the job: keep the first error and hand out no more indices.
      // Workers already inside `fn` finish their chunk; the caller waits
      // for them before it rethrows.
      std::lock_guard<std::mutex> lock(mu_);
      if (!error_) error_ = std::current_exception();
      next_ = n_;
      return;
    }
  }
}

void ThreadPool::worker_loop(std::size_t worker) {
  std::size_t seen_generation = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_start_.wait(lock, [&] {
        return stop_ || (fn_ != nullptr && generation_ != seen_generation);
      });
      if (stop_) return;
      seen_generation = generation_;
      ++active_;
    }
    drain(worker);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_;
    }
    // notify_all: both the submitting caller (waiting on active_ == 0) and a
    // shutdown() drainer (waiting on in_flight_ == false) sleep on cv_done_.
    cv_done_.notify_all();
  }
}

bool ThreadPool::parallel_for(
    std::size_t n, std::size_t chunk,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (chunk == 0) chunk = 1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_) return false;
    if (n == 0) return true;
    in_flight_ = true;
    if (size_ > 1) {
      fn_ = &fn;
      n_ = n;
      chunk_ = chunk;
      next_ = 0;
      ++generation_;
    }
  }
  std::exception_ptr error;
  if (size_ <= 1) {
    // Inline pool: still an in-flight job — shutdown() waits for it.
    try {
      for (std::size_t i = 0; i < n; ++i) fn(0, i);
    } catch (...) {
      error = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      in_flight_ = false;
    }
  } else {
    cv_start_.notify_all();
    drain(/*worker=*/0);  // the caller works too
    std::unique_lock<std::mutex> lock(mu_);
    cv_done_.wait(lock, [&] { return active_ == 0; });
    fn_ = nullptr;
    in_flight_ = false;
    std::swap(error, error_);
  }
  cv_done_.notify_all();
  if (error) std::rethrow_exception(error);
  return true;
}

void ThreadPool::shutdown() {
  std::unique_lock<std::mutex> lock(mu_);
  draining_ = true;
  // Let an in-flight parallel_for run its full index range to completion —
  // nothing is torn down mid-wave.
  cv_done_.wait(lock, [&] { return !in_flight_; });
  if (stop_) return;  // an earlier shutdown() already joined the workers
  stop_ = true;
  lock.unlock();
  cv_start_.notify_all();
  for (auto& t : workers_)
    if (t.joinable()) t.join();
}

bool ThreadPool::is_shutdown() const {
  std::lock_guard<std::mutex> lock(mu_);
  return draining_;
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool* pool = new ThreadPool();  // immortal
  return *pool;
}

}  // namespace wlansim::core
