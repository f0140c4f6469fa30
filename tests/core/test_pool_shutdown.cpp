// ThreadPool graceful shutdown: in-flight work drains to completion,
// post-shutdown submits are rejected without invoking anything, and the
// call is idempotent / safe from a concurrent thread. A job that throws
// fails closed: the caller gets the exception and the pool stays usable.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "core/thread_pool.h"

namespace wlansim::core {
namespace {

TEST(PoolShutdown, IdleShutdownRejectsLaterSubmits) {
  ThreadPool pool(4);
  EXPECT_FALSE(pool.is_shutdown());
  pool.shutdown();
  EXPECT_TRUE(pool.is_shutdown());

  std::atomic<int> invoked{0};
  const bool ran =
      pool.parallel_for(64, 4, [&](std::size_t, std::size_t) { ++invoked; });
  EXPECT_FALSE(ran);
  EXPECT_EQ(invoked.load(), 0);
}

TEST(PoolShutdown, ShutdownWhileBusyDrainsTheFullRange) {
  ThreadPool pool(4);
  constexpr std::size_t kItems = 200;
  std::atomic<std::size_t> done{0};
  std::atomic<bool> started{false};

  std::thread submitter([&] {
    const bool ran = pool.parallel_for(kItems, 1, [&](std::size_t,
                                                      std::size_t) {
      started.store(true);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      ++done;
    });
    EXPECT_TRUE(ran);
  });

  while (!started.load()) std::this_thread::yield();
  pool.shutdown();  // must wait for the in-flight range, not interrupt it

  // After shutdown() returns, every index has run exactly once.
  EXPECT_EQ(done.load(), kItems);
  submitter.join();

  std::atomic<int> late{0};
  EXPECT_FALSE(
      pool.parallel_for(8, 1, [&](std::size_t, std::size_t) { ++late; }));
  EXPECT_EQ(late.load(), 0);
}

TEST(PoolShutdown, IdempotentAndConcurrent) {
  ThreadPool pool(2);
  std::thread a([&] { pool.shutdown(); });
  std::thread b([&] { pool.shutdown(); });
  a.join();
  b.join();
  pool.shutdown();  // third call on a quiescent pool: no-op
  EXPECT_TRUE(pool.is_shutdown());
}

TEST(PoolShutdown, InlinePoolDrainsToo) {
  ThreadPool pool(1);  // size-1 pool runs inline on the caller
  std::atomic<int> n{0};
  EXPECT_TRUE(pool.parallel_for(5, 1, [&](std::size_t, std::size_t) { ++n; }));
  EXPECT_EQ(n.load(), 5);
  pool.shutdown();
  EXPECT_FALSE(pool.parallel_for(5, 1, [&](std::size_t, std::size_t) { ++n; }));
  EXPECT_EQ(n.load(), 5);
}

// --- Exceptions: a throwing job fails closed --------------------------------

/// Spin until `flag` is set or a generous deadline passes.
void wait_for(const std::atomic<bool>& flag) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!flag.load() && std::chrono::steady_clock::now() < deadline)
    std::this_thread::yield();
}

TEST(PoolExceptions, ThrowOnSpawnedWorkerStopsTheJobAndReachesTheCaller) {
  ThreadPool pool(4);
  constexpr std::size_t kItems = 100000;
  std::atomic<bool> thrown{false};
  std::atomic<std::size_t> calls{0};
  const auto job = [&](std::size_t worker, std::size_t) {
    ++calls;
    if (worker != 0) {
      thrown.store(true);
      throw std::runtime_error("spawned worker failed");
    }
    // The caller keeps working (slowly) until the failure stops the job;
    // run to the end, it would take several seconds.
    wait_for(thrown);
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  };
  EXPECT_THROW(pool.parallel_for(kItems, 1, job), std::runtime_error);
  EXPECT_LT(calls.load(), kItems / 2);

  std::atomic<std::size_t> ran{0};
  EXPECT_TRUE(pool.parallel_for(100, 3, [&](std::size_t, std::size_t) {
    ++ran;
  }));
  EXPECT_EQ(ran.load(), 100u);
}

TEST(PoolExceptions, ThrowOnCallerWaitsForWorkersBeforeRethrowing) {
  ThreadPool pool(4);
  std::atomic<bool> worker_inside{false};
  std::atomic<int> inside{0};
  const auto job = [&](std::size_t worker, std::size_t) {
    if (worker == 0) {
      wait_for(worker_inside);
      throw std::logic_error("caller failed");
    }
    ++inside;
    worker_inside.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    --inside;
  };
  try {
    pool.parallel_for(64, 1, job);
    ADD_FAILURE() << "parallel_for returned normally";
  } catch (const std::logic_error&) {
    // Every worker has left `job`: it may now go out of scope.
    EXPECT_EQ(inside.load(), 0);
  }
  pool.shutdown();  // the failed job is no longer in flight
  EXPECT_TRUE(pool.is_shutdown());
}

TEST(PoolExceptions, InlinePoolRethrowsAndLeavesNothingInFlight) {
  ThreadPool pool(1);
  int calls = 0;
  EXPECT_THROW(pool.parallel_for(10, 1,
                                 [&](std::size_t, std::size_t i) {
                                   ++calls;
                                   if (i == 3) throw std::runtime_error("x");
                                 }),
               std::runtime_error);
  EXPECT_EQ(calls, 4);
  pool.shutdown();  // waits for in-flight jobs: hangs if the failed one stayed
  EXPECT_TRUE(pool.is_shutdown());
}

}  // namespace
}  // namespace wlansim::core
