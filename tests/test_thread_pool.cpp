#include "common/thread_pool.h"

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace spear {
namespace {

TEST(ThreadPool, RejectsZeroWorkers) {
  EXPECT_THROW(ThreadPool{0}, std::invalid_argument);
}

TEST(ThreadPool, HardwareThreadsAtLeastOne) {
  EXPECT_GE(ThreadPool::hardware_threads(), 1u);
}

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPool, FutureCompletesAfterTaskRan) {
  ThreadPool pool(2);
  std::atomic<bool> ran{false};
  auto future = pool.submit([&ran] { ran = true; });
  future.get();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(hits.size(), [&hits](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SubmitPropagatesExceptionsThroughFuture) {
  ThreadPool pool(2);
  auto future = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
  // The worker survives the exception and keeps serving tasks.
  std::atomic<bool> ran{false};
  pool.submit([&ran] { ran = true; }).get();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPool, ParallelForRethrowsAfterAllShardsFinish) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  EXPECT_THROW(
      pool.parallel_for(16,
                        [&completed](std::size_t i) {
                          if (i == 5) throw std::runtime_error("shard 5");
                          ++completed;
                        }),
      std::runtime_error);
  // Every non-throwing shard ran to completion before the rethrow.
  EXPECT_EQ(completed.load(), 15);
}

TEST(ThreadPool, ParallelForRunsIndexZeroOnTheCaller) {
  ThreadPool pool(2);
  std::vector<std::thread::id> ran_on(3);
  pool.parallel_for(ran_on.size(), [&ran_on](std::size_t i) {
    ran_on[i] = std::this_thread::get_id();
  });
  EXPECT_EQ(ran_on[0], std::this_thread::get_id());
  EXPECT_NE(ran_on[1], std::this_thread::get_id());
  EXPECT_NE(ran_on[2], std::this_thread::get_id());
}

TEST(ThreadPool, ParallelForWaitsForPoolShardsWhenIndexZeroThrows) {
  ThreadPool pool(3);
  std::atomic<int> completed{0};
  try {
    pool.parallel_for(6, [&completed](std::size_t i) {
      // Index 0 (the caller's shard) throws at once, while the pool shards
      // are still running; shard 4 throws later with another type.
      if (i == 0) throw std::runtime_error("shard 0");
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      if (i == 4) throw std::logic_error("shard 4");
      ++completed;
    });
    ADD_FAILURE() << "parallel_for did not rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "shard 0");
  }
  // Every non-throwing pool shard finished before the rethrow.
  EXPECT_EQ(completed.load(), 4);
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int batch = 0; batch < 5; ++batch) {
    pool.parallel_for(10, [&counter](std::size_t) { ++counter; });
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, SingleWorkerStillWorks) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::atomic<int> counter{0};
  pool.parallel_for(7, [&counter](std::size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 7);
}

TEST(ThreadPool, ShutdownExecutesPendingTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 32; ++i) {
    pool.submit([&counter] { ++counter; });
  }
  pool.shutdown();
  EXPECT_EQ(counter.load(), 32);
}

TEST(ThreadPool, SubmitAfterShutdownThrows) {
  ThreadPool pool(2);
  pool.shutdown();
  EXPECT_THROW(pool.submit([] {}), std::runtime_error);
}

TEST(ThreadPool, ParallelForAfterShutdownThrows) {
  ThreadPool pool(2);
  pool.shutdown();
  // Every shard count must throw, including the inline n <= 1 fast paths.
  EXPECT_THROW(pool.parallel_for(0, [](std::size_t) {}), std::runtime_error);
  EXPECT_THROW(pool.parallel_for(1, [](std::size_t) {}), std::runtime_error);
  EXPECT_THROW(pool.parallel_for(8, [](std::size_t) {}), std::runtime_error);
}

TEST(ThreadPool, ShutdownIsIdempotent) {
  ThreadPool pool(3);
  pool.shutdown();
  pool.shutdown();  // second call must be a harmless no-op
  EXPECT_THROW(pool.submit([] {}), std::runtime_error);
}

}  // namespace
}  // namespace spear
