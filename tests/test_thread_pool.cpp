#include "common/thread_pool.h"

#include <atomic>
#include <stdexcept>
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

TEST(ThreadPool, SubmitPropagatesExceptionsThroughFuture) {
  ThreadPool pool(2);
  auto future = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
  // The worker survives the exception and keeps serving tasks.
  std::atomic<bool> ran{false};
  pool.submit([&ran] { ran = true; }).get();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int batch = 0; batch < 5; ++batch) {
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 10; ++i) {
      futures.push_back(pool.submit([&counter] { ++counter; }));
    }
    for (auto& f : futures) f.get();
    EXPECT_EQ(counter.load(), 10 * (batch + 1));
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, SingleWorkerStillWorks) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 7; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
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

TEST(ThreadPool, ShutdownIsIdempotent) {
  ThreadPool pool(3);
  pool.shutdown();
  pool.shutdown();  // second call must be a harmless no-op
  EXPECT_THROW(pool.submit([] {}), std::runtime_error);
}

}  // namespace
}  // namespace spear
