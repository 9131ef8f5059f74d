// A small reusable fixed-size thread pool.
//
// Workers are started once and reused across many tasks, so the per-task
// cost is a queue push + condition-variable wake rather than a thread
// spawn.  The scheduling service runs its worker loops on one; the search
// runs on its caller's thread, in leaf mode too, and uses none.
//
//   ThreadPool pool(3);
//   auto f = pool.submit([] { heavy_work(); });
//   f.get();                                   // rethrows task exceptions
//
// Exceptions thrown by a task are captured in the corresponding future.

#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace spear {

class ThreadPool {
 public:
  /// Starts `num_threads` workers (at least 1).
  explicit ThreadPool(std::size_t num_threads);

  /// Calls shutdown().
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Executes all pending tasks, then joins the workers.  Idempotent; after
  /// the first call submit() throws std::runtime_error rather
  /// than deadlocking on a dead queue.
  void shutdown();

  /// Enqueues `task`; the future completes when it has run (or rethrows
  /// what it threw).
  std::future<void> submit(std::function<void()> task);

  /// std::thread::hardware_concurrency with a floor of 1.
  static std::size_t hardware_threads();

 private:
  void worker_loop(std::size_t worker_index);

  std::vector<std::thread> workers_;
  std::deque<std::packaged_task<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace spear
