// A small reusable fixed-size thread pool.
//
// Workers are started once and reused across many batches of tasks, so the
// per-batch cost is a queue push + condition-variable wake rather than a
// thread spawn.  Leaf-parallel MCTS runs one parallel_for per evaluator
// tick; the scheduling service and benches share the same primitive.
//
//   ThreadPool pool(3);
//   auto f = pool.submit([] { heavy_work(); });
//   f.get();                                   // rethrows task exceptions
//   pool.parallel_for(4, [&](std::size_t i) { shard(i); });  // blocking
//
// parallel_for runs shard 0 on the CALLING thread and queues only shards
// 1..n-1, so n-way work needs a pool of n - 1 threads (the search's pool
// has one thread fewer than it has workers) and the caller works instead
// of sleeping on futures.  Exceptions thrown by a task are captured in the
// corresponding future; parallel_for waits for ALL shards to finish before
// rethrowing the first exception (in shard order), so captured references
// never dangle.

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
  /// the first call submit()/parallel_for() throw std::runtime_error rather
  /// than deadlocking on a dead queue.
  void shutdown();

  /// Enqueues `task`; the future completes when it has run (or rethrows
  /// what it threw).
  std::future<void> submit(std::function<void()> task);

  /// Runs body(0) on the calling thread and body(1) .. body(n-1) on the
  /// pool, and blocks until every call has finished.  The first exception
  /// (lowest index) is rethrown after the barrier.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

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
