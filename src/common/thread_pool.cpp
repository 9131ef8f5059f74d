#include "common/thread_pool.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/obs.h"

namespace spear {

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    throw std::invalid_argument("ThreadPool: need at least one worker");
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;  // already shut down (or shutting down)
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  std::future<void> future = packaged.get_future();
  std::size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      throw std::runtime_error("ThreadPool: submit after shutdown");
    }
    queue_.push_back(std::move(packaged));
    depth = queue_.size();
  }
  cv_.notify_one();
  if (obs::enabled()) {
    obs::count("pool.tasks_submitted");
    obs::gauge("pool.queue_depth", static_cast<double>(depth));
  }
  return future;
}

std::size_t ThreadPool::hardware_threads() {
  return std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
}

void ThreadPool::worker_loop(std::size_t worker_index) {
  while (true) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    if (obs::enabled()) {
      if (auto* tw = obs::trace()) {
        // The writer dedups per (writer, thread), so this is one metadata
        // event per worker per trace file, not one per task.
        tw->thread_name("pool-worker-" + std::to_string(worker_index));
      }
      // Metrics-only span: task runtime feeds the pool.task.ms histogram
      // (worker utilization); trace tracks come from whatever spans the
      // task itself opens.
      obs::ScopedTimer run_span("pool.task", "pool", /*with_trace=*/false);
      task();  // exceptions land in the task's future
      continue;
    }
    task();  // exceptions land in the task's future
  }
}

}  // namespace spear
