// Measurement plumbing shared by the Spear benchmark's workloads and its
// tests: order statistics, the makespan lower bound, the open-loop due-time
// generator, in-memory span recording, and the result line.
//
// Nothing here reaches into the scheduler's internals: every layer is timed
// from outside, around calls into its public functions.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "dag/dag.h"
#include "dag/resource.h"

namespace spearbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// --- order statistics ----------------------------------------------------

/// Nearest-rank percentile (p in (0, 100]) of `xs`; 0 for an empty sample.
/// Infinite entries (refused or failed requests) sort last, as they should.
double nearest_rank(std::vector<double> xs, double p);

/// The highest percentile of {99, 95, 90, 75, 50} that leaves at least ten
/// samples above it in a sample of `n`; 0 when even the median does not
/// (fewer than 20 samples).
double tail_percentile(std::size_t n);

// --- schedule quality ----------------------------------------------------

/// A lower bound on any schedule's makespan: the larger of the critical
/// path and, per resource dimension a, sum(runtime * demand_a) / capacity_a.
double makespan_lower_bound(const spear::Dag& dag,
                            const spear::ResourceVector& capacity);

// --- open-loop load ------------------------------------------------------

/// Poisson due times (seconds from the start of the timed phase) for
/// round(rate * seconds) requests over [0, seconds), sorted, deterministic
/// per `seed`.  Made before the timed phase so the generator only waits
/// and sends.
std::vector<double> poisson_due_times(double rate, double seconds,
                                      std::uint64_t seed);

// --- metric names --------------------------------------------------------

/// True when `name` is a valid metric name: 1..64 of [A-Za-z0-9_.-],
/// starting with a letter or digit.
bool valid_metric_name(const std::string& name);

// --- spans ---------------------------------------------------------------

/// One timed call.  `parent` is the id of the span that caused it (-1 for a
/// root); spans of one request share its `request` id (-1 = none).
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::int64_t request = -1;
  std::uint32_t thread = 0;
};

/// Thread-safe in-memory span store.  Spans are written out only when the
/// benchmark ends (write_jsonl), so recording costs two clock reads and an
/// uncontended lock per call.
class SpanRecorder {
 public:
  SpanRecorder();
  /// Opens a span now; returns its id.
  std::int32_t open(const char* name, std::int32_t parent = -1,
                    std::int64_t request = -1);
  /// Records a span whose start and end were measured by the caller.
  std::int32_t add(const char* name, Clock::time_point start,
                   Clock::time_point end, std::int32_t parent = -1,
                   std::int64_t request = -1);
  void close(std::int32_t id) { close_at(id, Clock::now()); }
  void close_at(std::int32_t id, Clock::time_point end);

  /// The span new guide calls attach to when the calling thread has no open
  /// span of its own (search worker threads).
  void set_root(std::int32_t id) { root_.store(id, std::memory_order_relaxed); }
  std::int32_t root() const { return root_.load(std::memory_order_relaxed); }

  /// Snapshot (call after all recording threads are done).
  std::vector<Span> spans() const;
  void clear();

  /// Writes every span as one JSON object per line; at most `max_per_name`
  /// spans of any one name are written (the rest are still counted in
  /// memory and in the self-time figures).
  void write_jsonl(const std::string& path, std::size_t max_per_name) const;

 private:
  std::int64_t now_ns(Clock::time_point t) const;

  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::atomic<std::int32_t> root_{-1};
};

/// RAII span; a null recorder makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, std::int32_t parent = -1,
             std::int64_t request = -1)
      : recorder_(recorder),
        id_(recorder ? recorder->open(name, parent, request) : -1) {}
  ~ScopedSpan() {
    if (recorder_) recorder_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::int32_t id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  std::int32_t id_;
};

/// Per-name totals of a span set: count, summed duration, and summed self
/// time (duration minus the union of its direct children's intervals).
struct SpanTotals {
  std::int64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};
std::map<std::string, SpanTotals> span_totals(const std::vector<Span>& spans);

// --- result line ---------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The final stdout line: {"correct":..,"attempted":..,"failed":..,
/// "metrics":{name:{"value":..,"unit":..}}}.  Non-finite values are written
/// as null so the line stays valid JSON.
std::string result_json(bool correct, std::int64_t attempted,
                        std::int64_t failed,
                        const std::vector<Metric>& metrics);

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// One-line description of the machine and build, printed before the result
/// so every measurement carries its provenance.
std::string run_record_json(const std::string& workload, std::uint64_t seed,
                            int seconds, bool trace,
                            const std::string& source_id);

}  // namespace spearbench
