// MetricsRegistry: named counters, gauges and fixed-bucket histograms for
// the observability layer (DESIGN.md §8).
//
// The registry is mutex-sharded: a metric name hashes to one of a fixed set
// of shards, each with its own lock and maps, so concurrent writers (e.g.
// scheduling-service workers) rarely contend.  Snapshots merge the shards
// into name-sorted maps and serialize to JSON or CSV.
//
// Instrumentation sites never talk to a registry directly — they go through
// the global sink in obs/obs.h, which is disabled by default (one relaxed
// atomic load + branch on the hot path; see the overhead contract there).

#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace spear::obs {

/// Frozen state of one histogram.  `bounds` are inclusive upper bounds of
/// the first bounds.size() buckets; counts has one extra trailing bucket
/// for values above the last bound.
struct HistogramSnapshot {
  std::vector<double> bounds;
  std::vector<std::int64_t> counts;  // bounds.size() + 1 entries
  std::int64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;

  double mean() const {
    return count > 0 ? sum / static_cast<double>(count) : 0.0;
  }
};

/// Point-in-time copy of every metric, name-sorted for stable output.
struct MetricsSnapshot {
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  /// One JSON object: {"counters":{...},"gauges":{...},"histograms":{...}}.
  std::string to_json() const;
  /// Flat CSV: kind,name,field,value — one row per scalar.
  std::string to_csv() const;
};

class MetricsRegistry {
 public:
  /// `shards` bounds writer contention; 8 covers any realistic worker count.
  explicit MetricsRegistry(std::size_t shards = 8);

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Adds `delta` to the named counter (created at 0 on first use).
  void add(const std::string& name, std::int64_t delta = 1);

  /// Sets the named gauge to `value`.
  void set(const std::string& name, double value);

  /// Records `value` into the named histogram.  The bucket bounds are fixed
  /// on the histogram's first observation: the explicit `bounds` if given,
  /// otherwise default_time_bounds_ms().  Later `bounds` are ignored.
  void observe(const std::string& name, double value,
               const std::vector<double>& bounds = {});

  /// Merged copy of every shard.
  MetricsSnapshot snapshot() const;

  /// Drops every metric (for tests and fresh runs).
  void clear();

  /// Default histogram bounds: exponential 0.001..~16k, tuned for
  /// durations in milliseconds.
  static const std::vector<double>& default_time_bounds_ms();

 private:
  struct Histogram {
    std::vector<double> bounds;
    std::vector<std::int64_t> counts;
    std::int64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
  };
  struct Shard {
    mutable std::mutex mutex;
    std::map<std::string, std::int64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, Histogram> histograms;
  };

  Shard& shard_for(const std::string& name);

  std::deque<Shard> shards_;  // deque: Shard is immovable (owns a mutex)
};

}  // namespace spear::obs
