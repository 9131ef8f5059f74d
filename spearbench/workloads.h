// The benchmark's workloads.  Each one builds its inputs from the seed, sets
// itself up several times (the median is setup_s), measures about the given
// number of seconds of work, and checks every output it produced.
//
//   offline_serial  make_spear_scheduler, serial search, 50-task DAG suite
//   offline_leaf    the same suite, leaf-parallel search on half the CPUs
//                   (at most 4 threads)
//   serve_poisson   in-process SchedulerService under open-loop Poisson load
//                   at a fixed absolute rate
//   online_repair   synthetic MapReduce trace replayed through
//                   ExecutionEngine with the repair ladder and speculation
//
// Untraced runs (trace = false) report the end-to-end metrics.  Traced runs
// process a fixed job set twice, untraced then traced, check that the two
// agree, and report the per-layer metrics plus trace_overhead.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace spearbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// The checkout root: bench_policy.txt is read from here.
  std::string root = ".";
  /// Where a traced run writes its spans (empty = not written).
  std::string trace_dir;
};

struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// Correctness failures (invalid schedules, lost requests, traced run
  /// disagreeing with the untraced one); any entry fails the run.
  std::vector<std::string> errors;
  std::vector<Metric> metrics;
  /// Free-form facts printed with the run record (sample counts, the tail
  /// percentile used, rates).
  std::vector<std::string> notes;
};

/// The workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string>& workload_names();

/// (name, unit) of every metric an untraced / a traced run reports, in
/// report order.  Every workload reports all of them; a layer a workload
/// does not exercise reports 0.
using MetricSpec = std::pair<std::string, std::string>;
const std::vector<MetricSpec>& end_to_end_metrics();
const std::vector<MetricSpec>& layer_metrics();

/// Runs one workload.  Throws std::invalid_argument for an unknown name and
/// std::runtime_error when the inputs cannot be built (e.g. a policy file of
/// the wrong shape).
Outcome run_workload(const RunOptions& options);

}  // namespace spearbench
