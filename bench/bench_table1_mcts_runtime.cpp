// Table I: wall-clock runtime of the pure-MCTS scheduler as a function of
// graph size and budget (paper: sizes {50, 100} x budgets {500, 1000} on a
// 24-core GCP VM; runtime grows with both size and budget).
//
// Absolute numbers differ from the paper's VM; the shape to reproduce is
// the monotone growth along both axes.
//
// Default: the paper's own grid — pure MCTS in C++ is fast enough that no
// scaled-down variant is needed.  --threads 1 (default) runs the serial
// search, --threads N > 1 the leaf-parallel search (DESIGN.md §6); besides
// the runtime, every cell reports the search telemetry (per-decision wall
// time, iterations, rollouts, iterations/sec).

#include <cstdio>
#include <vector>

#include "common/flags.h"
#include "common/table.h"
#include "support.h"

int main(int argc, char** argv) {
  using namespace spear;
  using namespace spear::bench;

  Flags flags;
  const auto jobs = flags.define_int("jobs", 3, "DAGs per cell (averaged)");
  const auto seed = flags.define_int("seed", 9, "workload seed");
  const auto threads =
      flags.define_int("threads", 1,
                       "search threads: > 1 selects leaf mode, which runs "
                       "on one thread");
  const auto tree_reuse = flags.define_bool(
      "tree-reuse", true,
      "leaf mode: reuse the chosen subtree across decisions "
      "(--no-tree-reuse disables)");
  const auto csv_path =
      flags.define_string("csv", "table1_mcts_runtime.csv", "CSV output");
  ObsFlags obs_flags(flags);
  flags.parse(argc, argv);
  obs_flags.install();

  // The pure-MCTS search is fast enough in C++ that the paper's own grid
  // is the default — no scaled-down variant needed.
  const std::vector<std::size_t> sizes = {50, 100};
  const std::vector<std::int64_t> budgets = {500, 1000};

  const ResourceVector capacity{1.0, 1.0};

  std::vector<std::string> headers = {"graph size \\ budget"};
  for (const auto b : budgets) headers.push_back(std::to_string(b));
  Table table(headers);
  table.set_precision(3);
  Table telemetry({"graph size", "budget", "s/job", "s/decision",
                   "iterations", "rollouts", "iters/sec"});
  telemetry.set_precision(4);
  CsvWriter csv(*csv_path);
  csv.write("graph_size", "budget", "seconds", "sec_per_decision",
            "iterations", "rollouts", "iters_per_sec");

  for (const std::size_t size : sizes) {
    const auto dags = simulation_workload(
        static_cast<std::size_t>(*jobs), size,
        static_cast<std::uint64_t>(*seed) + size);
    std::vector<std::string> row = {std::to_string(size)};
    for (const std::int64_t budget : budgets) {
      double total = 0.0;
      double search_seconds = 0.0;
      std::int64_t decisions = 0, iterations = 0, rollouts = 0;
      for (const auto& dag : dags) {
        MctsOptions options;
        options.initial_budget = budget;
        options.min_budget = 5;
        options.num_threads = static_cast<int>(*threads);
        options.leaf_tree_reuse = *tree_reuse;
        MctsScheduler mcts(options);
        total += timed_makespan(mcts, dag, capacity).seconds;
        const auto& stats = mcts.last_stats();
        search_seconds += stats.search_seconds;
        decisions += stats.decisions;
        iterations += stats.iterations;
        rollouts += stats.rollouts;
      }
      const auto n = static_cast<double>(dags.size());
      const double avg = total / n;
      const double sec_per_decision =
          decisions > 0 ? search_seconds / static_cast<double>(decisions)
                        : 0.0;
      const double iters_per_sec =
          search_seconds > 0.0
              ? static_cast<double>(iterations) / search_seconds
              : 0.0;
      char cell[32];
      std::snprintf(cell, sizeof(cell), "%.3f", avg);
      row.push_back(cell);
      csv.write(static_cast<long long>(size), static_cast<long long>(budget),
                avg, sec_per_decision,
                static_cast<long long>(iterations),
                static_cast<long long>(rollouts), iters_per_sec);
      telemetry.add(static_cast<long long>(size),
                    static_cast<long long>(budget), avg, sec_per_decision,
                    static_cast<long long>(iterations),
                    static_cast<long long>(rollouts), iters_per_sec);
      std::printf("size %zu budget %lld done (%.3f s/job)\n", size,
                  static_cast<long long>(budget), avg);
    }
    table.add_row(row);
  }

  std::printf("\nMCTS scheduling runtime in seconds per job (Table I — must "
              "grow with graph size and with budget; threads=%lld):\n",
              static_cast<long long>(*threads));
  table.print();
  std::printf("\nSearch telemetry (totals over %lld jobs per cell):\n",
              static_cast<long long>(*jobs));
  telemetry.print();

  if (obs_flags.enabled()) {
    obs::RunReport report("bench_table1");
    report.set("jobs_per_cell", *jobs);
    report.set("threads", *threads);
    report.set("seed", *seed);
    obs_flags.finish(report);
  }
  return 0;
}
