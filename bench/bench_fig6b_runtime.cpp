// Fig. 6(b): scheduling runtime of Spear vs Graphene on the Fig. 6(a)
// workload, reported as a CDF over jobs.  In the paper both medians sit
// around 500 s on a 2014 laptop, with Graphene showing a heavier tail
// (mean ~1000 s vs ~500 s); the claim to reproduce is the *shape*: Spear's
// runtime is comparable to Graphene's, and the RL guidance adds negligible
// overhead on top of pure MCTS.
//
// Scaled default: 6 DAGs x 40 tasks, budget 200->50; --paper = 10 x 100,
// budget 1000->100.  --threads N > 1 runs both searches leaf-parallel.

#include <cstdio>
#include <memory>
#include <vector>

#include "common/flags.h"
#include "common/table.h"
#include "sched/graphene.h"
#include "support.h"

int main(int argc, char** argv) {
  using namespace spear;
  using namespace spear::bench;

  Flags flags;
  const auto paper = flags.define_bool("paper", false, "paper-scale run");
  const auto jobs = flags.define_int("jobs", 6, "number of DAGs");
  const auto tasks = flags.define_int("tasks", 40, "tasks per DAG");
  const auto budget = flags.define_int("budget", 200, "Spear initial budget");
  const auto min_budget = flags.define_int("min-budget", 50, "Spear min budget");
  const auto seed = flags.define_int("seed", 6, "workload seed");
  const auto threads =
      flags.define_int("threads", 1, "parallel search workers");
  const auto tree_reuse = flags.define_bool(
      "tree-reuse", true,
      "leaf mode: reuse the chosen subtree across decisions "
      "(--no-tree-reuse disables)");
  const auto policy_path = flags.define_string(
      "policy", "bench_policy.txt", "policy cache file (empty = retrain)");
  const auto csv_prefix =
      flags.define_string("csv", "fig6b_runtime", "CSV output prefix");
  ObsFlags obs_flags(flags);
  flags.parse(argc, argv);
  obs_flags.install();

  const std::size_t n_jobs = *paper ? 10 : static_cast<std::size_t>(*jobs);
  const std::size_t n_tasks = *paper ? 100 : static_cast<std::size_t>(*tasks);
  const std::int64_t b_init = *paper ? 1000 : *budget;
  const std::int64_t b_min = *paper ? 100 : *min_budget;

  const ResourceVector capacity{1.0, 1.0};
  const auto dags =
      simulation_workload(n_jobs, n_tasks, static_cast<std::uint64_t>(*seed));

  SpearTrainingOptions training;
  auto policy = get_or_train_policy(*policy_path, training);
  SpearOptions spear_options;
  spear_options.initial_budget = b_init;
  spear_options.min_budget = b_min;
  spear_options.num_threads = static_cast<int>(*threads);
  spear_options.leaf_tree_reuse = *tree_reuse;
  auto spear = make_spear_scheduler(policy, spear_options);
  MctsOptions mcts_options;
  mcts_options.initial_budget = b_init;
  mcts_options.min_budget = b_min;
  mcts_options.num_threads = static_cast<int>(*threads);
  mcts_options.leaf_tree_reuse = *tree_reuse;
  MctsScheduler mcts(mcts_options);
  auto graphene = make_graphene_scheduler();

  Table table({"job", "Spear (s)", "MCTS (s)", "Graphene (s)"});
  std::vector<double> spear_times, mcts_times, graphene_times;
  MctsScheduler::Stats spear_stats, mcts_stats;
  for (std::size_t j = 0; j < dags.size(); ++j) {
    const auto s = timed_makespan(*spear, dags[j], capacity);
    spear_stats += spear->last_stats();
    const auto m = timed_makespan(mcts, dags[j], capacity);
    mcts_stats += mcts.last_stats();
    const auto g = timed_makespan(*graphene, dags[j], capacity);
    spear_times.push_back(s.seconds);
    mcts_times.push_back(m.seconds);
    graphene_times.push_back(g.seconds);
    table.add(static_cast<long long>(j), s.seconds, m.seconds, g.seconds);
    std::printf("job %zu/%zu done\n", j + 1, dags.size());
  }

  std::printf("\nScheduling runtime per job (Fig. 6b):\n");
  table.set_precision(3);
  table.print();

  Table summary({"scheduler", "median (s)", "mean (s)"});
  summary.set_precision(3);
  summary.add("Spear", median(spear_times), mean(spear_times));
  summary.add("MCTS", median(mcts_times), mean(mcts_times));
  summary.add("Graphene", median(graphene_times), mean(graphene_times));
  std::printf("\nSummary (paper: Spear median ~= Graphene median; Graphene "
              "mean ~2x Spear's; RL guidance adds negligible overhead):\n");
  summary.print();

  Table telemetry({"scheduler", "threads", "s/decision", "iterations",
                   "rollouts", "iters/sec"});
  telemetry.set_precision(4);
  const auto add_telemetry = [&](const char* label,
                                 const MctsScheduler::Stats& st) {
    telemetry.add(label, static_cast<long long>(*threads),
                  st.seconds_per_decision(),
                  static_cast<long long>(st.iterations),
                  static_cast<long long>(st.rollouts),
                  st.iterations_per_second());
  };
  add_telemetry("Spear", spear_stats);
  add_telemetry("MCTS", mcts_stats);
  std::printf("\nSearch telemetry (totals over all jobs):\n");
  telemetry.print();

  write_cdf_csv(*csv_prefix + "_spear.csv", "seconds", spear_times);
  write_cdf_csv(*csv_prefix + "_mcts.csv", "seconds", mcts_times);
  write_cdf_csv(*csv_prefix + "_graphene.csv", "seconds", graphene_times);

  if (obs_flags.enabled()) {
    obs::RunReport report("bench_fig6b");
    report.set("jobs", static_cast<std::int64_t>(n_jobs));
    report.set("tasks", static_cast<std::int64_t>(n_tasks));
    report.set("initial_budget", b_init);
    report.set("min_budget", b_min);
    report.set("threads", *threads);
    report.set("spear_median_seconds", median(spear_times));
    report.set("mcts_median_seconds", median(mcts_times));
    report.set("graphene_median_seconds", median(graphene_times));
    report.set("spear_iterations", spear_stats.iterations);
    report.set("mcts_iterations", mcts_stats.iterations);
    obs_flags.finish(report);
  }
  return 0;
}
