// Robustness sweep: makespan and recovery counters vs the per-attempt
// failure rate, for Spear, pure MCTS, Tetris, and CP.
//
// Every scheduler sees the SAME deterministic fault trace per (DAG, rate):
// the injector seed is fault_seed ^ dag index, and outcomes are a pure
// function of (seed, task, attempt) — so a re-run with the same --fault-seed
// writes a byte-identical fault_sweep.csv.  The heuristics run greedily
// through the fault-aware environment (see fault/runner.h); the search
// schedulers plan with rollouts that anticipate the same trace.
//
// Jobs the retry policy aborts are counted in the `aborts` column and
// excluded from the makespan mean (an all-abort cell reports -1).
//
// Scaled default: 5 DAGs x 25 tasks, rates {0, 0.05, 0.1, 0.2};
// --paper = 10 x 50 with rates up to 0.4.  --time-budget-ms > 0 additionally
// exercises the anytime search (degradations column); it trades
// reproducibility for bounded latency, so the byte-identical guarantee
// holds only at the default of 0.

#include <cstdio>
#include <memory>
#include <vector>

#include "common/flags.h"
#include "common/table.h"
#include "fault/runner.h"
#include "sched/critical_path.h"
#include "sched/tetris.h"
#include "support.h"

int main(int argc, char** argv) {
  using namespace spear;
  using namespace spear::bench;

  Flags flags;
  const auto paper = flags.define_bool("paper", false, "paper-scale run");
  const auto jobs = flags.define_int("jobs", 5, "number of DAGs");
  const auto tasks = flags.define_int("tasks", 25, "tasks per DAG");
  const auto seed = flags.define_int("seed", 11, "workload seed");
  const auto fault_seed =
      flags.define_int("fault-seed", 1, "fault injector seed");
  const auto fault_rate = flags.define_double(
      "fault-rate", -1.0,
      "run only this per-attempt failure rate (< 0 = built-in sweep)");
  const auto straggler_rate = flags.define_double(
      "straggler-rate", 0.0, "per-attempt straggler probability");
  const auto loss_windows = flags.define_int(
      "loss-windows", 0, "transient capacity-loss windows per DAG");
  const auto max_retries =
      flags.define_int("max-retries", 3, "retries per task before abort");
  const auto time_budget_ms = flags.define_int(
      "time-budget-ms", 0, "anytime per-decision budget for MCTS/Spear "
      "(0 = unlimited, deterministic)");
  const auto mcts_budget = flags.define_int("mcts-budget", 200, "MCTS budget");
  const auto policy_path = flags.define_string(
      "policy", "bench_policy.txt", "policy cache file (empty = retrain)");
  const auto csv_path =
      flags.define_string("csv", "fault_sweep.csv", "CSV output");
  ObsFlags obs_flags(flags);
  flags.parse(argc, argv);
  obs_flags.install();

  const std::size_t n_jobs = *paper ? 10 : static_cast<std::size_t>(*jobs);
  const std::size_t n_tasks = *paper ? 50 : static_cast<std::size_t>(*tasks);
  const std::vector<double> rates =
      *fault_rate >= 0.0
          ? std::vector<double>{*fault_rate}
          : *paper ? std::vector<double>{0.0, 0.05, 0.1, 0.2, 0.3, 0.4}
                   : std::vector<double>{0.0, 0.05, 0.1, 0.2};
  const std::int64_t b_mcts = *mcts_budget;
  const std::int64_t b_spear = std::max<std::int64_t>(b_mcts / 10, 1);

  const ResourceVector capacity{1.0, 1.0};
  const auto dags =
      simulation_workload(n_jobs, n_tasks, static_cast<std::uint64_t>(*seed));

  SpearTrainingOptions training;
  auto policy = get_or_train_policy(*policy_path, training);

  RetryOptions retry;
  retry.max_retries = static_cast<int>(*max_retries);

  // Builds the (identical across schedulers) injector for one (DAG, rate)
  // cell; null when nothing is perturbed, so rate 0 with the default flags
  // is the bit-exact idealized run.
  const auto make_injector =
      [&](double rate,
          std::size_t dag_index) -> std::shared_ptr<const FaultInjector> {
    FaultOptions fault_options;
    fault_options.fault_rate = rate;
    fault_options.straggler_rate = *straggler_rate;
    fault_options.num_loss_windows = static_cast<std::size_t>(*loss_windows);
    fault_options.seed = static_cast<std::uint64_t>(*fault_seed) ^
                         (static_cast<std::uint64_t>(dag_index) + 1);
    auto injector =
        std::make_shared<const FaultInjector>(fault_options, capacity);
    return injector->active() ? injector : nullptr;
  };

  struct CellStats {
    std::vector<double> makespans;  // completed jobs only
    long long failures = 0;
    long long retries = 0;
    long long aborts = 0;
    long long degradations = 0;
  };

  const std::vector<std::string> scheduler_names = {"Spear", "MCTS", "Tetris",
                                                    "CP"};
  Table table({"scheduler", "fault rate", "mean makespan", "failures",
               "retries", "aborts", "degradations"});
  CsvWriter csv(*csv_path);
  csv.write("scheduler", "fault_rate", "mean_makespan", "failures", "retries",
            "aborts", "degradations");

  for (const double rate : rates) {
    std::vector<CellStats> cells(scheduler_names.size());
    for (std::size_t j = 0; j < dags.size(); ++j) {
      const auto faults = make_injector(rate, j);

      // Search schedulers: plan under the injected trace.
      for (std::size_t s = 0; s < 2; ++s) {
        std::unique_ptr<MctsScheduler> scheduler;
        if (s == 0) {
          SpearOptions spear_options;
          spear_options.initial_budget = b_spear;
          spear_options.min_budget = std::max<std::int64_t>(b_spear / 2, 1);
          spear_options.time_budget_ms = *time_budget_ms;
          spear_options.faults = faults;
          spear_options.retry = retry;
          scheduler = make_spear_scheduler(policy, spear_options);
        } else {
          MctsOptions mcts;
          mcts.initial_budget = b_mcts;
          mcts.min_budget = 5;
          mcts.time_budget_ms = *time_budget_ms;
          mcts.faults = faults;
          mcts.retry = retry;
          scheduler = std::make_unique<MctsScheduler>(mcts);
        }
        CellStats& cell = cells[s];
        try {
          const Schedule schedule = scheduler->schedule(dags[j], capacity);
          const auto error =
              faults ? schedule.validate_under_faults(dags[j], capacity,
                                                      *faults)
                     : schedule.validate(dags[j], capacity);
          if (error) {
            std::fprintf(stderr, "%s produced an invalid schedule: %s\n",
                         scheduler_names[s].c_str(), error->c_str());
            return 1;
          }
          cell.makespans.push_back(
              static_cast<double>(schedule.makespan(dags[j])));
        } catch (const JobAbortedError&) {
          ++cell.aborts;
        }
        const auto& stats = scheduler->last_stats();
        cell.failures += stats.task_failures;
        cell.retries += stats.task_retries;
        cell.degradations += stats.degradations;
      }

      // Heuristics: react greedily through the fault-aware environment.
      for (std::size_t s = 2; s < scheduler_names.size(); ++s) {
        HeuristicDecisionPolicy heuristic(s == 2 ? PriorityFn(tetris_alignment)
                                                 : PriorityFn(b_level_urgency));
        const auto run = run_policy_under_faults(heuristic, dags[j], capacity,
                                                 faults, retry);
        CellStats& cell = cells[s];
        if (run.aborted) {
          ++cell.aborts;
        } else {
          const auto error =
              faults ? run.schedule.validate_under_faults(dags[j], capacity,
                                                          *faults)
                     : run.schedule.validate(dags[j], capacity);
          if (error) {
            std::fprintf(stderr, "%s produced an invalid schedule: %s\n",
                         scheduler_names[s].c_str(), error->c_str());
            return 1;
          }
          cell.makespans.push_back(static_cast<double>(run.makespan));
        }
        cell.failures += run.fault_stats.failures;
        cell.retries += run.fault_stats.retries;
      }
    }

    for (std::size_t s = 0; s < scheduler_names.size(); ++s) {
      const CellStats& cell = cells[s];
      const double mean_makespan =
          cell.makespans.empty() ? -1.0 : mean(cell.makespans);
      table.add(scheduler_names[s], rate, mean_makespan, cell.failures,
                cell.retries, cell.aborts, cell.degradations);
      csv.write(scheduler_names[s], rate, mean_makespan, cell.failures,
                cell.retries, cell.aborts, cell.degradations);
    }
    std::printf("fault rate %.2f done\n", rate);
  }

  std::printf("\nMakespan and recovery counters vs failure rate (same "
              "deterministic fault trace for every scheduler):\n");
  table.print();

  if (obs_flags.enabled()) {
    obs::RunReport report("bench_fault_sweep");
    report.set("jobs", static_cast<std::int64_t>(n_jobs));
    report.set("tasks", static_cast<std::int64_t>(n_tasks));
    report.set("fault_seed", *fault_seed);
    report.set("max_retries", *max_retries);
    report.set("time_budget_ms", *time_budget_ms);
    report.set("num_rates", static_cast<std::int64_t>(rates.size()));
    obs_flags.finish(report);
  }
  return 0;
}
