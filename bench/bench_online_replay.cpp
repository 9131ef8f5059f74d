// Online execution replay (DESIGN.md §14): streams the synthetic
// production trace into a live cluster and compares three execution
// policies under stochastic realized runtimes:
//
//   open-loop — plan-faithful replay of the committed schedule: tasks never
//               start before their planned start, the priority order is
//               frozen, no reaction to surprise;
//   ladder    — the repair ladder (absorb / local repair / bounded MCTS
//               re-search) plus straggler speculation;
//   oracle    — clairvoyant re-plan: the planner sees the TRUE realized
//               runtimes, so its makespan is the (unattainable) lower
//               reference for what repair can recover.
//
// Jobs arrive on a Poisson stream and are executed one at a time on the
// full cluster (a FIFO single-server queue — the simplest model that makes
// queueing delay, and therefore JCT, sensitive to per-job makespan).  The
// reported metric is the realized job completion time, JCT = finish -
// arrival, as mean and p99 over the stream.
//
// Scaled default: 12 trace jobs; --paper streams all 99.  Everything is
// deterministic per --seed.  Exits nonzero if the ladder does not strictly
// beat open-loop on mean realized JCT — the acceptance gate this bench
// exists to demonstrate.

#include <cstdio>
#include <memory>
#include <vector>

#include "common/flags.h"
#include "common/table.h"
#include "exec/engine.h"
#include "sched/critical_path.h"
#include "support.h"
#include "trace/mapreduce.h"
#include "trace/trace.h"

int main(int argc, char** argv) {
  using namespace spear;
  using namespace spear::bench;

  Flags flags;
  const auto paper = flags.define_bool("paper", false, "stream all 99 jobs");
  const auto jobs_limit = flags.define_int("jobs", 12, "jobs to stream");
  const auto seed = flags.define_int("seed", 42, "base seed");
  const auto sigma = flags.define_double(
      "sigma", 0.6, "lognormal runtime-noise sigma (0.6 ~ 2x spread)");
  const auto straggler_rate =
      flags.define_double("straggler-rate", 0.10, "straggler probability");
  const auto straggler_factor = flags.define_double(
      "straggler-factor", 4.0, "minimum straggler slowdown");
  const auto mean_interarrival = flags.define_double(
      "mean-interarrival", 150.0, "mean slots between job arrivals");
  const auto research_budget = flags.define_int(
      "research-budget", 128, "re-search initial iteration budget");
  const auto research_min =
      flags.define_int("research-min", 32, "re-search min iteration budget");
  const auto csv_path =
      flags.define_string("csv", "online_replay.csv", "CSV output");
  ObsFlags obs_flags(flags);
  flags.parse(argc, argv);
  obs_flags.install();

  const ResourceVector capacity{1.0, 1.0};
  Rng trace_rng(static_cast<std::uint64_t>(*seed));
  auto jobs = generate_trace({}, trace_rng);
  if (!*paper && jobs.size() > static_cast<std::size_t>(*jobs_limit)) {
    jobs.resize(static_cast<std::size_t>(*jobs_limit));
  }
  ArrivalOptions arrival_options;
  arrival_options.mean_interarrival = *mean_interarrival;
  arrival_options.seed = static_cast<std::uint64_t>(*seed) ^ 0x5bf0'3635ULL;
  const std::vector<Time> arrivals =
      generate_poisson_arrivals(jobs.size(), arrival_options);

  auto planner = make_critical_path_scheduler();

  CsvWriter csv(*csv_path);
  csv.write("job", "arrival", "open_loop_jct", "ladder_jct", "oracle_jct",
            "repairs", "researches", "speculations");

  Time open_busy = 0, ladder_busy = 0, oracle_busy = 0;
  std::vector<Time> open_jcts, ladder_jcts, oracle_jcts;
  exec::ExecStats ladder_totals;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const auto dag = std::make_shared<Dag>(mapreduce_to_dag(jobs[j]));
    const Schedule plan = planner->schedule(*dag, capacity);
    if (const auto why = plan.validate(*dag, capacity)) {
      std::fprintf(stderr, "job %zu: invalid plan: %s\n", j, why->c_str());
      return 1;
    }

    exec::PerturbOptions perturb;
    perturb.sigma = *sigma;
    perturb.straggler_rate = *straggler_rate;
    perturb.straggler_factor = *straggler_factor;
    perturb.seed = static_cast<std::uint64_t>(*seed) ^
                   ((j + 1) * 0x9e3779b97f4a7c15ULL);

    const auto run_mode = [&](bool repair) {
      exec::ExecOptions options;
      options.repair = repair;
      options.speculate = repair;  // speculation is part of the ladder
      options.perturb = perturb;
      options.research_initial_budget = *research_budget;
      options.research_min_budget = *research_min;
      options.seed = perturb.seed ^ 0xec5dec5dULL;
      exec::ExecutionEngine engine(dag, capacity, options);
      exec::ExecResult result = engine.run(plan);
      if (const auto why =
              exec::validate_events(*dag, capacity, result.events)) {
        std::fprintf(stderr, "job %zu: invalid event log: %s\n", j,
                     why->c_str());
        std::exit(1);
      }
      if (exec::replay_makespan(result.events) != result.makespan) {
        std::fprintf(stderr, "job %zu: replay makespan mismatch\n", j);
        std::exit(1);
      }
      return result;
    };
    const exec::ExecResult open = run_mode(false);
    const exec::ExecResult ladder = run_mode(true);
    ladder_totals.local_repairs += ladder.stats.local_repairs;
    ladder_totals.researches += ladder.stats.researches;
    ladder_totals.speculations += ladder.stats.speculations;
    ladder_totals.speculation_wins += ladder.stats.speculation_wins;

    // Oracle: re-plan against the TRUE first-attempt runtimes; an exact
    // replay of that plan realizes its makespan by construction.
    const exec::RuntimePerturber perturber(perturb);
    DagBuilder oracle_builder(capacity.dims());
    for (const Task& task : dag->tasks()) {
      oracle_builder.add_task(perturber.realized_duration(task, 0),
                              task.demand, task.name);
    }
    for (const Task& task : dag->tasks()) {
      for (TaskId parent : dag->parents(task.id)) {
        oracle_builder.add_edge(parent, task.id);
      }
    }
    const Dag oracle_dag = std::move(oracle_builder).build();
    const Schedule oracle_plan = planner->schedule(oracle_dag, capacity);
    if (const auto why = oracle_plan.validate(oracle_dag, capacity)) {
      std::fprintf(stderr, "job %zu: invalid oracle plan: %s\n", j,
                   why->c_str());
      return 1;
    }
    const Time oracle_makespan = oracle_plan.makespan(oracle_dag);

    // FIFO single-server queue: each job runs alone on the cluster.
    const Time arrival = arrivals[j];
    open_busy = std::max(arrival, open_busy) + open.makespan;
    ladder_busy = std::max(arrival, ladder_busy) + ladder.makespan;
    oracle_busy = std::max(arrival, oracle_busy) + oracle_makespan;
    open_jcts.push_back(open_busy - arrival);
    ladder_jcts.push_back(ladder_busy - arrival);
    oracle_jcts.push_back(oracle_busy - arrival);

    csv.write(jobs[j].job_id, static_cast<long long>(arrival),
              static_cast<long long>(open_jcts.back()),
              static_cast<long long>(ladder_jcts.back()),
              static_cast<long long>(oracle_jcts.back()),
              static_cast<long long>(ladder.stats.local_repairs),
              static_cast<long long>(ladder.stats.researches),
              static_cast<long long>(ladder.stats.speculations));
    std::printf("job %zu/%zu: open %lld  ladder %lld  oracle %lld\n", j + 1,
                jobs.size(), static_cast<long long>(open_jcts.back()),
                static_cast<long long>(ladder_jcts.back()),
                static_cast<long long>(oracle_jcts.back()));
  }

  const JctSummary open_summary = summarize_jct(open_jcts);
  const JctSummary ladder_summary = summarize_jct(ladder_jcts);
  const JctSummary oracle_summary = summarize_jct(oracle_jcts);

  Table table({"mode", "mean JCT", "p99 JCT", "max JCT"});
  table.set_precision(1);
  table.add("open-loop", open_summary.mean,
            static_cast<long long>(open_summary.p99),
            static_cast<long long>(open_summary.max));
  table.add("repair ladder", ladder_summary.mean,
            static_cast<long long>(ladder_summary.p99),
            static_cast<long long>(ladder_summary.max));
  table.add("oracle", oracle_summary.mean,
            static_cast<long long>(oracle_summary.p99),
            static_cast<long long>(oracle_summary.max));
  table.print();
  std::printf(
      "ladder activity: %lld local repairs, %lld re-searches, %lld "
      "speculations (%lld wins)\n",
      static_cast<long long>(ladder_totals.local_repairs),
      static_cast<long long>(ladder_totals.researches),
      static_cast<long long>(ladder_totals.speculations),
      static_cast<long long>(ladder_totals.speculation_wins));
  std::printf("wrote %s\n", csv_path->c_str());

  obs::RunReport report("bench_online_replay");
  obs_flags.finish(report);

  if (!(ladder_summary.mean < open_summary.mean)) {
    std::fprintf(stderr,
                 "FAIL: repair ladder (mean %.1f) does not strictly beat "
                 "open-loop (mean %.1f)\n",
                 ladder_summary.mean, open_summary.mean);
    return 1;
  }
  return 0;
}
