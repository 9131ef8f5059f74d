// Greedy-layer golden: every code path that runs the greedy rule (start
// the best-priority fitting ready task, else process) pinned to fixed
// values — the list-scheduling baselines, Random, the heuristic guides
// under the fault runner, the UCB-scale probe, the CP imitation teacher,
// and one execution-engine run whose repairs re-search with the heuristic
// guide.  Placements and event logs are FNV-1a hashes.  The fixtures were
// recorded once and are never regenerated: any change to a pick, a
// tie-break or an RNG draw of the greedy layer shows up here.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dag/generator.h"
#include "exec/engine.h"
#include "fault/runner.h"
#include "mcts/mcts.h"
#include "mcts/policies.h"
#include "rl/imitation.h"
#include "sched/critical_path.h"
#include "sched/graphene.h"
#include "sched/random_scheduler.h"
#include "sched/sjf.h"
#include "sched/tetris.h"
#include "trace/mapreduce.h"

namespace spear {
namespace {

const ResourceVector kCapacity{1.0, 1.0};

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void byte(std::uint8_t b) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  void mix(std::int64_t v) {
    for (int b = 0; b < 8; ++b) byte(static_cast<std::uint8_t>(v >> (8 * b)));
  }
};

std::int64_t placement_hash(const Schedule& schedule) {
  Fnv f;
  for (const Placement& p : schedule.placements()) {
    f.mix(p.task);
    f.mix(p.start);
  }
  return static_cast<std::int64_t>(f.h);
}

/// Three layered DAGs and one MapReduce job.
std::vector<Dag> golden_dags() {
  std::vector<Dag> dags;
  for (std::uint64_t k = 0; k < 3; ++k) {
    DagGeneratorOptions gen;
    gen.num_tasks = 24;
    Rng rng(700 + k);
    dags.push_back(generate_random_dag(gen, rng));
  }
  TraceOptions trace;
  trace.num_jobs = 1;
  trace.max_map_tasks = 12;
  trace.max_reduce_tasks = 10;
  Rng trace_rng(17);
  dags.push_back(mapreduce_to_dag(generate_trace(trace, trace_rng).front()));
  return dags;
}

std::shared_ptr<const FaultInjector> golden_faults() {
  FaultOptions options;
  options.fault_rate = 0.2;
  options.num_loss_windows = 2;
  options.seed = 23;
  return std::make_shared<const FaultInjector>(options, kCapacity);
}

TEST(GreedyGolden, OutputsMatchParent) {
  // One row per (DAG, code path), in the order recorded below.
  const std::vector<std::vector<std::int64_t>> golden = {
      // dag 0: baselines
      {5972007269285323092, -7564256537960224308, 3092152313318022265,
       4341109159851339961, -5960768142030091125},
      {8320447578059573102, 1063563428961145549},  // dag 0: random
      {-964556039838263175, 138, 0, 0, 0},  // dag 0: blend ideal
      {1782849477244582480, 149, 0, 5, 5},  // dag 0: blend faults
      {4116863941369023524, 0, 1, 1, 0},  // dag 0: blend strict
      {-7564256537960224308, 133, 0, 0, 0},  // dag 0: cp ideal
      {8562847400398539102, 166, 0, 5, 5},  // dag 0: cp faults
      {4116863941369023524, 0, 1, 1, 0},  // dag 0: cp strict
      {3092152313318022265, 138, 0, 0, 0},  // dag 0: tetris ideal
      {1021607726953531856, 149, 0, 5, 5},  // dag 0: tetris faults
      {4116863941369023524, 0, 1, 1, 0},  // dag 0: tetris strict
      {138, 148, 167, 167, 197, 199},  // dag 0: estimates
      {149, 157, 157, 166, 178, 195},  // dag 0: faulty estimates
      // dag 1: baselines
      {3351397998230299648, 95372319455189789, -1874776272838795640,
       -913855734007484170, 2485422021776365579},
      {-991323896628487078, -4515472175329463806},  // dag 1: random
      {4137826332260268853, 116, 0, 0, 0},  // dag 1: blend ideal
      {8941148130756759030, 150, 0, 5, 5},  // dag 1: blend faults
      {-4020201000217190810, 0, 1, 1, 0},  // dag 1: blend strict
      {95372319455189789, 117, 0, 0, 0},  // dag 1: cp ideal
      {-2875984811304373595, 156, 0, 5, 5},  // dag 1: cp faults
      {-6546675704984050266, 0, 1, 1, 0},  // dag 1: cp strict
      {-1874776272838795640, 125, 0, 0, 0},  // dag 1: tetris ideal
      {1698689683730746637, 157, 0, 5, 5},  // dag 1: tetris faults
      {-4020201000217190810, 0, 1, 1, 0},  // dag 1: tetris strict
      {116, 131, 139, 150, 178, 184},  // dag 1: estimates
      {150, 154, 179, 179, 187, 192},  // dag 1: faulty estimates
      // dag 2: baselines
      {-5558760245126052044, 2152818892099216644, 5822028688765111448,
       7100365023998124403, 1683470190623175083},
      {3686816479577265092, -7829336261798917518},  // dag 2: random
      {-7029829846290167918, 138, 0, 0, 0},  // dag 2: blend ideal
      {7934881610254031630, 178, 0, 5, 5},  // dag 2: blend faults
      {2746152651961504999, 0, 1, 1, 0},  // dag 2: blend strict
      {-2391907911418540860, 132, 0, 0, 0},  // dag 2: cp ideal
      {-3563588615885650438, 148, 0, 5, 5},  // dag 2: cp faults
      {2746152651961504999, 0, 1, 1, 0},  // dag 2: cp strict
      {5822028688765111448, 138, 0, 0, 0},  // dag 2: tetris ideal
      {-2446176443156930775, 163, 0, 5, 5},  // dag 2: tetris faults
      {2746152651961504999, 0, 1, 1, 0},  // dag 2: tetris strict
      {138, 150, 160, 165, 168, 179},  // dag 2: estimates
      {178, 185, 208, 208, 208, 208},  // dag 2: faulty estimates
      // dag 3: baselines
      {269294255735680235, 3164137225297671849, 7785539730962680835,
       269294255735680235, 8577409658384419031},
      {-6336643473647069446, 5901835458792326703},  // dag 3: random
      {3164137225297671849, 863, 0, 0, 0},  // dag 3: blend ideal
      {-4659389840574887187, 968, 0, 5, 5},  // dag 3: blend faults
      {-5984179728246705502, 0, 1, 1, 0},  // dag 3: blend strict
      {3164137225297671849, 863, 0, 0, 0},  // dag 3: cp ideal
      {-4659389840574887187, 968, 0, 5, 5},  // dag 3: cp faults
      {-5984179728246705502, 0, 1, 1, 0},  // dag 3: cp strict
      {7785539730962680835, 1046, 0, 0, 0},  // dag 3: tetris ideal
      {2158228390641827828, 958, 0, 5, 5},  // dag 3: tetris faults
      {1920556425222334432, 0, 1, 1, 0},  // dag 3: tetris strict
      {863, 1887, 2844, 3644, 4303, 5289},  // dag 3: estimates
      {968, 2082, 2215, 3089, 3799, 4490},  // dag 3: faulty estimates
      {178, 5695130308061515981},  // cp teacher
      {7, 225, -298276378826779209},  // exec
  };

  std::vector<std::vector<std::int64_t>> actual;
  std::vector<std::string> where;
  const auto record = [&](std::string label, std::vector<std::int64_t> row) {
    where.push_back(std::move(label));
    actual.push_back(std::move(row));
  };

  const std::vector<Dag> dags = golden_dags();
  for (std::size_t d = 0; d < dags.size(); ++d) {
    const Dag& dag = dags[d];
    const std::string tag = "dag " + std::to_string(d) + ": ";

    // List-scheduling baselines: SJF, CP, Tetris, Tetris+SRPT, Graphene.
    std::vector<std::unique_ptr<Scheduler>> baselines;
    baselines.push_back(make_sjf_scheduler());
    baselines.push_back(make_critical_path_scheduler());
    baselines.push_back(make_tetris_scheduler());
    baselines.push_back(make_tetris_srpt_scheduler(0.5));
    baselines.push_back(make_graphene_scheduler());
    std::vector<std::int64_t> row;
    for (const auto& scheduler : baselines) {
      row.push_back(placement_hash(scheduler->schedule(dag, kCapacity)));
    }
    record(tag + "baselines", row);

    // Random, twice from one instance: the second run continues the
    // first's RNG stream.
    auto random = make_random_scheduler(31 + d);
    row.clear();
    for (int run = 0; run < 2; ++run) {
      row.push_back(placement_hash(random->schedule(dag, kCapacity)));
    }
    record(tag + "random", row);

    // The heuristic guides driven greedily: without faults, with faults,
    // and with faults but no retries (the run aborts).  Each row is
    // {placements, makespan, aborted, failures, retries}.
    std::vector<std::pair<std::string, std::unique_ptr<DecisionPolicy>>>
        guides;
    guides.emplace_back("blend", std::make_unique<HeuristicDecisionPolicy>());
    guides.emplace_back(
        "cp", std::make_unique<HeuristicDecisionPolicy>(b_level_urgency));
    guides.emplace_back(
        "tetris", std::make_unique<HeuristicDecisionPolicy>(tetris_alignment));
    for (auto& [name, guide] : guides) {
      for (const std::string mode : {"ideal", "faults", "strict"}) {
        RetryOptions retry;
        if (mode == "strict") retry.max_retries = 0;
        const FaultRunResult run = run_policy_under_faults(
            *guide, dag, kCapacity,
            mode == "ideal" ? nullptr : golden_faults(), retry, 5);
        record(tag + name + " " + mode,
               {placement_hash(run.schedule), run.makespan,
                run.aborted ? 1 : 0, run.fault_stats.failures,
                run.fault_stats.retries});
      }
    }

    // The UCB-scale probe on mid-episode states: walk one episode by the
    // last valid action and probe every fourth decision.
    for (const bool faulty : {false, true}) {
      EnvOptions options;
      if (faulty) options.faults = golden_faults();
      SchedulingEnv env(std::make_shared<Dag>(dag), kCapacity, options);
      row.clear();
      for (int step = 0; !env.done() && step < 24; ++step) {
        if (step % 4 == 0) row.push_back(greedy_makespan_estimate(env));
        const int action = env.valid_actions().back();
        if (action == SchedulingEnv::kProcessAction) {
          env.process_to_next_finish();
        } else {
          env.step(action);
        }
      }
      record(tag + (faulty ? "faulty estimates" : "estimates"), row);
    }
  }

  // The CP imitation teacher over all four DAGs: {#demos, target hash}.
  Rng policy_rng(3);
  const Policy policy = Policy::make(FeaturizerOptions{}, 2, policy_rng, {8});
  const std::vector<Demonstration> demos =
      collect_cp_demonstrations(policy, dags, kCapacity);
  Fnv targets;
  for (const Demonstration& demo : demos) targets.mix(demo.target_output);
  record("cp teacher", {static_cast<std::int64_t>(demos.size()),
                        static_cast<std::int64_t>(targets.h)});

  // One execution-engine run whose repairs re-search with the heuristic
  // guide: {re-searches, makespan, event-log hash}.
  exec::ExecOptions exec_options;
  exec_options.perturb.sigma = 0.8;
  exec_options.perturb.straggler_rate = 0.25;
  exec_options.perturb.seed = 13;
  exec_options.seed = 13;
  exec_options.research_cooldown = 0;
  exec_options.research_factor = 0.3;
  exec_options.research_min_pending = 2;
  exec_options.research_initial_budget = 48;
  exec_options.research_min_budget = 16;
  const Schedule plan =
      make_critical_path_scheduler()->schedule(dags[0], kCapacity);
  exec::ExecutionEngine engine(std::make_shared<Dag>(dags[0]), kCapacity,
                               exec_options);
  const exec::ExecResult result = engine.run(plan);
  Fnv events;
  for (const char c : exec::format_events(result.events)) {
    events.byte(static_cast<std::uint8_t>(c));
  }
  record("exec", {result.stats.researches, result.makespan,
                  static_cast<std::int64_t>(events.h)});

  ASSERT_EQ(actual.size(), golden.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i], golden[i]) << where[i];
  }
}

}  // namespace
}  // namespace spear
