// Cross-module integration tests: every scheduler in the project run
// against shared workloads (random layered DAGs, MapReduce trace jobs, the
// gallery instance), with schedules validated, bounded, and — on tiny
// instances — compared against the brute-force optimum.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/spear.h"
#include "dag/gallery.h"
#include "dag/generator.h"
#include "dag/io.h"
#include "rl/imitation.h"
#include "sched/critical_path.h"
#include "sched/graphene.h"
#include "sched/insertion.h"
#include "sched/random_scheduler.h"
#include "sched/sjf.h"
#include "sched/tetris.h"
#include "support/brute_force.h"
#include "trace/mapreduce.h"
#include "trace/trace.h"

namespace spear {
namespace {

ResourceVector cap() { return ResourceVector{1.0, 1.0}; }

std::vector<std::unique_ptr<Scheduler>> all_schedulers() {
  std::vector<std::unique_ptr<Scheduler>> out;
  out.push_back(make_sjf_scheduler());
  out.push_back(make_critical_path_scheduler());
  out.push_back(make_tetris_scheduler());
  out.push_back(make_graphene_scheduler());
  out.push_back(make_insertion_scheduler());
  out.push_back(make_random_scheduler(7));
  out.push_back(make_mcts_scheduler(40, 10));
  return out;
}

class WorkloadIntegrationTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WorkloadIntegrationTest, EverySchedulerValidOnRandomDags) {
  Rng rng(GetParam());
  DagGeneratorOptions options;
  options.num_tasks = 35;
  const Dag dag = generate_random_dag(options, rng);
  const DagFeatures features(dag);
  for (auto& scheduler : all_schedulers()) {
    const Time makespan = validated_makespan(*scheduler, dag, cap());
    EXPECT_GE(makespan, features.critical_path()) << scheduler->name();
    EXPECT_LE(makespan, dag.total_runtime()) << scheduler->name();
  }
}

TEST_P(WorkloadIntegrationTest, EverySchedulerValidOnTraceJobs) {
  Rng rng(GetParam());
  TraceOptions options;
  options.num_jobs = 2;
  for (const auto& job : generate_trace(options, rng)) {
    const Dag dag = mapreduce_to_dag(job);
    const DagFeatures features(dag);
    for (auto& scheduler : all_schedulers()) {
      const Time makespan = validated_makespan(*scheduler, dag, cap());
      EXPECT_GE(makespan, features.critical_path())
          << scheduler->name() << " on " << job.job_id;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WorkloadIntegrationTest,
                         ::testing::Values(51, 52, 53));

TEST(Integration, SearchSchedulersReachOptimumOnTinyDags) {
  DagGeneratorOptions options;
  options.num_tasks = 5;
  options.max_width = 3;
  for (std::uint64_t seed : {61, 62, 63, 64}) {
    Rng rng(seed);
    const Dag dag = generate_random_dag(options, rng);
    const auto optimal = testing::optimal_makespan(dag, cap());
    ASSERT_TRUE(optimal.has_value());
    auto mcts = make_mcts_scheduler(200, 60, seed);
    EXPECT_EQ(validated_makespan(*mcts, dag, cap()), *optimal)
        << "seed " << seed;
    // Heuristics can be suboptimal but never beat the optimum.
    for (auto& scheduler : all_schedulers()) {
      EXPECT_GE(validated_makespan(*scheduler, dag, cap()), *optimal)
          << scheduler->name() << " seed " << seed;
    }
  }
}

TEST(Integration, DagSurvivesIoThenSchedules) {
  // Full pipeline: generate -> serialize -> parse -> schedule -> validate.
  Rng rng(71);
  DagGeneratorOptions options;
  options.num_tasks = 25;
  const Dag original = generate_random_dag(options, rng);
  const Dag loaded = dag_from_text(dag_to_text(original));
  auto tetris = make_tetris_scheduler();
  EXPECT_EQ(validated_makespan(*tetris, loaded, cap()),
            validated_makespan(*tetris, original, cap()));
}

TEST(Integration, SpearEndToEndOnMixedWorkload) {
  // Train a tiny policy, then schedule a random DAG, a trace job, and the
  // gallery instance with the same Spear scheduler.
  Rng rng(81);
  FeaturizerOptions featurizer;
  featurizer.max_ready = 6;
  featurizer.horizon = 8;
  Policy policy = Policy::make(featurizer, 2, rng, {24});
  DagGeneratorOptions gen;
  gen.num_tasks = 10;
  const auto train_dags = generate_random_dags(gen, 3, rng);
  ImitationOptions imitation;
  imitation.epochs = 8;
  ImitationTrainer trainer(
      policy, collect_cp_demonstrations(policy, train_dags, cap()), imitation,
      rng);
  while (!trainer.done()) trainer.run_epoch();

  SpearOptions options;
  options.initial_budget = 60;
  options.min_budget = 20;
  auto spear = make_spear_scheduler(
      std::make_shared<const Policy>(std::move(policy)), options);

  Rng workload_rng(82);
  gen.num_tasks = 20;
  const Dag random_dag = generate_random_dag(gen, workload_rng);
  EXPECT_GT(validated_makespan(*spear, random_dag, cap()), 0);

  TraceOptions trace_options;
  trace_options.num_jobs = 1;
  const Dag trace_dag =
      mapreduce_to_dag(generate_trace(trace_options, workload_rng).front());
  EXPECT_GT(validated_makespan(*spear, trace_dag, cap()), 0);

  EXPECT_LE(validated_makespan(*spear, motivating_example_dag(), cap()), 39);
}

}  // namespace
}  // namespace spear
