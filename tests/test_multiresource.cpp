// End-to-end coverage for more than two resource dimensions (CPU, memory,
// disk/network, ...).  Everything in the library is dimension-generic;
// these tests pin that down through the whole stack: generator -> features
// -> env/featurizer -> baselines -> Graphene -> MCTS.

#include <memory>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "dag/generator.h"
#include "env/featurizer.h"
#include "mcts/mcts.h"
#include "mcts/policies.h"
#include "rl/policy.h"
#include "sched/critical_path.h"
#include "sched/graphene.h"
#include "sched/insertion.h"
#include "sched/sjf.h"
#include "sched/tetris.h"

namespace spear {
namespace {

ResourceVector cap3() { return ResourceVector{1.0, 1.0, 1.0}; }

Dag random_dag3(std::uint64_t seed, std::size_t tasks = 30) {
  DagGeneratorOptions options;
  options.num_tasks = tasks;
  options.resource_dims = 3;
  Rng rng(seed);
  return generate_random_dag(options, rng);
}

TEST(MultiResource, GeneratorProducesThreeDimDemands) {
  const Dag dag = random_dag3(1);
  for (const auto& t : dag.tasks()) {
    EXPECT_EQ(t.demand.dims(), 3u);
  }
  EXPECT_EQ(dag.resource_dims(), 3u);
}

TEST(MultiResource, FeaturesCoverEveryDimension) {
  const Dag dag = random_dag3(2);
  DagFeatures features(dag);
  for (const auto& t : dag.tasks()) {
    for (std::size_t r = 0; r < 3; ++r) {
      EXPECT_GE(features.b_load(t.id, r), 0.0);
    }
  }
}

TEST(MultiResource, BaselinesScheduleValidly) {
  const Dag dag = random_dag3(3);
  const DagFeatures features(dag);
  for (auto& s : {make_sjf_scheduler(), make_critical_path_scheduler(),
                  make_tetris_scheduler(), make_graphene_scheduler(),
                  make_insertion_scheduler()}) {
    const Time makespan = validated_makespan(*s, dag, cap3());
    EXPECT_GE(makespan, features.critical_path()) << s->name();
    EXPECT_LE(makespan, dag.total_runtime()) << s->name();
  }
}

TEST(MultiResource, ThirdDimensionActuallyConstrains) {
  // Two tasks that fit together on CPU/memory but clash on the third
  // resource must serialize.
  DagBuilder builder(3);
  builder.add_task(5, ResourceVector{0.2, 0.2, 0.8});
  builder.add_task(5, ResourceVector{0.2, 0.2, 0.8});
  Dag dag = std::move(builder).build();
  auto tetris = make_tetris_scheduler();
  EXPECT_EQ(validated_makespan(*tetris, dag, cap3()), 10);
  // Relaxing the third dimension lets them co-run.
  DagBuilder relaxed(3);
  relaxed.add_task(5, ResourceVector{0.2, 0.2, 0.4});
  relaxed.add_task(5, ResourceVector{0.2, 0.2, 0.4});
  Dag dag2 = std::move(relaxed).build();
  EXPECT_EQ(validated_makespan(*tetris, dag2, cap3()), 5);
}

TEST(MultiResource, MctsSchedulesValidly) {
  const Dag dag = random_dag3(4, 15);
  MctsOptions options;
  options.initial_budget = 40;
  options.min_budget = 10;
  MctsScheduler mcts(options);
  const DagFeatures features(dag);
  const Time makespan = validated_makespan(mcts, dag, cap3());
  EXPECT_GE(makespan, features.critical_path());
  EXPECT_LE(makespan, dag.total_runtime());
}

TEST(MultiResource, PolicyNetworkAdaptsInputWidth) {
  Rng rng(5);
  FeaturizerOptions featurizer;
  featurizer.max_ready = 4;
  featurizer.horizon = 6;
  auto policy = std::make_shared<const Policy>(
      Policy::make(featurizer, 3, rng, {16}));
  // 6*3 (image) + 4*(4 + 2*3) (ready slots) + 3 (globals) = 61.
  EXPECT_EQ(policy->net().input_dim(), 61u);

  const auto dag = std::make_shared<Dag>(random_dag3(6, 10));
  EnvOptions env_options;
  env_options.max_ready = 4;
  SchedulingEnv env(dag, cap3(), env_options);
  DrlDecisionPolicy sampler(policy, /*greedy=*/false);
  Rng draws(7);
  const Time makespan = run_greedy(env, [&](const SchedulingEnv& state) {
    return sampler.pick(state, draws);
  });
  EXPECT_GT(makespan, 0);
}

}  // namespace
}  // namespace spear
