#include "core/spear.h"

#include <memory>

#include <gtest/gtest.h>

#include "dag/generator.h"
#include "mcts/policies.h"
#include "rl/imitation.h"
#include "support/brute_force.h"
#include "support/builders.h"

namespace spear {
namespace {

ResourceVector cap() { return ResourceVector{1.0, 1.0}; }

/// A small shared policy (tiny network, tiny featurizer) that is cheap to
/// build per test binary run.
std::shared_ptr<const Policy> tiny_trained_policy() {
  static const auto policy = [] {
    Rng rng(42);
    FeaturizerOptions options;
    options.max_ready = 6;
    options.horizon = 8;
    Policy p = Policy::make(options, 2, rng, {24});
    DagGeneratorOptions gen;
    gen.num_tasks = 10;
    Rng dag_rng(1);
    const auto dags = generate_random_dags(gen, 4, dag_rng);
    ImitationOptions imitation;
    imitation.epochs = 15;
    imitation.optimizer.learning_rate = 1e-3;
    ImitationTrainer trainer(p, collect_cp_demonstrations(p, dags, cap()),
                             imitation, rng);
    while (!trainer.done()) trainer.run_epoch();
    return std::make_shared<const Policy>(std::move(p));
  }();
  return policy;
}

TEST(Spear, NameIsSpear) {
  auto spear = make_spear_scheduler(tiny_trained_policy());
  EXPECT_EQ(spear->name(), "Spear");
  auto mcts = make_mcts_scheduler(100, 10);
  EXPECT_EQ(mcts->name(), "MCTS");
}

TEST(Spear, ProducesValidSchedules) {
  SpearOptions options;
  options.initial_budget = 40;
  options.min_budget = 10;
  auto spear = make_spear_scheduler(tiny_trained_policy(), options);
  DagGeneratorOptions gen;
  gen.num_tasks = 15;
  Rng rng(5);
  Dag dag = generate_random_dag(gen, rng);
  DagFeatures features(dag);
  const Time makespan = validated_makespan(*spear, dag, cap());
  EXPECT_GE(makespan, features.critical_path());
  EXPECT_LE(makespan, dag.total_runtime());
}

TEST(Spear, ChainAndPackingBasics) {
  SpearOptions options;
  options.initial_budget = 30;
  options.min_budget = 10;
  auto spear = make_spear_scheduler(tiny_trained_policy(), options);
  Dag chain = testing::make_chain({2, 3, 4});
  EXPECT_EQ(validated_makespan(*spear, chain, cap()), 9);
  Dag indep = testing::make_independent(4, 5, ResourceVector{0.5, 0.5});
  EXPECT_EQ(validated_makespan(*spear, indep, cap()), 10);
}

TEST(Spear, FindsOptimalOnSmallInstances) {
  DagGeneratorOptions gen;
  gen.num_tasks = 6;
  gen.max_width = 3;
  Rng rng(11);
  Dag dag = generate_random_dag(gen, rng);
  const auto optimal = testing::optimal_makespan(dag, cap());
  ASSERT_TRUE(optimal.has_value());

  SpearOptions options;
  options.initial_budget = 200;
  options.min_budget = 60;
  auto spear = make_spear_scheduler(tiny_trained_policy(), options);
  EXPECT_EQ(validated_makespan(*spear, dag, cap()), *optimal);
}

TEST(Spear, GreedyRolloutModeWorks) {
  SpearOptions options;
  options.initial_budget = 20;
  options.min_budget = 5;
  auto spear = make_spear_scheduler(tiny_trained_policy(), options);
  Dag dag = testing::make_independent(6, 4, ResourceVector{0.3, 0.3});
  const Time makespan = validated_makespan(*spear, dag, cap());
  EXPECT_GE(makespan, 8);  // 6 tasks x 0.3 => 3 waves of <=3 concurrent...
  EXPECT_LE(makespan, 24);
}

TEST(Spear, RespectsPolicyReadyWindow) {
  // DAG wider than the policy's ready window: must still schedule all tasks
  // through the backlog.
  auto policy = tiny_trained_policy();  // max_ready = 6
  SpearOptions options;
  options.initial_budget = 20;
  options.min_budget = 5;
  auto spear = make_spear_scheduler(policy, options);
  Dag dag = testing::make_independent(12, 2, ResourceVector{0.2, 0.2});
  const Schedule s = spear->schedule(dag, cap());
  EXPECT_EQ(s.validate(dag, cap()), std::nullopt);
}

TEST(Spear, NullPolicyThrows) {
  EXPECT_THROW(make_spear_scheduler(nullptr), std::invalid_argument);
}

TEST(TrainDefaultPolicy, ProducesWorkingPolicy) {
  SpearTrainingOptions options;
  options.num_examples = 3;
  options.tasks_per_example = 8;
  options.imitation_epochs = 2;
  options.reinforce_epochs = 2;
  options.rollouts_per_example = 2;
  auto policy =
      std::make_shared<const Policy>(train_default_spear_policy(options));
  // The trained policy must drive a full sampled episode.
  DagGeneratorOptions gen;
  gen.num_tasks = 10;
  Rng rng(3);
  Dag dag = generate_random_dag(gen, rng);
  EnvOptions env_options;
  env_options.max_ready = policy->featurizer().options().max_ready;
  SchedulingEnv env(std::make_shared<Dag>(dag), cap(), env_options);
  DrlDecisionPolicy sampler(policy, /*greedy=*/false);
  Rng draws(4);
  const Time makespan = run_greedy(env, [&](const SchedulingEnv& state) {
    return sampler.pick(state, draws);
  });
  EXPECT_GT(makespan, 0);
}

}  // namespace
}  // namespace spear
