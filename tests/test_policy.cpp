#include "rl/policy.h"

#include <memory>

#include <gtest/gtest.h>

#include "dag/generator.h"
#include "mcts/policies.h"
#include "support/builders.h"

namespace spear {
namespace {

ResourceVector cap() { return ResourceVector{1.0, 1.0}; }

Policy make_tiny_policy(Rng& rng, std::size_t max_ready = 3,
                        Time horizon = 4) {
  FeaturizerOptions options;
  options.max_ready = max_ready;
  options.horizon = horizon;
  return Policy::make(options, 2, rng, {8});
}

SchedulingEnv make_env(Dag dag, std::size_t max_ready = 3) {
  EnvOptions options;
  options.max_ready = max_ready;
  return SchedulingEnv(std::make_shared<Dag>(std::move(dag)), cap(), options);
}

/// Plays one full episode sampling from `policy` through the search's
/// rollout pick; returns the makespan.
Time sampled_episode(Policy policy, SchedulingEnv env, Rng& rng) {
  DrlDecisionPolicy sampler(std::make_shared<const Policy>(std::move(policy)),
                            /*greedy=*/false);
  return run_greedy(env, [&](const SchedulingEnv& state) {
    return sampler.pick(state, rng);
  });
}

TEST(Policy, MakeBuildsMatchingShapes) {
  Rng rng(1);
  Policy policy = Policy::make(FeaturizerOptions{}, 2, rng);
  EXPECT_EQ(policy.net().input_dim(), policy.featurizer().input_dim(2));
  EXPECT_EQ(policy.net().output_dim(), 16u);
  // Paper topology: 256/32/32 hidden.
  EXPECT_EQ(policy.net().sizes(),
            (std::vector<std::size_t>{163, 256, 32, 32, 16}));
}

TEST(Policy, RejectsMismatchedNetwork) {
  Rng rng(2);
  Mlp wrong({10, 4}, rng);
  EXPECT_THROW(Policy(Featurizer{}, std::move(wrong), 2),
               std::invalid_argument);
}

TEST(Policy, MaskedSoftmaxNormalizesOverValid) {
  const std::vector<double> logits = {1.0, 2.0, 3.0};
  const std::vector<bool> mask = {true, false, true};
  const auto probs = Policy::masked_softmax(logits, mask);
  EXPECT_DOUBLE_EQ(probs[1], 0.0);
  EXPECT_NEAR(probs[0] + probs[2], 1.0, 1e-12);
  EXPECT_GT(probs[2], probs[0]);
}

TEST(Policy, MaskedSoftmaxAllMaskedThrows) {
  EXPECT_THROW(Policy::masked_softmax({1.0, 2.0}, {false, false}),
               std::logic_error);
  EXPECT_THROW(Policy::masked_softmax({1.0}, {true, true}),
               std::invalid_argument);
}

TEST(Policy, MaskedSoftmaxStableForExtremeLogits) {
  const auto probs =
      Policy::masked_softmax({1e4, -1e4, 0.0}, {true, true, false});
  EXPECT_NEAR(probs[0], 1.0, 1e-12);
  EXPECT_NEAR(probs[1], 0.0, 1e-12);
}

TEST(Policy, ValidOutputMaskMatchesEnv) {
  Rng rng(3);
  Policy policy = make_tiny_policy(rng);
  auto env = make_env(testing::make_independent(5, 2, ResourceVector{0.4, 0.4}));
  // 3 visible ready tasks, idle cluster: outputs 0..2 valid, process not.
  auto mask = policy.valid_output_mask(env);
  EXPECT_EQ(mask, (std::vector<bool>{true, true, true, false}));
  env.step(0);
  env.step(0);  // 0.8 used; third task (0.4) no longer fits
  mask = policy.valid_output_mask(env);
  EXPECT_EQ(mask, (std::vector<bool>{false, false, false, true}));
}

TEST(Policy, ActionProbsOnlyOnValidActions) {
  Rng rng(4);
  Policy policy = make_tiny_policy(rng);
  auto env = make_env(testing::make_independent(2, 2, ResourceVector{0.7, 0.7}));
  const auto probs = policy.action_probs(env);
  ASSERT_EQ(probs.size(), 4u);
  EXPECT_GT(probs[0], 0.0);
  EXPECT_GT(probs[1], 0.0);
  EXPECT_DOUBLE_EQ(probs[2], 0.0);  // empty ready slot
  EXPECT_DOUBLE_EQ(probs[3], 0.0);  // idle cluster: no process
  double sum = 0.0;
  for (double p : probs) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(Policy, SampleOnlyReturnsValidOutputs) {
  Rng rng(5);
  Policy policy = make_tiny_policy(rng);
  auto env = make_env(testing::make_independent(2, 2, ResourceVector{0.7, 0.7}));
  env.step(0);  // now only process is valid
  DrlDecisionPolicy sampler(std::make_shared<const Policy>(std::move(policy)),
                            /*greedy=*/false);
  Rng draws(6);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(sampler.pick(env, draws), SchedulingEnv::kProcessAction);
  }
}

TEST(Policy, GreedyPicksArgmax) {
  Rng rng(7);
  Policy policy = make_tiny_policy(rng);
  auto env = make_env(testing::make_independent(3, 2, ResourceVector{0.2, 0.2}));
  const auto probs = policy.action_probs(env);
  const auto greedy = policy.greedy_output(env);
  for (std::size_t o = 0; o < probs.size(); ++o) {
    EXPECT_LE(probs[o], probs[greedy] + 1e-15);
  }
}

TEST(Policy, ToEnvActionMapping) {
  Rng rng(8);
  Policy policy = make_tiny_policy(rng);
  EXPECT_EQ(policy.to_env_action(0), 0);
  EXPECT_EQ(policy.to_env_action(2), 2);
  EXPECT_EQ(policy.to_env_action(3), SchedulingEnv::kProcessAction);
}

TEST(Policy, RolloutEpisodeTerminatesWithValidSchedule) {
  Rng rng(9);
  Policy policy = make_tiny_policy(rng);
  DagGeneratorOptions options;
  options.num_tasks = 15;
  Rng gen(10);
  Dag dag = generate_random_dag(options, gen);
  auto env = make_env(dag);
  Rng sampler(11);
  const Time makespan = sampled_episode(std::move(policy), env, sampler);
  DagFeatures features(dag);
  EXPECT_GE(makespan, features.critical_path());
  EXPECT_LE(makespan, dag.total_runtime());
}

TEST(Policy, RolloutJumpAndSlotSemanticsBothTerminate) {
  Rng rng(12);
  Policy policy = make_tiny_policy(rng);
  Dag dag = testing::make_chain({3, 2, 4});
  auto env = make_env(dag);
  Rng sampler(13);
  // A chain admits exactly one schedule shape: the serial time.
  EXPECT_EQ(sampled_episode(std::move(policy), env, sampler), 9);
}

}  // namespace
}  // namespace spear
