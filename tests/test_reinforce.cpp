#include "rl/reinforce.h"

#include <memory>

#include <gtest/gtest.h>

#include "common/stats.h"
#include "dag/generator.h"
#include "rl/two_phase.h"
#include "support/builders.h"

namespace spear {
namespace {

ResourceVector cap() { return ResourceVector{1.0, 1.0}; }

Policy make_tiny_policy(Rng& rng) {
  FeaturizerOptions options;
  options.max_ready = 4;
  options.horizon = 6;
  return Policy::make(options, 2, rng, {16});
}

TEST(Reinforce, ValidatesArguments) {
  Rng rng(1);
  Policy policy = make_tiny_policy(rng);
  EXPECT_THROW(ReinforceTrainer(policy, {}, cap(), {}, rng),
               std::invalid_argument);
  ReinforceOptions bad;
  bad.rollouts_per_example = 0;
  const std::vector<Dag> dags = {testing::make_chain({1, 2})};
  EXPECT_THROW(ReinforceTrainer(policy, dags, cap(), bad, rng),
               std::invalid_argument);
}

TEST(Reinforce, RecordsOneEntryPerEpoch) {
  Rng rng(2);
  Policy policy = make_tiny_policy(rng);
  const std::vector<Dag> dags = {testing::make_chain({2, 3})};
  ReinforceOptions options;
  options.epochs = 4;
  options.rollouts_per_example = 3;
  ReinforceTrainer trainer(policy, dags, cap(), options, rng);
  while (!trainer.done()) trainer.run_epoch();
  const auto& result = trainer.result();
  ASSERT_EQ(result.epoch_mean_makespan.size(), 4u);
  // A 2-task chain always has makespan 5 regardless of policy.
  for (double m : result.epoch_mean_makespan) EXPECT_DOUBLE_EQ(m, 5.0);
}

TEST(Reinforce, DeterministicGivenSeeds) {
  DagGeneratorOptions gen;
  gen.num_tasks = 8;
  Rng dag_rng(4);
  const auto dags = generate_random_dags(gen, 2, dag_rng);
  auto run = [&](std::uint64_t seed) {
    Rng rng(seed);
    Policy policy = make_tiny_policy(rng);
    ReinforceOptions options;
    options.epochs = 3;
    options.rollouts_per_example = 3;
    Rng train_rng(seed + 100);
    ReinforceTrainer trainer(policy, dags, cap(), options, train_rng);
    while (!trainer.done()) trainer.run_epoch();
    return trainer.result().epoch_mean_makespan;
  };
  EXPECT_EQ(run(5), run(5));
}

TEST(Reinforce, ImprovesSchedulingOnPackingProblem) {
  // A workload with a real decision: pairs of complementary tasks pack into
  // half the time if scheduled in the right combination.  Starting from a
  // CP-pretrained policy, REINFORCE should not regress and typically
  // improves the mean makespan.
  DagGeneratorOptions gen;
  gen.num_tasks = 12;
  Rng dag_rng(6);
  const auto dags = generate_random_dags(gen, 3, dag_rng);

  Rng rng(7);
  Policy policy = make_tiny_policy(rng);
  ImitationOptions imitation;
  imitation.epochs = 10;

  ReinforceOptions options;
  options.epochs = 25;
  options.rollouts_per_example = 6;
  options.optimizer.learning_rate = 1e-3;
  TwoPhaseTrainer trainer(policy, dags, cap(), imitation, options, rng);
  while (!trainer.done()) trainer.run_epoch();
  const auto& result = trainer.reinforce_result();

  const auto& curve = result.epoch_mean_makespan;
  ASSERT_EQ(curve.size(), 25u);
  const double early =
      mean(std::vector<double>(curve.begin(), curve.begin() + 5));
  const double late =
      mean(std::vector<double>(curve.end() - 5, curve.end()));
  // Allow noise but demand no serious regression.
  EXPECT_LE(late, early * 1.05);
}

TEST(Reinforce, EpisodeReturnsCountEverySlotEvenWithJumps) {
  // Process actions jump to the next completion, yet the per-epoch mean
  // makespan must still equal the true makespan (chain of total runtime
  // 7 => makespan 7).
  Rng rng(8);
  Policy policy = make_tiny_policy(rng);
  const std::vector<Dag> dags = {testing::make_chain({3, 4})};
  ReinforceOptions options;
  options.epochs = 1;
  options.rollouts_per_example = 2;
  ReinforceTrainer trainer(policy, dags, cap(), options, rng);
  trainer.run_epoch();
  EXPECT_DOUBLE_EQ(trainer.result().epoch_mean_makespan[0], 7.0);
}

}  // namespace
}  // namespace spear
