#include "rl/imitation.h"

#include <memory>

#include <gtest/gtest.h>

#include "dag/generator.h"
#include "sched/critical_path.h"
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

std::vector<Dag> tiny_training_set(std::size_t count, std::uint64_t seed) {
  DagGeneratorOptions options;
  options.num_tasks = 10;
  Rng rng(seed);
  return generate_random_dags(options, count, rng);
}

TEST(Imitation, DemonstrationsAreWellFormed) {
  Rng rng(1);
  Policy policy = make_tiny_policy(rng);
  const auto dags = tiny_training_set(3, 2);
  const auto demos = collect_cp_demonstrations(policy, dags, cap());
  ASSERT_FALSE(demos.empty());
  for (const auto& demo : demos) {
    EXPECT_EQ(demo.features.size(), policy.net().input_dim());
    EXPECT_EQ(demo.mask.size(), policy.num_outputs());
    ASSERT_GE(demo.target_output, 0);
    ASSERT_LT(static_cast<std::size_t>(demo.target_output),
              policy.num_outputs());
    // The teacher never demonstrates an invalid action.
    EXPECT_TRUE(demo.mask[static_cast<std::size_t>(demo.target_output)]);
  }
}

TEST(Imitation, TeacherPrefersCriticalPathAmongFittingTasks) {
  // Two ready tasks that both fit; b-levels 12 vs 3: the teacher must
  // demonstrate the high-b-level one (output index of that task).
  DagBuilder builder;
  const TaskId head = builder.add_task(2, ResourceVector{0.3, 0.3});
  const TaskId tail = builder.add_task(10, ResourceVector{0.3, 0.3});
  builder.add_edge(head, tail);
  builder.add_task(3, ResourceVector{0.3, 0.3});  // lone
  Dag dag = std::move(builder).build();

  Rng rng(3);
  Policy policy = make_tiny_policy(rng);
  const auto demos = collect_cp_demonstrations(policy, {dag}, cap());
  ASSERT_FALSE(demos.empty());
  // First decision: ready = {head, lone}; CP priority of head (12) wins.
  EXPECT_EQ(demos[0].target_output, 0);
  (void)head;
}

TEST(Imitation, TrainingReducesLoss) {
  Rng rng(4);
  Policy policy = make_tiny_policy(rng);
  const auto dags = tiny_training_set(4, 5);
  ImitationOptions options;
  options.epochs = 30;
  options.optimizer.learning_rate = 1e-3;  // faster for the test
  ImitationTrainer trainer(
      policy, collect_cp_demonstrations(policy, dags, cap()), options, rng);
  while (!trainer.done()) trainer.run_epoch();
  const auto& result = trainer.result();
  ASSERT_EQ(result.epoch_losses.size(), 30u);
  EXPECT_LT(result.epoch_losses.back(), result.epoch_losses.front() * 0.9);
}

TEST(Imitation, TrainedPolicyImitatesTeacherGreedily) {
  // After enough supervised epochs on a single tiny DAG, the greedy policy
  // action matches the teacher on the first decision.
  DagBuilder builder;
  const TaskId head = builder.add_task(2, ResourceVector{0.3, 0.3});
  const TaskId tail = builder.add_task(10, ResourceVector{0.3, 0.3});
  builder.add_edge(head, tail);
  builder.add_task(3, ResourceVector{0.3, 0.3});
  Dag dag = std::move(builder).build();

  Rng rng(6);
  Policy policy = make_tiny_policy(rng);
  ImitationOptions options;
  options.epochs = 150;
  options.optimizer.learning_rate = 1e-2;
  ImitationTrainer trainer(
      policy, collect_cp_demonstrations(policy, {dag}, cap()), options, rng);
  while (!trainer.done()) trainer.run_epoch();

  EnvOptions env_options;
  env_options.max_ready = 4;
  SchedulingEnv env(std::make_shared<Dag>(dag), cap(), env_options);
  EXPECT_EQ(policy.greedy_output(env), 0u);  // schedules the chain head
}

TEST(Imitation, ValidatesArguments) {
  Rng rng(7);
  Policy policy = make_tiny_policy(rng);
  EXPECT_THROW(ImitationTrainer(policy, {}, {}, rng), std::invalid_argument);
  ImitationOptions bad;
  bad.batch_size = 0;
  std::vector<Demonstration> demos(1);
  demos[0].features.assign(policy.net().input_dim(), 0.0);
  demos[0].mask.assign(policy.num_outputs(), true);
  EXPECT_THROW(ImitationTrainer(policy, demos, bad, rng),
               std::invalid_argument);
}

TEST(Imitation, DeterministicGivenSeeds) {
  const auto dags = tiny_training_set(2, 8);
  auto run = [&](std::uint64_t seed) {
    Rng rng(seed);
    Policy policy = make_tiny_policy(rng);
    ImitationOptions options;
    options.epochs = 5;
    Rng train_rng(seed + 1);
    ImitationTrainer trainer(
        policy, collect_cp_demonstrations(policy, dags, cap()), options,
        train_rng);
    while (!trainer.done()) trainer.run_epoch();
    return trainer.result().epoch_losses;
  };
  EXPECT_EQ(run(9), run(9));
}

}  // namespace
}  // namespace spear
