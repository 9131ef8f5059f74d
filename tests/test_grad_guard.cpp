#include "nn/grad_guard.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "dag/generator.h"
#include "rl/reinforce.h"
#include "support/builders.h"

namespace spear {
namespace {

Mlp make_net(Rng& rng) { return Mlp({3, 4, 2}, rng); }

TEST(GradGuard, LeavesSmallGradientsUntouched) {
  Rng rng(1);
  Mlp net = make_net(rng);
  Mlp::Gradients grads = net.make_gradients();
  grads.d_weights[0](0, 0) = 0.3;
  grads.d_bias[1][0] = -0.4;

  const GradGuardReport report = guard_gradients(grads, 10.0);
  EXPECT_FALSE(report.clipped);
  EXPECT_FALSE(report.skipped);
  EXPECT_DOUBLE_EQ(report.norm, 0.5);
  EXPECT_DOUBLE_EQ(grads.d_weights[0](0, 0), 0.3);  // unchanged
}

TEST(GradGuard, ClipsAnExplodingBatchToTheNormBallPreservingDirection) {
  Rng rng(2);
  Mlp net = make_net(rng);
  Mlp::Gradients grads = net.make_gradients();
  grads.d_weights[0](0, 0) = 3000.0;
  grads.d_weights[0](0, 1) = 4000.0;

  const GradGuardReport report = guard_gradients(grads, 1.0);
  EXPECT_TRUE(report.clipped);
  EXPECT_FALSE(report.skipped);
  EXPECT_DOUBLE_EQ(report.norm, 5000.0);
  EXPECT_NEAR(std::sqrt(grads.squared_norm()), 1.0, 1e-12);
  // Direction preserved: components keep their 3:4 ratio.
  EXPECT_NEAR(grads.d_weights[0](0, 0), 0.6, 1e-12);
  EXPECT_NEAR(grads.d_weights[0](0, 1), 0.8, 1e-12);
}

TEST(GradGuard, SkipsAndZeroesNonFiniteGradients) {
  Rng rng(3);
  Mlp net = make_net(rng);
  Mlp::Gradients grads = net.make_gradients();
  grads.d_weights[0](0, 0) = 7.0;
  grads.d_bias[0][1] = std::numeric_limits<double>::quiet_NaN();

  const GradGuardReport report = guard_gradients(grads, 10.0);
  EXPECT_TRUE(report.skipped);
  EXPECT_FALSE(report.clipped);
  // Zeroed so that even an accidental optimizer step is a no-op.
  EXPECT_DOUBLE_EQ(grads.squared_norm(), 0.0);
}

TEST(GradGuard, DisabledClippingStillDetectsNonFinite) {
  Rng rng(4);
  Mlp net = make_net(rng);
  Mlp::Gradients grads = net.make_gradients();
  grads.d_weights[0](0, 0) = 1e9;
  EXPECT_FALSE(guard_gradients(grads, 0.0).clipped);
  EXPECT_DOUBLE_EQ(grads.d_weights[0](0, 0), 1e9);

  grads.d_weights[0](0, 0) = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(guard_gradients(grads, 0.0).skipped);
}

TEST(GradGuard, WeightsFiniteDetectsPoisonedNets) {
  Rng rng(5);
  Mlp net = make_net(rng);
  EXPECT_TRUE(weights_finite(net));
}

TEST(GradGuard, ReinforceClipsEveryUpdateUnderATinyNormCeiling) {
  Rng rng(6);
  FeaturizerOptions featurizer;
  featurizer.max_ready = 4;
  featurizer.horizon = 6;
  Policy policy = Policy::make(featurizer, 2, rng, {16});

  ReinforceOptions options;
  options.epochs = 1;
  options.rollouts_per_example = 8;
  options.max_grad_norm = 1e-9;  // every real gradient "explodes" past this
  // Independent tasks: sampled rollouts pack them differently, so returns
  // vary and the advantages (hence gradients) are non-zero.
  const std::vector<Dag> dags = {testing::make_independent(4, 2)};
  ReinforceTrainer trainer(policy, dags, ResourceVector{1.0, 1.0}, options,
                           rng);
  while (!trainer.done()) trainer.run_epoch();
  const ReinforceResult& result = trainer.result();

  EXPECT_GT(result.clipped_updates, 0u);
  EXPECT_EQ(result.skipped_updates, 0u);
  EXPECT_TRUE(weights_finite(policy.net()));
}

}  // namespace
}  // namespace spear
