#include "mcts/transposition.h"

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "env/env.h"
#include "support/builders.h"

namespace spear {
namespace {

ResourceVector cap() { return ResourceVector{1.0, 1.0}; }

SchedulingEnv make_env(Dag dag) {
  EnvOptions options;
  options.max_ready = std::max<std::size_t>(dag.num_tasks(), 1);
  return SchedulingEnv(std::make_shared<Dag>(std::move(dag)), cap(), options);
}

StateKey key_of(const SchedulingEnv& env) {
  StateKey key;
  env.append_canonical_key(key);
  return key;
}

bool has(const TranspositionCache& cache, const StateKey& key) {
  Priors priors;
  return cache.find(key, &priors);
}

TEST(TranspositionCache, HitReturnsBitwiseIdenticalPriors) {
  TranspositionCache cache(8);
  const StateKey key = {1, 2, 3};
  // Exactly representable and deliberately awkward doubles: a hit must
  // return the stored words bit for bit, not a recomputed approximation.
  const Priors priors = {{2, 0.625}, {0, 0.3125}, {5, 1.0 / 3.0}};
  cache.insert(key, priors);

  Priors hit;
  ASSERT_TRUE(cache.find(key, &hit));
  ASSERT_EQ(hit.size(), priors.size());
  for (std::size_t i = 0; i < priors.size(); ++i) {
    EXPECT_EQ(hit[i].first, priors[i].first);
    EXPECT_EQ(hit[i].second, priors[i].second);  // exact, not NEAR
  }
}

TEST(TranspositionCache, MissesOnUnknownKey) {
  TranspositionCache cache(8);
  cache.insert({1, 2, 3}, {{0, 1.0}});
  Priors untouched = {{9, 0.5}};
  EXPECT_FALSE(cache.find({1, 2, 4}, &untouched));
  // A miss leaves the output alone.
  ASSERT_EQ(untouched.size(), 1u);
  EXPECT_EQ(untouched[0].first, 9);
  // Prefixes and extensions are distinct keys, not hash-degenerate hits.
  EXPECT_FALSE(has(cache, {1, 2}));
  EXPECT_FALSE(has(cache, {1, 2, 3, 0}));
}

TEST(TranspositionCache, DuplicateInsertKeepsFirstEntry) {
  TranspositionCache cache(8);
  cache.insert({7}, {{1, 0.75}});
  cache.insert({7}, {{9, 0.25}});
  Priors hit;
  ASSERT_TRUE(cache.find({7}, &hit));
  ASSERT_EQ(hit.size(), 1u);
  EXPECT_EQ(hit[0].first, 1);
  EXPECT_EQ(hit[0].second, 0.75);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(TranspositionCache, FifoEvictionUnderCap) {
  TranspositionCache cache(2);
  cache.insert({1}, {{1, 1.0}});
  cache.insert({2}, {{2, 1.0}});
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(has(cache, {1}));
  EXPECT_TRUE(has(cache, {2}));

  cache.insert({3}, {{3, 1.0}});  // evicts the OLDEST entry, key {1}
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(has(cache, {1}));
  EXPECT_TRUE(has(cache, {2}));
  EXPECT_TRUE(has(cache, {3}));
}

TEST(TranspositionCache, ZeroCapacityDisables) {
  TranspositionCache cache(0);
  cache.insert({1, 2}, {{0, 1.0}});
  EXPECT_FALSE(has(cache, {1, 2}));
  EXPECT_EQ(cache.size(), 0u);
}

// The RolloutStep suite pins the rollout cache: one global FIFO over every
// key, entries holding the greedy action and, once known, the makespan.
TEST(RolloutStep, StoresAndEvictsFifo) {
  SharedActionCache cache(2);
  cache.insert({1}, {10, 100});
  cache.insert({2}, {20, RolloutStep::kUnknownMakespan});
  RolloutStep step;
  ASSERT_TRUE(cache.find({1}, &step));
  EXPECT_EQ(step.action, 10);
  EXPECT_EQ(step.makespan, 100);

  cache.insert({3}, {30, 300});  // evicts key {1}, the oldest, despite its hit
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(cache.find({1}, &step));
  ASSERT_TRUE(cache.find({2}, &step));
  EXPECT_EQ(step.action, 20);
  EXPECT_EQ(step.makespan, RolloutStep::kUnknownMakespan);
  ASSERT_TRUE(cache.find({3}, &step));
  EXPECT_EQ(step.action, 30);
  cache.insert({4}, {40, 400});  // evicts {2}
  EXPECT_FALSE(cache.find({2}, &step));
  EXPECT_TRUE(cache.find({3}, &step));
  EXPECT_TRUE(cache.find({4}, &step));
}

// The search moves its keys in rather than copying them.
TEST(RolloutStep, MovedInKeyIsFound) {
  SharedActionCache cache(8);
  StateKey key = {4, 5, 6};
  cache.insert(std::move(key), {3, 42});
  RolloutStep step;
  ASSERT_TRUE(cache.find({4, 5, 6}, &step));
  EXPECT_EQ(step.action, 3);
  EXPECT_EQ(step.makespan, 42);
  EXPECT_EQ(cache.size(), 1u);
}

// The ActionCache cases pin the action half of an entry, inserted with
// copied keys; kProcessAction is -1, so a cached process step must read back
// as itself.
TEST(ActionCache, DuplicateInsertKeepsFirstEntry) {
  SharedActionCache cache(4);
  cache.insert({5}, {SchedulingEnv::kProcessAction, 10});
  cache.insert({5}, {2, 20});
  RolloutStep step;
  ASSERT_TRUE(cache.find({5}, &step));
  EXPECT_EQ(step.action, SchedulingEnv::kProcessAction);
  EXPECT_EQ(step.makespan, 10);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ActionCache, ZeroCapacityDisables) {
  SharedActionCache cache(0);
  cache.insert({1}, {42, 5});
  RolloutStep step{7, 70};
  EXPECT_FALSE(cache.find({1}, &step));
  // A miss leaves the output alone.
  EXPECT_EQ(step.action, 7);
  EXPECT_EQ(step.makespan, 70);
  EXPECT_EQ(cache.size(), 0u);
}

// The RolloutMemo cases pin the makespan half of an entry, inserted with
// moved-in keys as the search inserts them.
TEST(RolloutMemo, DuplicateMovedInsertKeepsFirst) {
  SharedActionCache cache(8);
  cache.insert(StateKey{7, 7}, {1, 10});
  StateKey again = {7, 7};
  cache.insert(std::move(again), {2, 20});
  RolloutStep step;
  ASSERT_TRUE(cache.find({7, 7}, &step));
  EXPECT_EQ(step.action, 1);
  EXPECT_EQ(step.makespan, 10);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(RolloutMemo, ZeroCapacityMovedInsertIsNoOp) {
  SharedActionCache cache(0);
  cache.insert(StateKey{1, 2}, {3, 5});
  RolloutStep step{-2, -1};
  EXPECT_FALSE(cache.find({1, 2}, &step));
  EXPECT_EQ(step.action, -2);
  EXPECT_EQ(step.makespan, -1);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(SharedActionCache, DuplicateInsertKeepsFirst) {
  SharedActionCache cache(16);
  cache.insert({7, 7}, {1, 10});
  cache.insert({7, 7}, {2, 20});
  RolloutStep step;
  ASSERT_TRUE(cache.find({7, 7}, &step));
  EXPECT_EQ(step.action, 1);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SharedActionCache, BoundedByCapacityWithFifoEviction) {
  // Overfilling evicts the oldest entries, never growing past the cap.
  SharedActionCache cache(8);
  for (std::uint64_t k = 0; k < 100; ++k) {
    cache.insert({k}, {static_cast<int>(k), 0});
  }
  EXPECT_EQ(cache.size(), 8u);
  RolloutStep step;
  EXPECT_FALSE(cache.find({91}, &step));
  for (std::uint64_t k = 92; k < 100; ++k) {
    ASSERT_TRUE(cache.find({k}, &step)) << "key " << k;
    EXPECT_EQ(step.action, static_cast<int>(k));
  }
}

TEST(SharedActionCache, ZeroCapacityDisables) {
  SharedActionCache cache(0);
  cache.insert({1}, {1, 0});
  RolloutStep step;
  EXPECT_FALSE(cache.find({1}, &step));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(CanonicalKey, IdenticalStatesProduceIdenticalKeys) {
  SchedulingEnv env = make_env(testing::make_independent(3, 4));
  const SchedulingEnv copy = env;
  EXPECT_EQ(key_of(env), key_of(copy));
}

TEST(CanonicalKey, DistinguishesProgressedStates) {
  SchedulingEnv env = make_env(testing::make_independent(3, 4));
  const StateKey before = key_of(env);
  SchedulingEnv stepped = env;
  stepped.step(0);  // schedule one ready task
  EXPECT_NE(before, key_of(stepped));
  SchedulingEnv other = env;
  other.step(1);  // a DIFFERENT ready task: also distinct from both
  EXPECT_NE(key_of(stepped), key_of(other));
  EXPECT_NE(before, key_of(other));
}

TEST(CanonicalKey, HashSpreadsDistinctKeys) {
  // Not a correctness requirement (lookups compare full keys), but the
  // mix should not be trivially degenerate on near-identical keys.
  const auto h1 = hash_state_key({0, 0, 1});
  const auto h2 = hash_state_key({0, 1, 0});
  const auto h3 = hash_state_key({0, 0, 1, 0});
  EXPECT_NE(h1, h2);
  EXPECT_NE(h1, h3);
}

}  // namespace
}  // namespace spear
