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

bool has(const SharedActionCache& cache, const StateKey& key) {
  return cache.find(key) != nullptr;
}

/// An entry whose priors hold `action` alone.
StateEntry entry_of(int action, Time makespan) {
  return StateEntry{{{action, 1.0}}, makespan};
}

// The TranspositionCache cases pin the priors half of an entry.
TEST(TranspositionCache, HitReturnsBitwiseIdenticalPriors) {
  SharedActionCache cache(8);
  const StateKey key = {1, 2, 3};
  // Exactly representable and deliberately awkward doubles: a hit must
  // return the stored words bit for bit, not a recomputed approximation.
  const Priors priors = {{2, 0.625}, {0, 0.3125}, {5, 1.0 / 3.0}};
  cache.insert(key, {priors, StateEntry::kUnknownMakespan});

  const StateEntry* hit = cache.find(key);
  ASSERT_NE(hit, nullptr);
  ASSERT_EQ(hit->priors.size(), priors.size());
  for (std::size_t i = 0; i < priors.size(); ++i) {
    EXPECT_EQ(hit->priors[i].first, priors[i].first);
    EXPECT_EQ(hit->priors[i].second, priors[i].second);  // exact, not NEAR
  }
  EXPECT_EQ(hit->makespan, StateEntry::kUnknownMakespan);
}

TEST(TranspositionCache, MissesOnUnknownKey) {
  SharedActionCache cache(8);
  cache.insert({1, 2, 3}, entry_of(0, 5));
  EXPECT_EQ(cache.find({1, 2, 4}), nullptr);
  // Prefixes and extensions are distinct keys, not hash-degenerate hits.
  EXPECT_FALSE(has(cache, {1, 2}));
  EXPECT_FALSE(has(cache, {1, 2, 3, 0}));
  EXPECT_TRUE(has(cache, {1, 2, 3}));
}

TEST(TranspositionCache, DuplicateInsertKeepsFirstEntry) {
  SharedActionCache cache(8);
  cache.insert({7}, {{{1, 0.75}}, StateEntry::kUnknownMakespan});
  cache.insert({7}, {{{9, 0.25}}, StateEntry::kUnknownMakespan});
  const StateEntry* hit = cache.find({7});
  ASSERT_NE(hit, nullptr);
  ASSERT_EQ(hit->priors.size(), 1u);
  EXPECT_EQ(hit->priors[0].first, 1);
  EXPECT_EQ(hit->priors[0].second, 0.75);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(TranspositionCache, FifoEvictionUnderCap) {
  SharedActionCache cache(2);
  cache.insert({1}, entry_of(1, StateEntry::kUnknownMakespan));
  cache.insert({2}, entry_of(2, StateEntry::kUnknownMakespan));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(has(cache, {1}));
  EXPECT_TRUE(has(cache, {2}));

  cache.insert({3}, entry_of(3, StateEntry::kUnknownMakespan));
  // Evicts the OLDEST entry, key {1}.
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(has(cache, {1}));
  EXPECT_TRUE(has(cache, {2}));
  EXPECT_TRUE(has(cache, {3}));
}

TEST(TranspositionCache, ZeroCapacityDisables) {
  SharedActionCache cache(0);
  cache.insert({1, 2}, entry_of(0, 5));
  EXPECT_FALSE(has(cache, {1, 2}));
  EXPECT_EQ(cache.size(), 0u);
}

// The RolloutStep suite pins the rollout half of the cache: one global FIFO
// over every key, entries holding the greedy action (the priors' front)
// and, once known, the makespan.
TEST(RolloutStep, StoresAndEvictsFifo) {
  SharedActionCache cache(2);
  cache.insert({1}, entry_of(10, 100));
  cache.insert({2}, entry_of(20, StateEntry::kUnknownMakespan));
  const StateEntry* step = cache.find({1});
  ASSERT_NE(step, nullptr);
  EXPECT_EQ(step->priors.front().first, 10);
  EXPECT_EQ(step->makespan, 100);

  cache.insert({3}, entry_of(30, 300));  // evicts key {1}, the oldest
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(has(cache, {1}));
  step = cache.find({2});
  ASSERT_NE(step, nullptr);
  EXPECT_EQ(step->priors.front().first, 20);
  EXPECT_EQ(step->makespan, StateEntry::kUnknownMakespan);
  step = cache.find({3});
  ASSERT_NE(step, nullptr);
  EXPECT_EQ(step->priors.front().first, 30);
  cache.insert({4}, entry_of(40, 400));  // evicts {2}
  EXPECT_FALSE(has(cache, {2}));
  EXPECT_TRUE(has(cache, {3}));
  EXPECT_TRUE(has(cache, {4}));
}

// The search moves its keys in rather than copying them.
TEST(RolloutStep, MovedInKeyIsFound) {
  SharedActionCache cache(8);
  StateKey key = {4, 5, 6};
  cache.insert(std::move(key), entry_of(3, 42));
  const StateEntry* step = cache.find({4, 5, 6});
  ASSERT_NE(step, nullptr);
  EXPECT_EQ(step->priors.front().first, 3);
  EXPECT_EQ(step->makespan, 42);
  EXPECT_EQ(cache.size(), 1u);
}

// The ActionCache cases pin the action half of an entry, inserted with
// copied keys; kProcessAction is -1, so a cached process step must read back
// as itself.
TEST(ActionCache, DuplicateInsertKeepsFirstEntry) {
  SharedActionCache cache(4);
  const StateKey key = {5};
  cache.insert(key, entry_of(SchedulingEnv::kProcessAction, 10));
  cache.insert(key, entry_of(2, 20));
  const StateEntry* step = cache.find(key);
  ASSERT_NE(step, nullptr);
  EXPECT_EQ(step->priors.front().first, SchedulingEnv::kProcessAction);
  EXPECT_EQ(step->makespan, 10);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ActionCache, ZeroCapacityDisables) {
  SharedActionCache cache(0);
  const StateKey key = {1};
  cache.insert(key, entry_of(42, 5));
  EXPECT_EQ(cache.find(key), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

// The RolloutMemo cases pin the makespan half of an entry, inserted with
// moved-in keys as the search inserts them.
TEST(RolloutMemo, DuplicateMovedInsertKeepsFirst) {
  SharedActionCache cache(8);
  cache.insert(StateKey{7, 7}, entry_of(1, 10));
  StateKey again = {7, 7};
  cache.insert(std::move(again), entry_of(2, 20));
  const StateEntry* step = cache.find({7, 7});
  ASSERT_NE(step, nullptr);
  EXPECT_EQ(step->priors.front().first, 1);
  EXPECT_EQ(step->makespan, 10);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(RolloutMemo, ZeroCapacityMovedInsertIsNoOp) {
  SharedActionCache cache(0);
  cache.insert(StateKey{1, 2}, entry_of(3, 5));
  EXPECT_EQ(cache.find({1, 2}), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(SharedActionCache, DuplicateInsertKeepsFirst) {
  SharedActionCache cache(16);
  cache.insert({7, 7}, entry_of(1, 10));
  cache.insert({7, 7}, entry_of(2, 20));
  const StateEntry* step = cache.find({7, 7});
  ASSERT_NE(step, nullptr);
  EXPECT_EQ(step->priors.front().first, 1);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SharedActionCache, BoundedByCapacityWithFifoEviction) {
  // Overfilling evicts the oldest entries, never growing past the cap.
  SharedActionCache cache(8);
  for (std::uint64_t k = 0; k < 100; ++k) {
    cache.insert({k}, entry_of(static_cast<int>(k), 0));
  }
  EXPECT_EQ(cache.size(), 8u);
  EXPECT_FALSE(has(cache, {91}));
  for (std::uint64_t k = 92; k < 100; ++k) {
    const StateEntry* step = cache.find({k});
    ASSERT_NE(step, nullptr) << "key " << k;
    EXPECT_EQ(step->priors.front().first, static_cast<int>(k));
  }
}

TEST(SharedActionCache, ZeroCapacityDisables) {
  SharedActionCache cache(0);
  cache.insert({1}, entry_of(1, 0));
  EXPECT_FALSE(has(cache, {1}));
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
