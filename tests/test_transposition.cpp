#include "mcts/transposition.h"

#include <cstdint>
#include <memory>
#include <thread>
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

// The rollout memo moves its keys in rather than copying them.
TEST(RolloutMemo, MovedInKeyIsFound) {
  RolloutMemo memo(8);
  StateKey key = {4, 5, 6};
  memo.insert(std::move(key), Time{42});
  Time makespan = 0;
  ASSERT_TRUE(memo.find({4, 5, 6}, &makespan));
  EXPECT_EQ(makespan, 42);
  EXPECT_EQ(memo.size(), 1u);
}

TEST(RolloutMemo, DuplicateMovedInsertKeepsFirst) {
  RolloutMemo memo(8);
  memo.insert(StateKey{7, 7}, Time{10});
  StateKey again = {7, 7};
  memo.insert(std::move(again), Time{20});
  Time makespan = 0;
  ASSERT_TRUE(memo.find({7, 7}, &makespan));
  EXPECT_EQ(makespan, 10);
  EXPECT_EQ(memo.size(), 1u);
}

TEST(RolloutMemo, ZeroCapacityMovedInsertIsNoOp) {
  RolloutMemo memo(0);
  memo.insert(StateKey{1, 2}, Time{5});
  Time makespan = -1;
  EXPECT_FALSE(memo.find({1, 2}, &makespan));
  EXPECT_EQ(makespan, -1);
  EXPECT_EQ(memo.size(), 0u);
}

TEST(SharedActionCache, FindInsertAcrossShards) {
  SharedActionCache cache(64, 4);
  EXPECT_EQ(cache.size(), 0u);
  for (std::uint64_t k = 0; k < 40; ++k) {
    cache.insert({k, k + 1}, static_cast<int>(k));
  }
  EXPECT_EQ(cache.size(), 40u);
  int action = -1;
  for (std::uint64_t k = 0; k < 40; ++k) {
    ASSERT_TRUE(cache.find({k, k + 1}, &action)) << "key " << k;
    EXPECT_EQ(action, static_cast<int>(k));
  }
  EXPECT_FALSE(cache.find({999, 1000}, &action));
}

TEST(SharedActionCache, DuplicateInsertKeepsFirst) {
  SharedActionCache cache(16, 2);
  cache.insert({7, 7}, 1);
  cache.insert({7, 7}, 2);
  int action = -1;
  ASSERT_TRUE(cache.find({7, 7}, &action));
  EXPECT_EQ(action, 1);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SharedActionCache, BoundedByCapacityWithFifoEviction) {
  // 8 entries over 2 shards = 4 per shard; overfilling evicts the oldest
  // per shard, never growing past the per-shard cap.
  SharedActionCache cache(8, 2);
  for (std::uint64_t k = 0; k < 100; ++k) {
    cache.insert({k}, static_cast<int>(k));
  }
  EXPECT_LE(cache.size(), 8u);
  EXPECT_GT(cache.size(), 0u);
}

TEST(SharedActionCache, ZeroCapacityDisables) {
  SharedActionCache cache(0, 8);
  cache.insert({1}, 1);
  int action = -1;
  EXPECT_FALSE(cache.find({1}, &action));
  EXPECT_EQ(cache.size(), 0u);
}

// The ActionCache suite pins the single-shard cache: one shard is one
// global FIFO over every key, which the single-worker leaf search relies on
// for deterministic hit/miss counts.
TEST(ActionCache, StoresAndEvictsFifo) {
  SharedActionCache cache(2, 1);
  cache.insert({1}, 10);
  cache.insert({2}, 20);
  int action = -1;
  ASSERT_TRUE(cache.find({1}, &action));
  EXPECT_EQ(action, 10);

  cache.insert({3}, 30);  // evicts key {1}, the oldest, despite its hit
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(cache.find({1}, &action));
  ASSERT_TRUE(cache.find({2}, &action));
  EXPECT_EQ(action, 20);
  ASSERT_TRUE(cache.find({3}, &action));
  EXPECT_EQ(action, 30);
  cache.insert({4}, 40);  // evicts {2}
  EXPECT_FALSE(cache.find({2}, &action));
  EXPECT_TRUE(cache.find({3}, &action));
  EXPECT_TRUE(cache.find({4}, &action));
}

TEST(ActionCache, DuplicateInsertKeepsFirstEntry) {
  SharedActionCache cache(4, 1);
  cache.insert({5}, 1);
  cache.insert({5}, 2);
  int action = -1;
  ASSERT_TRUE(cache.find({5}, &action));
  EXPECT_EQ(action, 1);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ActionCache, ZeroCapacityDisables) {
  SharedActionCache cache(0, 1);
  cache.insert({1}, 42);
  int action = -1;
  EXPECT_FALSE(cache.find({1}, &action));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(SharedActionCache, ConcurrentMixedUseIsSafe) {
  SharedActionCache cache(256, 8);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, t] {
      int action = -1;
      const auto salt = static_cast<std::uint64_t>(t % 2);
      for (std::uint64_t k = 0; k < 500; ++k) {
        const StateKey key{k % 64, salt};
        // Values are keyed deterministically, so a hit must agree.
        const int expected = static_cast<int>((k % 64) ^ salt);
        if (cache.find(key, &action)) {
          EXPECT_EQ(action, expected);
        } else {
          cache.insert(key, expected);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
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
