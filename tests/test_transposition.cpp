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

TranspositionCache::Key key_of(const SchedulingEnv& env) {
  TranspositionCache::Key key;
  env.append_canonical_key(key);
  return key;
}

TEST(TranspositionCache, HitReturnsBitwiseIdenticalPriors) {
  TranspositionCache cache(8);
  const TranspositionCache::Key key = {1, 2, 3};
  // Exactly representable and deliberately awkward doubles: a hit must
  // return the stored words bit for bit, not a recomputed approximation.
  const TranspositionCache::Priors priors = {
      {2, 0.625}, {0, 0.3125}, {5, 1.0 / 3.0}};
  cache.insert(key, priors);

  const TranspositionCache::Priors* hit = cache.find(key);
  ASSERT_NE(hit, nullptr);
  ASSERT_EQ(hit->size(), priors.size());
  for (std::size_t i = 0; i < priors.size(); ++i) {
    EXPECT_EQ((*hit)[i].first, priors[i].first);
    EXPECT_EQ((*hit)[i].second, priors[i].second);  // exact, not NEAR
  }
}

TEST(TranspositionCache, MissesOnUnknownKey) {
  TranspositionCache cache(8);
  cache.insert({1, 2, 3}, {{0, 1.0}});
  EXPECT_EQ(cache.find({1, 2, 4}), nullptr);
  // Prefixes and extensions are distinct keys, not hash-degenerate hits.
  EXPECT_EQ(cache.find({1, 2}), nullptr);
  EXPECT_EQ(cache.find({1, 2, 3, 0}), nullptr);
}

TEST(TranspositionCache, DuplicateInsertKeepsFirstEntry) {
  TranspositionCache cache(8);
  cache.insert({7}, {{1, 0.75}});
  cache.insert({7}, {{9, 0.25}});
  const auto* hit = cache.find({7});
  ASSERT_NE(hit, nullptr);
  ASSERT_EQ(hit->size(), 1u);
  EXPECT_EQ((*hit)[0].first, 1);
  EXPECT_EQ((*hit)[0].second, 0.75);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(TranspositionCache, FifoEvictionUnderCap) {
  TranspositionCache cache(2);
  cache.insert({1}, {{1, 1.0}});
  cache.insert({2}, {{2, 1.0}});
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_NE(cache.find({1}), nullptr);
  EXPECT_NE(cache.find({2}), nullptr);

  cache.insert({3}, {{3, 1.0}});  // evicts the OLDEST entry, key {1}
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.find({1}), nullptr);
  EXPECT_NE(cache.find({2}), nullptr);
  EXPECT_NE(cache.find({3}), nullptr);
}

TEST(TranspositionCache, ZeroCapacityDisables) {
  TranspositionCache cache(0);
  cache.insert({1, 2}, {{0, 1.0}});
  EXPECT_EQ(cache.find({1, 2}), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(TranspositionCache, ClearDropsEverything) {
  TranspositionCache cache(4);
  cache.insert({1}, {{0, 1.0}});
  cache.insert({2}, {{1, 1.0}});
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.find({1}), nullptr);
  // The FIFO queue was cleared too: refills evict in the NEW order.
  cache.insert({3}, {{2, 1.0}});
  EXPECT_NE(cache.find({3}), nullptr);
}

TEST(ActionCache, StoresAndEvictsFifo) {
  ActionCache cache(2);
  cache.insert({1}, 10);
  cache.insert({2}, 20);
  const int* hit = cache.find({1});
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, 10);

  cache.insert({3}, 30);  // evicts key {1}
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.find({1}), nullptr);
  ASSERT_NE(cache.find({2}), nullptr);
  EXPECT_EQ(*cache.find({2}), 20);
  ASSERT_NE(cache.find({3}), nullptr);
  EXPECT_EQ(*cache.find({3}), 30);
}

TEST(ActionCache, DuplicateInsertKeepsFirstEntry) {
  ActionCache cache(4);
  cache.insert({5}, 1);
  cache.insert({5}, 2);
  ASSERT_NE(cache.find({5}), nullptr);
  EXPECT_EQ(*cache.find({5}), 1);
}

TEST(ActionCache, ZeroCapacityDisables) {
  ActionCache cache(0);
  cache.insert({1}, 42);
  EXPECT_EQ(cache.find({1}), nullptr);
  EXPECT_EQ(cache.size(), 0u);
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
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.find({1, 2}, &action));
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
  SharedActionCache cache(0);
  cache.insert({1}, 1);
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
        const SharedActionCache::Key key{k % 64, salt};
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
  const TranspositionCache::Key before = key_of(env);
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
  const auto h1 = TranspositionCache::hash_key({0, 0, 1});
  const auto h2 = TranspositionCache::hash_key({0, 1, 0});
  const auto h3 = TranspositionCache::hash_key({0, 0, 1, 0});
  EXPECT_NE(h1, h2);
  EXPECT_NE(h1, h3);
}

}  // namespace
}  // namespace spear
