// Transposition cache for MCTS (DESIGN.md §11).
//
// Different action orders frequently reach the same scheduling state (e.g.
// scheduling tasks A then B at the same instant vs B then A), and with
// cross-decision tree reuse the same states recur decision after decision.
// The cache maps a canonical state key — built by
// SchedulingEnv::append_canonical_key from (elapsed time, running set,
// ready set, backlog, pending retries) — to the guide's prior ordering, so
// a repeated state costs a hash probe instead of a network forward.
//
// Only PRIORS are cached, never values: two transposed states share the
// same action distribution (their featurizations are bit-identical, see
// append_canonical_key) but sit at different tree positions with different
// rollout histories.  Lookups compare the FULL key, not just its hash, so
// a hit always returns priors bitwise-identical to a fresh evaluation —
// search results with the cache on equal the cache-off results bit for bit
// (prior evaluation consumes no RNG).
//
// Eviction is FIFO under a fixed entry cap: scheduling states are visited
// in loosely time-ordered waves, so the oldest entries are the least likely
// to recur.  FIFO also keeps eviction deterministic — no access-time state.
// The cache is single-threaded by design: the central evaluator is the only
// client (workers never probe it), so no locking is needed.

#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

namespace spear {

class TranspositionCache {
 public:
  /// The cached value: a guide prior ordering as produced by
  /// DecisionPolicy::action_weights (descending weight, ties stable).
  using Priors = std::vector<std::pair<int, double>>;
  using Key = std::vector<std::uint64_t>;

  /// `capacity` = max cached entries; 0 disables the cache entirely
  /// (find() always misses, insert() is a no-op).
  explicit TranspositionCache(std::size_t capacity) : capacity_(capacity) {}

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return entries_.size(); }

  /// Cached priors for `key`, or nullptr on a miss.  The pointer is valid
  /// until the next insert() (which may evict).
  const Priors* find(const Key& key) const;

  /// Inserts (evicting the oldest entry when full).  Duplicate keys keep
  /// the existing entry — the first evaluation wins, matching the
  /// bit-identity contract (re-evaluation yields the same priors anyway).
  void insert(const Key& key, Priors priors);

  /// Drops every entry (the scheduler clears between schedule() calls —
  /// keys do not encode the DAG identity).
  void clear();

  /// splitmix64-style mix of the key words.  Collisions are harmless
  /// (buckets chain and the full key is compared); the mix only needs to
  /// spread the buckets.
  static std::uint64_t hash_key(const Key& key);

 private:
  struct KeyHash {
    std::uint64_t operator()(const Key& key) const { return hash_key(key); }
  };

  std::size_t capacity_;
  std::unordered_map<Key, Priors, KeyHash> entries_;
  /// Insertion order for FIFO eviction.
  std::deque<Key> order_;
};

/// Canonical-state -> greedy-rollout-action cache shared by ALL
/// leaf-search workers (DESIGN.md §11/§15).
///
/// Greedy rollouts are pure functions of the state: the same canonical key
/// always resolves to the same argmax action, so repeated rollout states
/// cost a hash probe instead of a network forward.  Repetition is the
/// common case, not the exception — expanding a node's highest-prior child
/// replays the parent's greedy rollout state for state (guided expansion
/// pops actions in prior order, and the greedy rollout took exactly the
/// top-prior action), and every descent that parks on an already-covered
/// node re-walks a cached suffix.  Never consulted for sampling rollouts:
/// a sampled step consumes RNG, so skipping the draw would shift every
/// later draw in that rollout's stream.
///
/// Shared rather than per-worker: private caches fragment as workers are
/// added — the same rollout state missed independently in every worker's
/// cache, so total forwards GREW with the worker count (misses roughly
/// tripled from 1 to 8 workers in BENCH_mcts_leaf_parallel.json).  One
/// shared cache keeps the single-worker miss rate: whichever worker
/// evaluates a state first serves every other worker's later probe.
///
/// Sharded: the key hash picks one of a power-of-two number of
/// mutex-guarded shards, so concurrent probes rarely contend.  Within a
/// shard: full-key compare, FIFO eviction, duplicate inserts keep the first
/// entry, capacity 0 disables — the TranspositionCache contract.  With one
/// shard, eviction is one global FIFO and the cache is fully deterministic.
///
/// Determinism at several workers: a hit is bit-identical to the forward
/// it skipped — which worker inserted first is timing-dependent, but every
/// possible cache content yields the same actions.  Placements therefore
/// stay bit-identical across worker counts and runs; only the hit/miss
/// SPLIT (never the probe total) varies at >1 workers.
class SharedActionCache {
 public:
  using Key = TranspositionCache::Key;

  /// `capacity` = max entries across all shards (0 disables); `shards` is
  /// rounded up to a power of two.
  explicit SharedActionCache(std::size_t capacity, std::size_t shards = 8);

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const;

  /// Looks up `key`; on a hit copies the action into *action and returns
  /// true.  (By value, unlike TranspositionCache::find — the shard lock is
  /// released before returning, so a pointer into the map would race.)
  bool find(const Key& key, int* action) const;

  /// Inserts (evicting the shard's oldest entry when the shard is full).
  /// Duplicate keys keep the existing entry.
  void insert(const Key& key, int action);

  /// Drops every entry in every shard.
  void clear();

 private:
  struct KeyHash {
    std::uint64_t operator()(const Key& key) const {
      return TranspositionCache::hash_key(key);
    }
  };
  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<Key, int, KeyHash> entries;
    /// Insertion order for per-shard FIFO eviction.
    std::deque<Key> order;
  };

  Shard& shard_for(const Key& key) const {
    return shards_[TranspositionCache::hash_key(key) & shard_mask_];
  }

  std::size_t capacity_;
  std::size_t shard_capacity_;
  std::uint64_t shard_mask_;
  std::unique_ptr<Shard[]> shards_;
};

}  // namespace spear
