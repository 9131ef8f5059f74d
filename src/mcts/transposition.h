// Canonical-state caches for MCTS (DESIGN.md §11).
//
// Different action orders frequently reach the same scheduling state (e.g.
// scheduling tasks A then B at the same instant vs B then A), and with
// cross-decision tree reuse the same states recur decision after decision.
// A StateCache maps a canonical state key — built by
// SchedulingEnv::append_canonical_key from (elapsed time, running set,
// ready set, backlog, pending retries) — to a value the guide computed from
// that state alone, so a repeated state costs a hash probe instead of a
// network forward or a whole rollout.  The search keeps three of them,
// armed per schedule() (keys do not encode the DAG identity):
//
//  * TranspositionCache (one shard): state -> guide prior ordering.  Only
//    PRIORS are cached, never values: two transposed states share the same
//    action distribution (their featurizations are bit-identical, see
//    append_canonical_key) but sit at different tree positions with
//    different rollout histories.  Only the coordinator probes it.
//  * SharedActionCache (one shard at one worker, 8 at several): state ->
//    greedy rollout action, shared by ALL search workers (the serial
//    search's one worker included).  Greedy rollouts are pure functions
//    of the state, and repetition is the common case — expanding a node's
//    highest-prior child replays the parent's greedy rollout state for
//    state, and every descent that parks on an already-covered node
//    re-walks a cached suffix.  Shared rather
//    than per-worker: private caches miss independently on the same
//    states, so total forwards grew with the worker count.  Never consulted
//    for sampling rollouts: a sampled step consumes RNG, so skipping the
//    draw would shift every later draw in that rollout's stream.  A guide
//    that keeps the cache marks it (mark_kept_by_pure_guide): the mark
//    rides on the cache object itself, so a decorator that forwards
//    share_rollout_cache forwards the mark too.
//  * RolloutMemo (one shard, serial search only): state -> final makespan
//    of the greedy rollout that passed it.  With a greedy guide and faults
//    off a whole rollout is a pure function of its start state, and the
//    key holds the absolute `now` and every running task's finish time, so
//    it fixes the final makespan too (every task finished before `now`
//    ends before every task still to finish).  A rollout that reaches a
//    memoized state stops there with the stored makespan, and a finished
//    rollout stores its makespan under every state it passed.  Armed only
//    when the action cache carries the pure-guide mark and faults are off:
//    fault draws are not in the key, so under faults the same key can
//    finish at different makespans.
//
// Contract: lookups compare the FULL key, not just its hash, so a hit is
// bitwise-identical to a fresh evaluation and search results with a cache
// on equal the cache-off results bit for bit.  Eviction is FIFO per shard
// under a fixed entry cap (states are visited in loosely time-ordered
// waves, so the oldest entries are the least likely to recur; FIFO also
// keeps eviction free of access-time state).  A duplicate insert keeps the
// first entry.  Capacity 0 disables the cache (find always misses, insert
// is a no-op).  The key hash picks one of a power-of-two number of
// mutex-guarded shards; with one shard eviction is one global FIFO and the
// hit/miss counts are deterministic.  At several shards and workers only
// the hit/miss SPLIT (never the probe total or any result) depends on
// which worker inserted first.
//
// Cost: every find() and insert() hashes its key exactly once.  That one
// value picks the shard and probes the bucket (transparent lookup with a
// borrowed {key, hash} probe); entries store their hash, so neither a
// rehash nor an eviction hashes a key again.

#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dag/dag.h"

namespace spear {

/// A canonical state key (SchedulingEnv::append_canonical_key).
using StateKey = std::vector<std::uint64_t>;

/// splitmix64-style mix of the key words.  Collisions are harmless
/// (buckets chain and the full key is compared); the mix only needs to
/// spread buckets and shards.
std::uint64_t hash_state_key(const StateKey& key);

template <typename V>
class StateCache {
 public:
  using Key = StateKey;

  /// `capacity` = max entries across all shards (0 disables); `shards` is
  /// rounded up to a power of two.
  explicit StateCache(std::size_t capacity, std::size_t shards = 1);

  std::size_t size() const;

  /// Looks up `key`; on a hit copies the value into *out and returns true.
  /// By value: the shard lock is released before returning, so a pointer
  /// into the map would race.
  bool find(const Key& key, V* out) const;

  /// Inserts (evicting the shard's oldest entry when the shard is full).
  /// Duplicate keys keep the existing entry.
  void insert(const Key& key, V value);
  /// As above, taking ownership of `key` instead of copying it (a duplicate
  /// leaves `key` untouched).
  void insert(Key&& key, V value);

 private:
  /// The stored form of a key: its hash travels with it.
  struct HashedKey {
    Key key;
    std::uint64_t hash;
  };
  /// A borrowed lookup key with its precomputed hash.
  struct Probe {
    const Key* key;
    std::uint64_t hash;
  };
  struct KeyHash {
    using is_transparent = void;
    std::size_t operator()(const HashedKey& k) const noexcept {
      return k.hash;
    }
    std::size_t operator()(const Probe& p) const noexcept { return p.hash; }
  };
  /// Full-key compare; the hash compare only rejects early.
  struct KeyEqual {
    using is_transparent = void;
    static bool same(std::uint64_t ha, const Key& a, std::uint64_t hb,
                     const Key& b) {
      return ha == hb && a == b;
    }
    bool operator()(const HashedKey& a, const HashedKey& b) const {
      return same(a.hash, a.key, b.hash, b.key);
    }
    bool operator()(const Probe& a, const HashedKey& b) const {
      return same(a.hash, *a.key, b.hash, b.key);
    }
    bool operator()(const HashedKey& a, const Probe& b) const {
      return same(a.hash, a.key, b.hash, *b.key);
    }
  };
  /// The one insert path: K is `const Key&` (copied in) or `Key` (moved).
  template <typename K>
  void insert_impl(K&& key, V value);

  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<HashedKey, V, KeyHash, KeyEqual> entries;
    /// Insertion order for per-shard FIFO eviction: the keys of `entries`
    /// (map nodes never move, so the pointers stay valid until erased).
    std::deque<const HashedKey*> order;
  };

  std::size_t capacity_;
  std::size_t shard_capacity_;
  std::uint64_t shard_mask_;
  std::unique_ptr<Shard[]> shards_;
};

/// A guide prior ordering as produced by DecisionPolicy::action_weights
/// (descending weight, ties stable).
using Priors = std::vector<std::pair<int, double>>;
using TranspositionCache = StateCache<Priors>;
using RolloutMemo = StateCache<Time>;

extern template class StateCache<Priors>;
extern template class StateCache<int>;
extern template class StateCache<Time>;

/// The rollout action cache: state -> greedy rollout action.  The mark says
/// that a guide kept the cache for picks that are a pure function of the
/// state (DrlDecisionPolicy in greedy mode); the search reads it after
/// offering the cache to every worker guide, to arm the RolloutMemo.
class SharedActionCache : public StateCache<int> {
 public:
  using StateCache<int>::StateCache;

  void mark_kept_by_pure_guide() { kept_by_pure_guide_ = true; }
  bool kept_by_pure_guide() const { return kept_by_pure_guide_; }

 private:
  bool kept_by_pure_guide_ = false;
};

}  // namespace spear
