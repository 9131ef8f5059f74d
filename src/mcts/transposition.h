// Canonical-state caches for MCTS (DESIGN.md §11).
//
// Different action orders frequently reach the same scheduling state (e.g.
// scheduling tasks A then B at the same instant vs B then A), and with
// cross-decision tree reuse the same states recur decision after decision.
// A StateCache maps a canonical state key — built by
// SchedulingEnv::append_canonical_key from (elapsed time, running set,
// ready set, backlog, pending retries) — to a value computed from that
// state alone, so a repeated state costs a hash probe instead of a network
// forward or a whole rollout.  The search owns two of them, built fresh per
// schedule() (keys do not encode the DAG identity):
//
//  * TranspositionCache: state -> guide prior ordering.  Only PRIORS are
//    cached, never values: two transposed states share the same action
//    distribution (their featurizations are bit-identical, see
//    append_canonical_key) but sit at different tree positions with
//    different rollout histories.
//  * SharedActionCache: state -> RolloutStep, the greedy rollout's action
//    there plus, once known, the makespan that rollout finished at.  With a
//    greedy guide a rollout step is a pure function of the state, and with
//    faults off so is the whole rest of the rollout: the key holds the
//    absolute `now` and every running task's finish time, so it fixes the
//    final makespan too.  A rollout that reaches a state with a known
//    makespan stops there; one that reaches a state with only an action
//    takes it without asking the guide.  Under faults the makespan stays
//    unknown (fault draws are not in the key).  Never used for sampling
//    rollouts: a sampled step consumes RNG, so skipping the draw would
//    shift every later draw in that rollout's stream.  A guide whose picks
//    are pure marks the cache it is offered (mark_kept_by_pure_guide); the
//    mark rides on the cache object itself, so a decorator that forwards
//    share_rollout_cache forwards the mark too.
//
// Both caches are written only by the search's coordinator thread, between
// worker phases: the rollout cache is read-only while the workers run, so
// neither needs a lock, and every hit/miss count is a function of the seed
// and budget alone, at any worker count.
//
// Contract: lookups compare the FULL key, not just its hash, so a hit is
// bitwise-identical to a fresh evaluation and search results with a cache
// on equal the cache-off results bit for bit.  Eviction is FIFO under a
// fixed entry cap (states are visited in loosely time-ordered waves, so
// the oldest entries are the least likely to recur; FIFO also keeps
// eviction free of access-time state).  A duplicate insert keeps the first
// entry.  Capacity 0 disables the cache (find always misses, insert is a
// no-op).
//
// Cost: every find() and insert() hashes its key exactly once (transparent
// lookup with a borrowed {key, hash} probe); entries store their hash, so
// neither a rehash nor an eviction hashes a key again.

#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dag/dag.h"

namespace spear {

/// A canonical state key (SchedulingEnv::append_canonical_key).
using StateKey = std::vector<std::uint64_t>;

/// splitmix64-style mix of the key words.  Collisions are harmless
/// (buckets chain and the full key is compared); the mix only needs to
/// spread buckets.
std::uint64_t hash_state_key(const StateKey& key);

template <typename V>
class StateCache {
 public:
  using Key = StateKey;

  /// `capacity` = max entries (0 disables).
  explicit StateCache(std::size_t capacity) : capacity_(capacity) {}
  /// order_ points into entries_, so a copy would dangle.
  StateCache(const StateCache&) = delete;
  StateCache& operator=(const StateCache&) = delete;

  std::size_t size() const { return entries_.size(); }

  /// Looks up `key`; on a hit copies the value into *out and returns true.
  bool find(const Key& key, V* out) const;

  /// Inserts (evicting the oldest entry when full).  Duplicate keys keep
  /// the existing entry.
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

  std::size_t capacity_;
  std::unordered_map<HashedKey, V, KeyHash, KeyEqual> entries_;
  /// Insertion order for FIFO eviction: the keys of `entries_` (map nodes
  /// never move, so the pointers stay valid until erased).
  std::deque<const HashedKey*> order_;
};

/// A guide prior ordering as produced by DecisionPolicy::action_weights
/// (descending weight, ties stable).
using Priors = std::vector<std::pair<int, double>>;
using TranspositionCache = StateCache<Priors>;

/// One rollout cache entry: the greedy action at a state, and the makespan
/// the rollout through it finished at (kUnknownMakespan under faults).
struct RolloutStep {
  static constexpr Time kUnknownMakespan = -1;
  int action = 0;
  Time makespan = kUnknownMakespan;
};

extern template class StateCache<Priors>;
extern template class StateCache<RolloutStep>;

/// The rollout cache: state -> RolloutStep.  The mark says that a guide
/// offered the cache picks a pure function of the state (DrlDecisionPolicy
/// in greedy mode); the search arms the cache only when it is set.
class SharedActionCache : public StateCache<RolloutStep> {
 public:
  using StateCache<RolloutStep>::StateCache;

  void mark_kept_by_pure_guide() { kept_by_pure_guide_ = true; }
  bool kept_by_pure_guide() const { return kept_by_pure_guide_; }

 private:
  bool kept_by_pure_guide_ = false;
};

}  // namespace spear
