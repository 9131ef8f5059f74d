// The search's state cache (DESIGN.md §11).
//
// Different action orders frequently reach the same scheduling state (e.g.
// scheduling tasks A then B at the same instant vs B then A), and with
// cross-decision tree reuse the same states recur decision after decision.
// The state cache maps a canonical state key — built by
// SchedulingEnv::append_canonical_key from (elapsed time, running set,
// ready set, backlog, pending retries) — to what the guide makes of that
// state alone, so a repeated state costs a hash probe instead of a network
// forward or a whole rollout.  The search owns one, built fresh per
// schedule() (keys do not encode the DAG identity).  Each entry holds:
//
//  * the guide's priors at the state, as action_weights orders them.  They
//    give a new tree node (or a decision root) its untried actions, for
//    every guide.  Only PRIORS are cached, never tree values: two
//    transposed states share the same action distribution (their
//    featurizations are bit-identical, see append_canonical_key) but sit at
//    different tree positions with different rollout histories.
//  * the makespan the greedy rollout from the state finished at.  With a
//    pure guide a rollout step is priors.front().first, a pure function of
//    the state, and with faults off so is the whole rest of the rollout:
//    the key holds the absolute `now` and every running task's finish time,
//    so it fixes the final makespan too.  A rollout that reaches a state
//    with a known makespan stops there; one that reaches a state with
//    priors only takes their front action without asking the guide.  Under
//    faults the makespan stays unknown (fault draws are not in the key).
//    Rollouts use the cache only when a guide marked it pure
//    (mark_kept_by_pure_guide): a sampled step consumes RNG, so skipping
//    the draw would shift every later draw in that rollout's stream.  The
//    mark rides on the cache object itself, so a decorator that forwards
//    share_rollout_cache forwards the mark too.
//
// The cache is written only at a tick's backup and in the evaluator,
// between worker phases: it is read-only while the rollouts run, so a
// found entry stays put until the next insert, and every hit/miss count is
// a function of the seed and budget alone, at any thread count.
//
// Contract: lookups compare the FULL key, not just its hash, so a hit is
// bitwise-identical to a fresh evaluation and search results with the
// cache on equal the cache-off results bit for bit.  Eviction is FIFO under
// a fixed entry cap (states are visited in loosely time-ordered waves, so
// the oldest entries are the least likely to recur; FIFO also keeps
// eviction free of access-time state).  A duplicate insert keeps the first
// entry.  Capacity 0 disables the cache (find always misses, insert is a
// no-op).
//
// Cost: every find() and insert() hashes its key exactly once (transparent
// lookup with a borrowed {key, hash} probe); entries store their hash, so
// neither a rehash nor an eviction hashes a key again.  find() returns a
// pointer, so a probe never copies a priors list.

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

/// A guide prior ordering as produced by DecisionPolicy::action_weights
/// (descending weight, ties stable).
using Priors = std::vector<std::pair<int, double>>;

/// One state cache entry: the guide's priors at a state, and the makespan
/// the greedy rollout from it finished at (kUnknownMakespan under faults
/// and for guides that are not pure).
struct StateEntry {
  static constexpr Time kUnknownMakespan = -1;
  Priors priors;
  Time makespan = kUnknownMakespan;
};

/// The state cache: state -> StateEntry.  The name is the one the
/// benchmark's guide decorator spells.  The search lets rollouts use the
/// cache only when a guide marked it pure (DrlDecisionPolicy in greedy
/// mode); its priors serve every guide.
class SharedActionCache {
 public:
  /// `capacity` = max entries (0 disables).
  explicit SharedActionCache(std::size_t capacity) : capacity_(capacity) {}
  /// order_ points into entries_, so a copy would dangle.
  SharedActionCache(const SharedActionCache&) = delete;
  SharedActionCache& operator=(const SharedActionCache&) = delete;

  std::size_t size() const { return entries_.size(); }

  /// The entry at `key`, or nullptr on a miss.  The pointer stays valid
  /// until the next insert.
  const StateEntry* find(const StateKey& key) const;

  /// Inserts (evicting the oldest entry when full).  A duplicate key keeps
  /// the existing entry.
  void insert(StateKey key, StateEntry entry);

  /// Called by a guide that promises, at every state `env`:
  /// pick(env, rng) == action_weights(env).front().first, drawing nothing
  /// from `rng`.  The search then takes rollout steps from cached priors
  /// and ends rollouts at cached makespans.
  void mark_kept_by_pure_guide() { kept_by_pure_guide_ = true; }
  bool kept_by_pure_guide() const { return kept_by_pure_guide_; }

 private:
  /// The stored form of a key: its hash travels with it.
  struct HashedKey {
    StateKey key;
    std::uint64_t hash;
  };
  /// A borrowed lookup key with its precomputed hash.
  struct Probe {
    const StateKey* key;
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
    static bool same(std::uint64_t ha, const StateKey& a, std::uint64_t hb,
                     const StateKey& b) {
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

  std::size_t capacity_;
  std::unordered_map<HashedKey, StateEntry, KeyHash, KeyEqual> entries_;
  /// Insertion order for FIFO eviction: the keys of `entries_` (map nodes
  /// never move, so the pointers stay valid until erased).
  std::deque<const HashedKey*> order_;
  bool kept_by_pure_guide_ = false;
};

}  // namespace spear
