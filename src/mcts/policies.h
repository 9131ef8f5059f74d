// Decision policies plugged into MCTS expansion and rollout (§III-A/C).
//
// Pure MCTS uses RandomDecisionPolicy for both (the classic algorithm);
// Spear swaps in DrlDecisionPolicy — the trained policy network — so that
// expansion tries promising actions first and rollouts estimate makespans
// like an expert instead of a random walker.  HeuristicDecisionPolicy (CP /
// Tetris scores) sits in between and is used in ablations.
//
// The env-level action encoding is used throughout: i >= 0 schedules the
// i-th visible ready task, SchedulingEnv::kProcessAction processes.  Only
// valid actions are produced (fitting ready tasks; process only when busy),
// which realizes both of the paper's expansion filters.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "env/env.h"
#include "mcts/transposition.h"
#include "rl/policy.h"

namespace spear {

class DecisionPolicy {
 public:
  virtual ~DecisionPolicy() = default;

  /// Valid actions with non-negative preference weights (need not be
  /// normalized; all-equal means "no preference").  Never empty unless
  /// env.done().  Actions are returned in DESCENDING weight order, ties in
  /// stable env order, so MCTS expansion can pop the most promising action
  /// from the front without re-sorting on the hot path.
  virtual std::vector<std::pair<int, double>> action_weights(
      const SchedulingEnv& env) = 0;

  /// Picks one valid action for rollouts.  Default: samples from
  /// action_weights.
  virtual int pick(const SchedulingEnv& env, Rng& rng);

  /// Batched rollout step: out[i] == pick(*envs[i], *rngs[i]) for every i
  /// (bit-identical — each row consumes only its own RNG stream).  The
  /// leaf-parallel search advances many rollouts in lockstep through this
  /// so batch-capable guides score one fused forward per step instead of
  /// one single-row forward per rollout.  The default loops over pick().
  virtual void pick_batch(const SchedulingEnv* const* envs, std::size_t n,
                          Rng* const* rngs, int* out);

  /// True when action_weights_batch fuses its evaluations (one network
  /// forward for all `n` states) instead of looping.  MCTS only
  /// batch-prepares children for such guides — for everything else the
  /// lazy one-state-at-a-time path is already optimal.
  virtual bool supports_batch_eval() const { return false; }

  /// Evaluates `n` states at once; out[i] == action_weights(*envs[i]) for
  /// every i (bit-identical — the contract batched inference must keep).
  /// The default loops over action_weights; batch-capable policies fuse.
  virtual std::vector<std::vector<std::pair<int, double>>>
  action_weights_batch(const SchedulingEnv* const* envs, std::size_t n);

  /// Deep, thread-independent copy for parallel search: each worker owns a
  /// clone so concurrent action_weights/pick calls never share mutable
  /// state.  Returns nullptr when the policy is not cloneable; parallel
  /// MCTS then falls back to the serial search path.
  virtual std::shared_ptr<DecisionPolicy> clone() const { return nullptr; }

  /// Arms (capacity > 0) or disarms (capacity == 0) a canonical-state ->
  /// action cache for deterministic pick_batch rows, dropping any cached
  /// entries and zeroing the hit/miss counters.  The leaf-parallel search
  /// calls this per schedule() on every worker guide (keys do not encode
  /// the DAG identity, so entries must never cross schedules).  Default:
  /// no-op — only guides whose picks are pure functions of the state can
  /// cache them.
  virtual void enable_rollout_cache(std::size_t capacity) { (void)capacity; }
  virtual std::int64_t rollout_cache_hits() const { return 0; }
  virtual std::int64_t rollout_cache_misses() const { return 0; }

  /// Points the guide's deterministic pick_batch rows at a rollout action
  /// cache SHARED with other workers' guides (leaf-parallel search at >1
  /// workers), replacing any private cache and zeroing the hit/miss
  /// counters.  Hits stay bit-identical (the cached action is a pure
  /// function of the state) but the hit/miss split becomes
  /// timing-dependent.  nullptr detaches.  Default: no-op, like
  /// enable_rollout_cache — only cache-capable guides opt in.
  virtual void share_rollout_cache(std::shared_ptr<SharedActionCache> cache) {
    (void)cache;
  }

  /// Physical network forwards this guide executed with its PRIVATE weights
  /// since the last reset_forward_stats(): kernel invocations and total
  /// rows, plus the per-call row-count histogram (hist[k] = calls with k
  /// rows).  Default: zero — guides without a network never forward.
  virtual std::int64_t forward_calls() const { return 0; }
  virtual std::int64_t forward_rows() const { return 0; }
  virtual const std::vector<std::int64_t>* forward_hist() const {
    return nullptr;
  }
  virtual void reset_forward_stats() {}
};

/// Uniform over valid actions: classic MCTS.
class RandomDecisionPolicy : public DecisionPolicy {
 public:
  std::vector<std::pair<int, double>> action_weights(
      const SchedulingEnv& env) override;
  std::shared_ptr<DecisionPolicy> clone() const override;
};

/// Scores schedule actions by a blend of CP b-level and Tetris alignment;
/// process gets the mean schedule weight.  Deterministic pick (argmax).
class HeuristicDecisionPolicy : public DecisionPolicy {
 public:
  std::vector<std::pair<int, double>> action_weights(
      const SchedulingEnv& env) override;
  int pick(const SchedulingEnv& env, Rng& rng) override;
  std::shared_ptr<DecisionPolicy> clone() const override;
};

/// Pure critical-path policy: schedule actions weighted by b-level urgency
/// alone.  Deterministic pick (argmax); an anytime-MCTS fallback choice.
class CpDecisionPolicy : public DecisionPolicy {
 public:
  std::vector<std::pair<int, double>> action_weights(
      const SchedulingEnv& env) override;
  int pick(const SchedulingEnv& env, Rng& rng) override;
  std::shared_ptr<DecisionPolicy> clone() const override;
};

/// Pure Tetris policy: schedule actions weighted by resource alignment
/// alone.  Deterministic pick (argmax); an anytime-MCTS fallback choice.
class TetrisDecisionPolicy : public DecisionPolicy {
 public:
  std::vector<std::pair<int, double>> action_weights(
      const SchedulingEnv& env) override;
  int pick(const SchedulingEnv& env, Rng& rng) override;
  std::shared_ptr<DecisionPolicy> clone() const override;
};

/// The trained DRL policy.  Weights are the masked softmax probabilities;
/// rollout picks sample from them (set `greedy` for argmax rollouts).
class DrlDecisionPolicy : public DecisionPolicy {
 public:
  explicit DrlDecisionPolicy(std::shared_ptr<const Policy> policy,
                             bool greedy = false);

  std::vector<std::pair<int, double>> action_weights(
      const SchedulingEnv& env) override;
  int pick(const SchedulingEnv& env, Rng& rng) override;
  /// Fused rollout step: ONE batched forward scores all `n` states, then
  /// each row resolves exactly as pick() would (greedy argmax or a
  /// categorical draw from that row's own RNG) — bit-identical results by
  /// the action_probs_batch row contract.  With the rollout cache armed
  /// (greedy picks only) cached rows skip the forward entirely; the argmax
  /// is a pure function of the state, so hits stay bit-identical too.
  void pick_batch(const SchedulingEnv* const* envs, std::size_t n,
                  Rng* const* rngs, int* out) override;

  /// Greedy picks are deterministic and consume no RNG, so they are safe to
  /// cache; in sampling mode the cache stays disarmed (a skipped draw would
  /// shift the rollout's RNG stream) and the counters stay zero.
  void enable_rollout_cache(std::size_t capacity) override;
  /// Greedy mode only (sampling guides stay cold, as with the private
  /// cache); replaces the private cache until the next enable/share call.
  void share_rollout_cache(std::shared_ptr<SharedActionCache> cache) override;
  std::int64_t rollout_cache_hits() const override {
    return rollout_cache_hits_;
  }
  std::int64_t rollout_cache_misses() const override {
    return rollout_cache_misses_;
  }
  std::int64_t forward_calls() const override { return forward_calls_; }
  std::int64_t forward_rows() const override { return forward_rows_; }
  const std::vector<std::int64_t>* forward_hist() const override {
    return &forward_hist_;
  }
  void reset_forward_stats() override {
    forward_calls_ = 0;
    forward_rows_ = 0;
    forward_hist_.clear();
  }
  /// Clones with a private copy of the wrapped Policy (the network keeps a
  /// mutable inference workspace, so sharing one across threads races).
  std::shared_ptr<DecisionPolicy> clone() const override;

  /// Fused batch evaluation: all `n` states featurized into one input
  /// matrix and scored by ONE network forward (DESIGN.md §10).
  bool supports_batch_eval() const override { return true; }
  std::vector<std::vector<std::pair<int, double>>> action_weights_batch(
      const SchedulingEnv* const* envs, std::size_t n) override;

  /// The ready-window width the wrapped network expects.
  std::size_t max_ready() const {
    return policy_->featurizer().options().max_ready;
  }

 private:
  /// Converts one masked-softmax probability vector into the sorted
  /// action_weights form.
  std::vector<std::pair<int, double>> weights_from_probs(
      const std::vector<double>& probs) const;
  /// The batched forward funnel: fills batch_masks_/batch_probs_ for `n`
  /// states through the wrapped Policy's workspace, tallying the call.
  void forward_batch(const SchedulingEnv* const* envs, std::size_t n);
  /// Tallies one private-weights kernel invocation of `rows` rows.
  void record_forward(std::size_t rows);

  std::shared_ptr<const Policy> policy_;
  bool greedy_;
  /// Reused scratch: one guide serves one thread (parallel search clones),
  /// so holding the buffers across calls makes the steady state
  /// allocation-free.
  std::vector<bool> mask_buf_;
  std::vector<double> probs_buf_;
  std::vector<std::vector<bool>> batch_masks_;
  std::vector<std::vector<double>> batch_probs_;
  /// Rollout cache (greedy mode only; see enable_rollout_cache) plus the
  /// pick_batch probe scratch and hit/miss tallies.  At most one of the
  /// private/shared caches is armed at a time.
  std::unique_ptr<ActionCache> rollout_cache_;
  std::shared_ptr<SharedActionCache> shared_rollout_cache_;
  std::int64_t rollout_cache_hits_ = 0;
  std::int64_t rollout_cache_misses_ = 0;
  /// Private-weights physical forward tallies (see DecisionPolicy docs).
  std::int64_t forward_calls_ = 0;
  std::int64_t forward_rows_ = 0;
  std::vector<std::int64_t> forward_hist_;
  ActionCache::Key key_buf_;
  std::vector<ActionCache::Key> miss_keys_;
  std::vector<const SchedulingEnv*> miss_envs_;
  std::vector<std::size_t> miss_rows_;
};

}  // namespace spear
