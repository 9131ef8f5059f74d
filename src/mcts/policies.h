// Decision policies plugged into MCTS expansion and rollout (§III-A/C).
//
// Pure MCTS uses RandomDecisionPolicy for both (the classic algorithm);
// Spear swaps in DrlDecisionPolicy — the trained policy network — so that
// expansion tries promising actions first and rollouts estimate makespans
// like an expert instead of a random walker.  HeuristicDecisionPolicy (a
// CP, Tetris or blended score under the greedy rule) sits in between and is
// used in ablations, as the anytime fallback and for schedule repair.
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
#include "sched/list_scheduler.h"

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
  /// (bit-identical — each row consumes only its own RNG draws, in the same
  /// number as pick()).  MCTS asks this for every rollout step its rollout
  /// cache does not answer — many rows in lockstep in leaf mode, so
  /// batch-capable guides score one fused forward per step instead of one
  /// forward per rollout, and one row at a time in the serial search.  The
  /// default loops over pick().
  virtual void pick_batch(const SchedulingEnv* const* envs, std::size_t n,
                          Rng* const* rngs, int* out);

  /// Unused by the search; kept only because the benchmark's guide
  /// decorator overrides it.
  virtual bool supports_batch_eval() const { return false; }

  /// Evaluates `n` states at once; out[i] == action_weights(*envs[i]) for
  /// every i (bit-identical — the contract batched inference must keep).
  /// The default loops over action_weights; batch-capable policies fuse.
  virtual std::vector<std::vector<std::pair<int, double>>>
  action_weights_batch(const SchedulingEnv* const* envs, std::size_t n);

  /// Deep, thread-independent copy for parallel search: each worker past
  /// the first owns a clone so concurrent action_weights/pick calls never
  /// share mutable state.  Returns nullptr when the policy is not
  /// cloneable; MCTS then searches on one worker (the guide itself).
  virtual std::shared_ptr<DecisionPolicy> clone() const { return nullptr; }

  /// No-op; kept only because the benchmark's guide decorator overrides it.
  virtual void enable_rollout_cache(std::size_t capacity) { (void)capacity; }

  /// MCTS offers every worker guide the schedule's fresh rollout cache
  /// (mcts/transposition.h) when a schedule starts.  A guide whose picks
  /// are a pure function of the state and consume no RNG calls
  /// cache->mark_kept_by_pure_guide(); the search arms the cache only when
  /// that mark is set, and then probes and fills it itself, asking the
  /// guide only for the states it misses.  The guide keeps nothing.
  /// Default: no-op — a guide with RNG-consuming or impure picks must not
  /// have them cached.
  virtual void share_rollout_cache(std::shared_ptr<SharedActionCache> cache) {
    (void)cache;
  }
  /// Always 0 here; the search counts rollout-cache hits itself.  Kept
  /// only because the benchmark's guide decorator overrides them.
  virtual std::int64_t rollout_cache_hits() const { return 0; }
  virtual std::int64_t rollout_cache_misses() const { return 0; }

  /// Physical network forwards this guide executed with its PRIVATE weights
  /// since the last reset_forward_stats(), as the per-call row-count
  /// histogram (hist[k] = calls with k rows); nullptr = never forwards.
  /// forward_calls() and forward_rows() are derived from it: Σ hist[k] and
  /// Σ k·hist[k].
  virtual const std::vector<std::int64_t>* forward_hist() const {
    return nullptr;
  }
  virtual std::int64_t forward_calls() const;
  virtual std::int64_t forward_rows() const;
  virtual void reset_forward_stats() {}
};

/// Uniform over valid actions: classic MCTS.
class RandomDecisionPolicy : public DecisionPolicy {
 public:
  std::vector<std::pair<int, double>> action_weights(
      const SchedulingEnv& env) override;
  std::shared_ptr<DecisionPolicy> clone() const override;
};

/// The greedy heuristic guide: each fitting ready task weighs
/// 1e-6 + score(task), and process gets the mean schedule weight (pack
/// first, never starve completions).  Its pick is the greedy rule over that
/// weight (greedy_action), so it is deterministic.  The default score is
/// the CP x Tetris blend (cp_tetris_blend); b_level_urgency gives a pure
/// CP guide and tetris_alignment a pure Tetris guide.
class HeuristicDecisionPolicy : public DecisionPolicy {
 public:
  HeuristicDecisionPolicy();
  explicit HeuristicDecisionPolicy(PriorityFn score);

  std::vector<std::pair<int, double>> action_weights(
      const SchedulingEnv& env) override;
  int pick(const SchedulingEnv& env, Rng& rng) override;
  std::shared_ptr<DecisionPolicy> clone() const override;

 private:
  double weight(const SchedulingEnv& env, TaskId task) const {
    return 1e-6 + score_(env, task);
  }

  PriorityFn score_;
};

/// The trained DRL policy.  Weights are the masked softmax probabilities;
/// rollout picks sample from them (set `greedy` for argmax rollouts).
/// Every call runs through one batched forward path (forward_batch): the
/// single-state calls are one-row batches.
class DrlDecisionPolicy : public DecisionPolicy {
 public:
  explicit DrlDecisionPolicy(std::shared_ptr<const Policy> policy,
                             bool greedy = false);

  /// Row 0 of action_weights_batch over this one state.
  std::vector<std::pair<int, double>> action_weights(
      const SchedulingEnv& env) override;
  /// pick_batch over this one row.
  int pick(const SchedulingEnv& env, Rng& rng) override;
  /// Fused rollout step: ONE batched forward scores the rows, then each
  /// row resolves to the first-maximum argmax (greedy) or a categorical
  /// draw from that row's own RNG (sampling) — bit-identical at any batch
  /// size by the action_probs_batch row contract.
  void pick_batch(const SchedulingEnv* const* envs, std::size_t n,
                  Rng* const* rngs, int* out) override;

  /// Greedy picks are deterministic and consume no RNG, so greedy mode
  /// marks the offered cache kept by a pure guide, which arms it; sampling
  /// mode leaves it unmarked (a skipped draw would shift the rollout's RNG
  /// stream).
  void share_rollout_cache(std::shared_ptr<SharedActionCache> cache) override;
  const std::vector<std::int64_t>* forward_hist() const override {
    return &forward_hist_;
  }
  void reset_forward_stats() override { forward_hist_.clear(); }
  /// Clones with a private copy of the wrapped Policy (the network keeps a
  /// mutable inference workspace, so sharing one across threads races).
  std::shared_ptr<DecisionPolicy> clone() const override;

  /// Fused batch evaluation: all `n` states featurized into one input
  /// matrix and scored by ONE network forward (DESIGN.md §10).
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
  /// The one forward funnel: fills batch_masks_/batch_probs_ for `n`
  /// states through the wrapped Policy's workspace and tallies the call in
  /// forward_hist_.
  void forward_batch(const SchedulingEnv* const* envs, std::size_t n);

  std::shared_ptr<const Policy> policy_;
  bool greedy_;
  /// Reused scratch: one guide serves one thread (parallel search clones),
  /// so holding the buffers across calls makes the steady state
  /// allocation-free.
  std::vector<std::vector<bool>> batch_masks_;
  std::vector<std::vector<double>> batch_probs_;
  /// Private-weights physical forward histogram (see DecisionPolicy docs).
  std::vector<std::int64_t> forward_hist_;
};

}  // namespace spear
