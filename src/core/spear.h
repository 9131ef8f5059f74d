// Spear — the paper's contribution: MCTS whose expansion and rollout steps
// are guided by a trained deep-RL scheduling policy instead of random
// choice, so the search focuses its budget on promising branches and can
// match pure MCTS quality with ~10% of the budget (Fig. 8a).
//
// Typical use:
//
//   Rng rng(42);
//   Policy policy = train_default_spear_policy(rng);   // or load_mlp(...)
//   auto spear = make_spear_scheduler(
//       std::make_shared<Policy>(std::move(policy)));
//   Schedule s = spear->schedule(dag, ResourceVector{1.0, 1.0});

#pragma once

#include <memory>

#include "mcts/mcts.h"
#include "rl/policy.h"

namespace spear {

struct SpearOptions {
  /// Search budget; the paper uses 1000/100 in simulations and 100/50 on
  /// the production trace (DRL guidance is what makes the small budget
  /// sufficient).
  std::int64_t initial_budget = 1000;
  std::int64_t min_budget = 100;
  double exploration_scale = 1.0;
  std::uint64_t seed = 42;
  /// Search threads (MctsOptions::num_threads); 1 = serial, N > 1 selects
  /// the leaf-parallel search, which runs on one thread.
  int num_threads = 1;
  /// Anytime wall-clock budget per decision in ms; 0 = unlimited
  /// (MctsOptions::time_budget_ms).
  std::int64_t time_budget_ms = 0;
  /// Failure-aware scheduling: non-null schedules under this fault injector
  /// with `retry` (MctsOptions::faults / MctsOptions::retry).
  std::shared_ptr<const FaultInjector> faults;
  RetryOptions retry;
  /// kLeaf runs the leaf-parallel search even at one thread
  /// (MctsOptions::search_mode); at num_threads > 1 it is leaf mode anyway.
  SearchMode search_mode = SearchMode::kRoot;
  /// Leaf mode: reuse the chosen subtree across decisions
  /// (MctsOptions::leaf_tree_reuse); the benches' --no-tree-reuse clears it.
  bool leaf_tree_reuse = true;
};

/// Builds the Spear scheduler around a trained policy.  Rollouts take the
/// policy's argmax: the expert's deterministic play evaluates leaves
/// noticeably better than sampling on both random DAGs and the trace
/// workload.
std::unique_ptr<MctsScheduler> make_spear_scheduler(
    std::shared_ptr<const Policy> policy, SpearOptions options = {});

/// Builds the pure-MCTS scheduler (random expansion/rollout) used as the
/// paper's ablation baseline, running the serial search.
std::unique_ptr<MctsScheduler> make_mcts_scheduler(
    std::int64_t initial_budget, std::int64_t min_budget,
    std::uint64_t seed = 42);

struct SpearTrainingOptions {
  /// Pre-training and RL workload (paper: 144 examples of 25 tasks; the
  /// defaults here are scaled for a small machine — pass the paper's values
  /// explicitly to reproduce Fig. 8b at full scale).
  std::size_t num_examples = 24;
  std::size_t tasks_per_example = 25;
  std::size_t imitation_epochs = 10;
  std::size_t reinforce_epochs = 40;
  std::size_t rollouts_per_example = 8;
  std::uint64_t seed = 7;
};

/// End-to-end policy production: generate training DAGs (random layered
/// DAGs plus half as many small MapReduce-shaped jobs, so one policy guides
/// both the simulation and the trace experiments), then run the §IV
/// pipeline (TwoPhaseTrainer: imitation of CP, then REINFORCE).  Returns the
/// trained policy (capacity fixed at 1.0 per resource, 2 resources).
Policy train_default_spear_policy(SpearTrainingOptions options = {});

}  // namespace spear
