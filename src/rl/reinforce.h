// REINFORCE with an averaged-rollout baseline (§III-D, §IV of the paper).
//
// For each training example (DAG), the current policy plays
// `rollouts_per_example` episodes; the return of an episode is the negative
// makespan (the cumulative -1-per-slot reward).  The baseline is the mean
// return over the example's rollouts, and every step of episode e is
// reinforced with advantage (G_e - baseline), normalized by the baseline
// magnitude so the gradient scale is independent of DAG size.  Updates use
// RMSProp with the paper's hyper-parameters.

#pragma once

#include <memory>
#include <vector>

#include "ckpt/checkpoint.h"
#include "dag/dag.h"
#include "nn/rmsprop.h"
#include "rl/policy.h"

namespace spear {

struct ReinforceOptions {
  std::size_t epochs = 100;
  std::size_t rollouts_per_example = 20;  // paper: 20
  RmsPropOptions optimizer;               // paper defaults
  /// Global L2 norm ceiling for each gradient update (<= 0 disables
  /// clipping).  Non-finite gradients or returns always skip the update.
  double max_grad_norm = 10.0;
};

struct ReinforceResult {
  /// Mean makespan over all rollouts of all examples, one entry per epoch —
  /// the learning curve of Fig. 8(b).
  std::vector<double> epoch_mean_makespan;
  /// Updates whose gradient was rescaled to max_grad_norm.
  std::size_t clipped_updates = 0;
  /// Updates skipped because the loss or gradient went non-finite (each is
  /// also logged as a warning).
  std::size_t skipped_updates = 0;
};

/// Epoch-stepped REINFORCE, the second phase of TwoPhaseTrainer
/// (rl/two_phase.h).  Callers checkpoint between epochs and resume
/// bit-identically after a crash (DESIGN.md §9): a trainer restored from
/// checkpoint_state() continues the exact weight, optimizer and Rng
/// trajectory of the interrupted run.
class ReinforceTrainer {
 public:
  /// Throws std::invalid_argument on an empty training set or zero
  /// rollouts.  Keeps references to `policy` and `rng`; both must outlive
  /// the trainer.
  ReinforceTrainer(Policy& policy, const std::vector<Dag>& examples,
                   const ResourceVector& capacity,
                   const ReinforceOptions& options, Rng& rng);

  std::size_t next_epoch() const { return next_epoch_; }
  bool done() const { return next_epoch_ >= options_.epochs; }
  std::uint64_t episodes() const { return episodes_; }

  /// Runs one epoch over every example and returns its mean makespan
  /// (also appended to result().epoch_mean_makespan).
  double run_epoch();

  /// Curve and counters accumulated so far.
  const ReinforceResult& result() const { return result_; }

  /// Flushes end-of-training obs counters and returns the result.
  ReinforceResult finalize();

  /// Complete resumable state at the current epoch boundary.
  ckpt::TrainerState checkpoint_state() const;

  /// Restores a checkpoint_state() snapshot.  Throws ckpt::CheckpointError
  /// when the snapshot is from another phase or a different topology.
  void restore(const ckpt::TrainerState& state);

 private:
  Policy& policy_;
  ResourceVector capacity_;
  ReinforceOptions options_;
  Rng& rng_;
  RmsProp optimizer_;
  Mlp::Gradients grads_;
  /// Reused forward/backward buffers (DESIGN.md §10): after the first
  /// epoch the training loop's network math performs no heap allocation.
  Mlp::ForwardWorkspace ws_;
  std::vector<double> probs_scratch_;
  EnvOptions env_options_;
  std::vector<std::shared_ptr<const Dag>> dags_;
  std::vector<std::shared_ptr<const DagFeatures>> features_;
  ReinforceResult result_;
  std::size_t next_epoch_ = 0;
  std::uint64_t episodes_ = 0;
  double last_baseline_ = 0.0;
};

}  // namespace spear
