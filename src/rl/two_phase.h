// The §IV training pipeline as one epoch-stepped trainer: imitation of the
// critical-path heuristic, then REINFORCE with an averaged-rollout baseline,
// both drawing from the one Rng.  Every producer of a trained policy drives
// it with a single epoch loop, so the phase sequence and the resume rule
// live here only (DESIGN.md §9).  CP demonstrations are collected only when
// imitation runs.

#pragma once

#include <optional>
#include <string_view>
#include <vector>

#include "ckpt/checkpoint.h"
#include "rl/imitation.h"
#include "rl/reinforce.h"

namespace spear {

class TwoPhaseTrainer {
 public:
  /// Throws std::invalid_argument when REINFORCE cannot run on `examples`
  /// (see ReinforceTrainer).  Keeps references to `policy`, `examples` and
  /// `rng`; all three must outlive the trainer.
  TwoPhaseTrainer(Policy& policy, const std::vector<Dag>& examples,
                  const ResourceVector& capacity,
                  const ImitationOptions& imitation,
                  const ReinforceOptions& reinforce, Rng& rng);

  /// kPhaseImitation or kPhaseReinforce: the phase of the next epoch.
  std::string_view phase() const;
  /// The next epoch's index within its phase.
  std::size_t next_epoch() const;
  bool done() const { return !imitating_ && reinforce_.done(); }

  /// Runs the next epoch and returns its mean CE loss (imitation) or mean
  /// makespan (REINFORCE).  Read phase() and next_epoch() first to label it.
  double run_epoch();

  /// Imitation losses so far (empty when a resume skipped imitation).
  ImitationResult imitation_result() const;
  /// REINFORCE curve and counters so far.
  const ReinforceResult& reinforce_result() const {
    return reinforce_.result();
  }
  /// Flushes end-of-training obs counters and returns the REINFORCE result.
  ReinforceResult finalize() { return reinforce_.finalize(); }

  /// Resumable state of the current phase at this epoch boundary.  Before
  /// the first imitation epoch this collects the demonstrations.
  ckpt::TrainerState checkpoint_state();

  /// Restores a checkpoint_state() snapshot into a fresh trainer.  The
  /// resume rule: a kPhaseReinforce checkpoint skips imitation (it holds the
  /// warmed-up weights and the Rng state that followed them); any other
  /// restores into the phase it names.  Throws ckpt::CheckpointError on a
  /// phase, topology or demonstration-count mismatch.
  void restore(const ckpt::TrainerState& state);

 private:
  /// The imitation trainer, built (demonstrations collected) on first use.
  ImitationTrainer& imitation();

  Policy& policy_;
  const std::vector<Dag>& examples_;
  ResourceVector capacity_;
  ImitationOptions imitation_options_;
  Rng& rng_;
  std::optional<ImitationTrainer> imitation_;
  ReinforceTrainer reinforce_;
  bool imitating_;
};

}  // namespace spear
