#include "rl/two_phase.h"

namespace spear {

TwoPhaseTrainer::TwoPhaseTrainer(Policy& policy,
                                 const std::vector<Dag>& examples,
                                 const ResourceVector& capacity,
                                 const ImitationOptions& imitation,
                                 const ReinforceOptions& reinforce, Rng& rng)
    : policy_(policy),
      examples_(examples),
      capacity_(capacity),
      imitation_options_(imitation),
      rng_(rng),
      reinforce_(policy, examples, capacity, reinforce, rng),
      imitating_(imitation.epochs > 0) {}

ImitationTrainer& TwoPhaseTrainer::imitation() {
  if (!imitation_) {
    imitation_.emplace(policy_,
                       collect_cp_demonstrations(policy_, examples_, capacity_),
                       imitation_options_, rng_);
  }
  return *imitation_;
}

std::string_view TwoPhaseTrainer::phase() const {
  return imitating_ ? ckpt::kPhaseImitation : ckpt::kPhaseReinforce;
}

std::size_t TwoPhaseTrainer::next_epoch() const {
  if (!imitating_) return reinforce_.next_epoch();
  return imitation_ ? imitation_->next_epoch() : 0;
}

double TwoPhaseTrainer::run_epoch() {
  if (!imitating_) return reinforce_.run_epoch();
  const double loss = imitation().run_epoch();
  imitating_ = !imitation_->done();
  return loss;
}

ImitationResult TwoPhaseTrainer::imitation_result() const {
  return imitation_ ? imitation_->result() : ImitationResult{};
}

ckpt::TrainerState TwoPhaseTrainer::checkpoint_state() {
  return imitating_ ? imitation().checkpoint_state()
                    : reinforce_.checkpoint_state();
}

void TwoPhaseTrainer::restore(const ckpt::TrainerState& state) {
  if (state.phase == ckpt::kPhaseReinforce) {
    imitating_ = false;
    reinforce_.restore(state);
    return;
  }
  imitation().restore(state);
  imitating_ = !imitation_->done();
}

}  // namespace spear
