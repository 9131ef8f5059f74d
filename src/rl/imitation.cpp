#include "rl/imitation.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "common/logging.h"
#include "nn/grad_guard.h"
#include "nn/loss.h"
#include "obs/obs.h"
#include "sched/critical_path.h"

namespace spear {

std::vector<Demonstration> collect_cp_demonstrations(
    const Policy& policy, const std::vector<Dag>& dags,
    const ResourceVector& capacity) {
  std::vector<Demonstration> demos;
  EnvOptions env_options;
  env_options.max_ready = policy.featurizer().options().max_ready;

  for (const auto& dag : dags) {
    SchedulingEnv env(std::make_shared<Dag>(dag), capacity, env_options);
    run_greedy(env, [&](const SchedulingEnv& state) {
      const int best = greedy_action(state, critical_path_priority);
      Demonstration demo;
      policy.featurizer().featurize(state, demo.features);
      demo.mask = policy.valid_output_mask(state);
      demo.target_output =
          best == SchedulingEnv::kProcessAction
              ? static_cast<int>(policy.featurizer().process_output())
              : best;
      demos.push_back(std::move(demo));
      return best;
    });
  }
  return demos;
}

ImitationTrainer::ImitationTrainer(Policy& policy,
                                   std::vector<Demonstration> demos,
                                   const ImitationOptions& options, Rng& rng)
    : policy_(policy),
      options_(options),
      rng_(rng),
      demos_(std::move(demos)),
      optimizer_(policy.net(), options.optimizer),
      grads_(policy.net().make_gradients()) {
  if (demos_.empty()) {
    throw std::invalid_argument("ImitationTrainer: no demonstrations");
  }
  if (options_.batch_size == 0) {
    throw std::invalid_argument("ImitationTrainer: batch_size must be > 0");
  }
  order_.resize(demos_.size());
  std::iota(order_.begin(), order_.end(), 0);
}

double ImitationTrainer::run_epoch() {
  Mlp& net = policy_.net();
  const std::size_t epoch = next_epoch_;

  obs::ScopedTimer epoch_span("imitation.epoch", "rl");
  epoch_span.set_args("\"epoch\":" + std::to_string(epoch));
  rng_.shuffle(order_);
  double epoch_loss = 0.0;
  std::size_t batches = 0;

  for (std::size_t begin = 0; begin < order_.size();
       begin += options_.batch_size) {
    const std::size_t end =
        std::min(begin + options_.batch_size, order_.size());
    const std::size_t batch = end - begin;

    // Batched forward through the reused workspace — identical math to a
    // freshly allocated forward(), zero steady-state allocation.
    Matrix& input = net.begin_forward(ws_, batch);
    targets_scratch_.resize(batch);
    for (std::size_t b = 0; b < batch; ++b) {
      const Demonstration& demo = demos_[order_[begin + b]];
      std::copy(demo.features.begin(), demo.features.end(),
                input.data().begin() +
                    static_cast<std::ptrdiff_t>(b * net.input_dim()));
      targets_scratch_[b] = demo.target_output;
    }

    net.forward_ws(ws_);
    // Masked softmax per row; invalid outputs contribute no probability
    // and therefore no gradient.
    const std::size_t out_dim = net.output_dim();
    probs_scratch_.reshape(batch, out_dim);
    for (std::size_t b = 0; b < batch; ++b) {
      const Demonstration& demo = demos_[order_[begin + b]];
      Policy::masked_softmax_into(ws_.logits().data().data() + b * out_dim,
                                  demo.mask, out_dim,
                                  probs_scratch_.data().data() + b * out_dim);
    }
    const double batch_loss = cross_entropy(probs_scratch_, targets_scratch_);
    ++batches;
    ++batches_done_;
    if (!std::isfinite(batch_loss)) {
      SPEAR_LOG(Warn) << "imitation: non-finite loss in epoch " << epoch
                      << "; skipping the batch update";
      continue;
    }
    epoch_loss += batch_loss;

    weights_scratch_.assign(batch, 1.0 / static_cast<double>(batch));
    nll_logit_gradient_into(probs_scratch_, targets_scratch_,
                            weights_scratch_, ws_.d_logits);
    grads_.zero();
    net.backward_ws(ws_, ws_.d_logits, grads_);
    const GradGuardReport guard =
        guard_gradients(grads_, options_.max_grad_norm);
    if (guard.skipped) {
      SPEAR_LOG(Warn) << "imitation: non-finite gradient in epoch " << epoch
                      << "; skipping the batch update";
      continue;
    }
    optimizer_.step(net, grads_);
  }
  const double mean_loss =
      epoch_loss / static_cast<double>(std::max<std::size_t>(batches, 1));
  result_.epoch_losses.push_back(mean_loss);
  if (obs::enabled()) {
    obs::count("imitation.epochs");
    obs::gauge("imitation.last_loss", mean_loss);
  }
  ++next_epoch_;
  return mean_loss;
}

ckpt::TrainerState ImitationTrainer::checkpoint_state() const {
  ckpt::TrainerState state;
  state.phase = ckpt::kPhaseImitation;
  state.next_epoch = next_epoch_;
  state.episodes = batches_done_;
  state.rng = rng_.state();
  state.curve = result_.epoch_losses;
  state.permutation.assign(order_.begin(), order_.end());
  state.net = ckpt::snapshot_of(policy_.net());
  state.optimizer = ckpt::snapshot_of(optimizer_.cache());
  return state;
}

void ImitationTrainer::restore(const ckpt::TrainerState& state) {
  if (state.phase != ckpt::kPhaseImitation) {
    throw ckpt::CheckpointError(
        "ImitationTrainer::restore: checkpoint is from phase \"" +
        state.phase + "\"");
  }
  if (state.permutation.size() != demos_.size()) {
    throw ckpt::CheckpointError(
        "ImitationTrainer::restore: permutation covers " +
        std::to_string(state.permutation.size()) + " demos, trainer has " +
        std::to_string(demos_.size()));
  }
  if (state.curve.size() != state.next_epoch) {
    throw ckpt::CheckpointError(
        "ImitationTrainer::restore: curve length does not match epoch "
        "counter");
  }
  ckpt::restore_into(policy_.net(), state.net);
  ckpt::restore_into(optimizer_.cache(), state.optimizer);
  rng_.set_state(state.rng);
  next_epoch_ = state.next_epoch;
  batches_done_ = state.episodes;
  result_.epoch_losses = state.curve;
  order_.assign(state.permutation.begin(), state.permutation.end());
}

}  // namespace spear
