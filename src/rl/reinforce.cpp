#include "rl/reinforce.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "common/logging.h"
#include "nn/grad_guard.h"
#include "nn/loss.h"
#include "obs/obs.h"
#include "sched/list_scheduler.h"

namespace spear {

namespace {

struct EpisodeStep {
  std::vector<double> features;
  std::vector<bool> mask;
  std::size_t output = 0;  // sampled network output index
};

struct Episode {
  std::vector<EpisodeStep> steps;
  double ret = 0.0;  // cumulative reward = -makespan
};

// A sampled process action jumps to the next completion (identical
// reachable states, many fewer gradient steps; see DESIGN.md).  Every step
// reward is a whole number of slots, so their sum is exactly -makespan.
Episode play_episode(const Policy& policy, SchedulingEnv env, Rng& rng,
                     Mlp::ForwardWorkspace& ws, std::vector<double>& probs) {
  const Mlp& net = policy.net();
  Episode episode;
  const Time makespan = run_greedy(env, [&](const SchedulingEnv& state) {
    EpisodeStep step;
    // Features go straight into the reused workspace row; the copy kept in
    // the step record feeds the batched gradient pass later.
    Matrix& input = net.begin_forward(ws, 1);
    policy.featurizer().featurize_into(state, input.data().data());
    step.features.assign(input.data().begin(), input.data().end());
    step.mask = policy.valid_output_mask(state);
    net.forward_ws(ws);
    probs.assign(net.output_dim(), 0.0);
    Policy::masked_softmax_into(ws.logits().data().data(), step.mask,
                                net.output_dim(), probs.data());
    step.output = rng.categorical(probs);
    episode.steps.push_back(std::move(step));
    return policy.to_env_action(episode.steps.back().output);
  });
  episode.ret = -static_cast<double>(makespan);
  return episode;
}

}  // namespace

ReinforceTrainer::ReinforceTrainer(Policy& policy,
                                   const std::vector<Dag>& examples,
                                   const ResourceVector& capacity,
                                   const ReinforceOptions& options, Rng& rng)
    : policy_(policy),
      capacity_(capacity),
      options_(options),
      rng_(rng),
      optimizer_(policy.net(), options.optimizer),
      grads_(policy.net().make_gradients()) {
  if (examples.empty()) {
    throw std::invalid_argument("ReinforceTrainer: no training examples");
  }
  if (options_.rollouts_per_example == 0) {
    throw std::invalid_argument(
        "ReinforceTrainer: rollouts_per_example must be > 0");
  }

  env_options_.max_ready = policy_.featurizer().options().max_ready;

  // Immutable DAG state shared across all rollouts of an example.
  for (const auto& d : examples) {
    dags_.push_back(std::make_shared<Dag>(d));
    features_.push_back(std::make_shared<DagFeatures>(d));
  }
}

double ReinforceTrainer::run_epoch() {
  Mlp& net = policy_.net();
  const std::size_t epoch = next_epoch_;

  obs::ScopedTimer epoch_span("reinforce.epoch", "rl");
  epoch_span.set_args("\"epoch\":" + std::to_string(epoch));
  double makespan_sum = 0.0;
  std::size_t makespan_count = 0;

  for (std::size_t e = 0; e < dags_.size(); ++e) {
    // 1. Play the example's rollouts with the current policy.
    std::vector<Episode> episodes;
    episodes.reserve(options_.rollouts_per_example);
    for (std::size_t r = 0; r < options_.rollouts_per_example; ++r) {
      SchedulingEnv env(dags_[e], capacity_, env_options_, features_[e]);
      episodes.push_back(
          play_episode(policy_, std::move(env), rng_, ws_, probs_scratch_));
      makespan_sum += -episodes.back().ret;
      ++makespan_count;
      ++episodes_;
    }

    // 2. Baseline = mean return over the example's rollouts.
    double baseline = 0.0;
    for (const auto& ep : episodes) baseline += ep.ret;
    baseline /= static_cast<double>(episodes.size());
    if (!std::isfinite(baseline)) {
      SPEAR_LOG(Warn) << "REINFORCE: non-finite return on example " << e
                      << " (epoch " << epoch << "); skipping its update";
      ++result_.skipped_updates;
      continue;
    }
    last_baseline_ = baseline;
    const double scale = std::max(std::abs(baseline), 1.0);

    // 3. Policy-gradient step.  Descent gradient of
    //    -(G - b) * log pi(a|s) w.r.t. logits is (G - b)(pi - onehot);
    //    normalized by baseline magnitude and rollout count.
    grads_.zero();
    std::size_t total_steps = 0;
    for (const auto& ep : episodes) total_steps += ep.steps.size();
    if (total_steps == 0) continue;

    for (const auto& ep : episodes) {
      if (ep.steps.empty()) continue;
      const double advantage = (ep.ret - baseline) / scale;
      if (advantage == 0.0) continue;
      // RmsProp minimizes, so the descent gradient of the surrogate loss
      // -advantage * log pi is advantage * (pi - onehot).
      const double weight = advantage / static_cast<double>(episodes.size());

      // Batched forward/backward through the reused workspace — identical
      // math to a freshly allocated forward()/backward() pair.
      Matrix& input = net.begin_forward(ws_, ep.steps.size());
      for (std::size_t s = 0; s < ep.steps.size(); ++s) {
        std::copy(ep.steps[s].features.begin(), ep.steps[s].features.end(),
                  input.data().begin() +
                      static_cast<std::ptrdiff_t>(s * net.input_dim()));
      }
      net.forward_ws(ws_);
      const std::size_t out_dim = net.output_dim();
      probs_scratch_.assign(out_dim, 0.0);
      for (std::size_t s = 0; s < ep.steps.size(); ++s) {
        Policy::masked_softmax_into(
            ws_.logits().data().data() + s * out_dim, ep.steps[s].mask,
            out_dim, probs_scratch_.data());
        for (std::size_t j = 0; j < out_dim; ++j) {
          const double onehot = j == ep.steps[s].output ? 1.0 : 0.0;
          ws_.d_logits(s, j) = weight * (probs_scratch_[j] - onehot);
        }
      }
      net.backward_ws(ws_, ws_.d_logits, grads_);
    }
    const GradGuardReport guard = guard_gradients(grads_, options_.max_grad_norm);
    if (guard.skipped) {
      SPEAR_LOG(Warn) << "REINFORCE: non-finite gradient on example " << e
                      << " (epoch " << epoch << "); skipping its update";
      ++result_.skipped_updates;
      continue;
    }
    if (guard.clipped) ++result_.clipped_updates;
    optimizer_.step(net, grads_);
  }

  const double mean_makespan =
      makespan_sum /
      static_cast<double>(std::max<std::size_t>(makespan_count, 1));
  result_.epoch_mean_makespan.push_back(mean_makespan);
  if (obs::enabled()) {
    obs::count("reinforce.epochs");
    obs::gauge("reinforce.last_mean_makespan", mean_makespan);
  }
  ++next_epoch_;
  return mean_makespan;
}

ReinforceResult ReinforceTrainer::finalize() {
  if (obs::enabled()) {
    obs::count("reinforce.clipped_updates",
               static_cast<std::int64_t>(result_.clipped_updates));
    obs::count("reinforce.skipped_updates",
               static_cast<std::int64_t>(result_.skipped_updates));
  }
  return result_;
}

ckpt::TrainerState ReinforceTrainer::checkpoint_state() const {
  ckpt::TrainerState state;
  state.phase = ckpt::kPhaseReinforce;
  state.next_epoch = next_epoch_;
  state.episodes = episodes_;
  state.clipped_updates = result_.clipped_updates;
  state.skipped_updates = result_.skipped_updates;
  state.baseline = last_baseline_;
  state.rng = rng_.state();
  state.curve = result_.epoch_mean_makespan;
  state.net = ckpt::snapshot_of(policy_.net());
  state.optimizer = ckpt::snapshot_of(optimizer_.cache());
  return state;
}

void ReinforceTrainer::restore(const ckpt::TrainerState& state) {
  if (state.phase != ckpt::kPhaseReinforce) {
    throw ckpt::CheckpointError(
        "ReinforceTrainer::restore: checkpoint is from phase \"" +
        state.phase + "\"");
  }
  if (state.curve.size() != state.next_epoch) {
    throw ckpt::CheckpointError(
        "ReinforceTrainer::restore: curve length does not match epoch "
        "counter");
  }
  ckpt::restore_into(policy_.net(), state.net);
  ckpt::restore_into(optimizer_.cache(), state.optimizer);
  rng_.set_state(state.rng);
  next_epoch_ = state.next_epoch;
  episodes_ = state.episodes;
  last_baseline_ = state.baseline;
  result_.epoch_mean_makespan = state.curve;
  result_.clipped_updates = state.clipped_updates;
  result_.skipped_updates = state.skipped_updates;
}

}  // namespace spear
