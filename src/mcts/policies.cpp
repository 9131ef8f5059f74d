#include "mcts/policies.h"

#include <algorithm>
#include <stdexcept>

#include "sched/tetris.h"

namespace spear {

namespace {

/// Sorts action/weight pairs by descending weight, ties keeping env order —
/// the ordering contract of DecisionPolicy::action_weights.
void sort_by_weight(std::vector<std::pair<int, double>>& weights) {
  std::stable_sort(
      weights.begin(), weights.end(),
      [](const auto& a, const auto& b) { return a.second > b.second; });
}

}  // namespace

std::vector<std::vector<std::pair<int, double>>>
DecisionPolicy::action_weights_batch(const SchedulingEnv* const* envs,
                                     std::size_t n) {
  std::vector<std::vector<std::pair<int, double>>> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(action_weights(*envs[i]));
  return out;
}

int DecisionPolicy::pick(const SchedulingEnv& env, Rng& rng) {
  const auto weights = action_weights(env);
  if (weights.empty()) {
    throw std::logic_error("DecisionPolicy::pick: no valid actions");
  }
  // Sample proportionally to the weights in place — this is the rollout hot
  // path, so no second weight vector is materialized.  Mirrors
  // Rng::categorical exactly (one uniform draw, positive-weight walk) so
  // results are bit-identical to sampling via a copied vector.
  double total = 0.0;
  for (const auto& [action, weight] : weights) {
    if (weight > 0.0) total += weight;
  }
  if (total <= 0.0) {
    // Degenerate all-zero weights fall back to uniform.
    total = 0.0;
    for (std::size_t i = 0; i < weights.size(); ++i) total += 1.0;
    double r = rng.uniform() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
      r -= 1.0;
      if (r <= 0.0) return weights[i].first;
    }
    return weights.back().first;
  }
  double r = rng.uniform() * total;
  for (const auto& [action, weight] : weights) {
    if (weight <= 0.0) continue;
    r -= weight;
    if (r <= 0.0) return action;
  }
  // Floating-point slop: return the last positive-weight action.
  for (std::size_t i = weights.size(); i-- > 0;) {
    if (weights[i].second > 0.0) return weights[i].first;
  }
  return weights.back().first;  // unreachable: total > 0
}

std::int64_t DecisionPolicy::forward_calls() const {
  std::int64_t calls = 0;
  if (const std::vector<std::int64_t>* hist = forward_hist()) {
    for (const std::int64_t c : *hist) calls += c;
  }
  return calls;
}

std::int64_t DecisionPolicy::forward_rows() const {
  std::int64_t rows = 0;
  if (const std::vector<std::int64_t>* hist = forward_hist()) {
    for (std::size_t w = 0; w < hist->size(); ++w) {
      rows += static_cast<std::int64_t>(w) * (*hist)[w];
    }
  }
  return rows;
}

void DecisionPolicy::pick_batch(const SchedulingEnv* const* envs,
                                std::size_t n, Rng* const* rngs, int* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = pick(*envs[i], *rngs[i]);
}

std::vector<std::pair<int, double>> RandomDecisionPolicy::action_weights(
    const SchedulingEnv& env) {
  // All-equal weights are trivially in descending order already.
  const auto actions = env.valid_actions();
  std::vector<std::pair<int, double>> out;
  out.reserve(actions.size());
  for (int action : actions) out.emplace_back(action, 1.0);
  return out;
}

std::shared_ptr<DecisionPolicy> RandomDecisionPolicy::clone() const {
  return std::make_shared<RandomDecisionPolicy>();
}

HeuristicDecisionPolicy::HeuristicDecisionPolicy()
    : HeuristicDecisionPolicy(cp_tetris_blend) {}

HeuristicDecisionPolicy::HeuristicDecisionPolicy(PriorityFn score)
    : score_(std::move(score)) {
  if (!score_) {
    throw std::invalid_argument("HeuristicDecisionPolicy: null score");
  }
}

std::vector<std::pair<int, double>> HeuristicDecisionPolicy::action_weights(
    const SchedulingEnv& env) {
  std::vector<std::pair<int, double>> out;
  double schedule_sum = 0.0;
  for (std::size_t i = 0; i < env.ready().size(); ++i) {
    if (!env.can_schedule(i)) continue;
    const double w = weight(env, env.ready()[i]);
    out.emplace_back(static_cast<int>(i), w);
    schedule_sum += w;
  }
  if (env.can_process()) {
    const double mean =
        out.empty() ? 1.0 : schedule_sum / static_cast<double>(out.size());
    out.emplace_back(SchedulingEnv::kProcessAction, mean);
  }
  sort_by_weight(out);
  return out;
}

int HeuristicDecisionPolicy::pick(const SchedulingEnv& env, Rng& rng) {
  (void)rng;
  return greedy_action(env, [this](const SchedulingEnv& state, TaskId task) {
    return weight(state, task);
  });
}

std::shared_ptr<DecisionPolicy> HeuristicDecisionPolicy::clone() const {
  return std::make_shared<HeuristicDecisionPolicy>(score_);
}

DrlDecisionPolicy::DrlDecisionPolicy(std::shared_ptr<const Policy> policy,
                                     bool greedy)
    : policy_(std::move(policy)), greedy_(greedy) {
  if (!policy_) {
    throw std::invalid_argument("DrlDecisionPolicy: null policy");
  }
}

void DrlDecisionPolicy::forward_batch(const SchedulingEnv* const* envs,
                                      std::size_t n) {
  if (forward_hist_.size() <= n) forward_hist_.resize(n + 1, 0);
  ++forward_hist_[n];
  policy_->action_probs_batch(envs, n, batch_masks_, batch_probs_);
}

std::vector<std::pair<int, double>> DrlDecisionPolicy::weights_from_probs(
    const std::vector<double>& probs) const {
  std::vector<std::pair<int, double>> out;
  for (std::size_t o = 0; o < probs.size(); ++o) {
    if (probs[o] > 0.0) {
      out.emplace_back(policy_->to_env_action(o), probs[o]);
    }
  }
  sort_by_weight(out);
  return out;
}

std::vector<std::pair<int, double>> DrlDecisionPolicy::action_weights(
    const SchedulingEnv& env) {
  const SchedulingEnv* one = &env;
  return std::move(action_weights_batch(&one, 1).front());
}

std::vector<std::vector<std::pair<int, double>>>
DrlDecisionPolicy::action_weights_batch(const SchedulingEnv* const* envs,
                                        std::size_t n) {
  std::vector<std::vector<std::pair<int, double>>> out;
  out.reserve(n);
  forward_batch(envs, n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(weights_from_probs(batch_probs_[i]));
  }
  return out;
}

std::shared_ptr<DecisionPolicy> DrlDecisionPolicy::clone() const {
  // Each clone owns a full copy of the Policy (weights + scratch), so
  // concurrent forward passes on different threads cannot race.
  return std::make_shared<DrlDecisionPolicy>(
      std::make_shared<const Policy>(*policy_), greedy_);
}

int DrlDecisionPolicy::pick(const SchedulingEnv& env, Rng& rng) {
  const SchedulingEnv* one = &env;
  Rng* one_rng = &rng;
  int action = 0;
  pick_batch(&one, 1, &one_rng, &action);
  return action;
}

void DrlDecisionPolicy::share_rollout_cache(
    std::shared_ptr<SharedActionCache> cache) {
  // Greedy picks are a pure function of the state: say so on the cache.
  if (greedy_ && cache) cache->mark_kept_by_pure_guide();
}

void DrlDecisionPolicy::pick_batch(const SchedulingEnv* const* envs,
                                   std::size_t n, Rng* const* rngs, int* out) {
  forward_batch(envs, n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::vector<double>& probs = batch_probs_[i];
    // Greedy takes the first maximum; sampling draws from the row's own RNG.
    const std::size_t output =
        greedy_ ? static_cast<std::size_t>(
                      std::max_element(probs.begin(), probs.end()) -
                      probs.begin())
                : rngs[i]->categorical(probs);
    out[i] = policy_->to_env_action(output);
  }
}

}  // namespace spear
