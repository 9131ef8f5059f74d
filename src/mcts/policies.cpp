#include "mcts/policies.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "sched/critical_path.h"
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

/// Shared shape of the heuristic policies: score every placeable ready
/// task, give process the mean schedule weight (pack first, never starve
/// completions), sort descending.
template <typename ScoreFn>
std::vector<std::pair<int, double>> scored_weights(const SchedulingEnv& env,
                                                   ScoreFn score) {
  std::vector<std::pair<int, double>> out;
  double schedule_sum = 0.0;
  std::size_t schedule_count = 0;
  for (std::size_t i = 0; i < env.ready().size(); ++i) {
    if (!env.can_schedule(i)) continue;
    const double weight = 1e-6 + score(env.ready()[i]);
    out.emplace_back(static_cast<int>(i), weight);
    schedule_sum += weight;
    ++schedule_count;
  }
  if (env.can_process()) {
    const double mean = schedule_count > 0
                            ? schedule_sum / static_cast<double>(schedule_count)
                            : 1.0;
    out.emplace_back(SchedulingEnv::kProcessAction, mean);
  }
  sort_by_weight(out);
  return out;
}

/// Deterministic greedy pick: the best-scored schedule action while
/// anything fits, process otherwise.
int greedy_schedule_pick(const std::vector<std::pair<int, double>>& weights,
                         const char* who) {
  if (weights.empty()) {
    throw std::logic_error(std::string(who) + ": no valid actions");
  }
  int best_action = weights.front().first;
  double best_weight = weights.front().second;
  bool has_schedule = best_action != SchedulingEnv::kProcessAction;
  for (const auto& [action, weight] : weights) {
    if (action == SchedulingEnv::kProcessAction) continue;
    if (!has_schedule || weight > best_weight) {
      best_action = action;
      best_weight = weight;
      has_schedule = true;
    }
  }
  return best_action;
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

std::vector<std::pair<int, double>> HeuristicDecisionPolicy::action_weights(
    const SchedulingEnv& env) {
  // Normalized blend: b-level urgency (dependency awareness) x alignment
  // (packing awareness).  Both are positive, so products rank sensibly.
  std::vector<std::pair<int, double>> out;
  const double cp = static_cast<double>(
      std::max<Time>(env.features().critical_path(), 1));
  double schedule_sum = 0.0;
  std::size_t schedule_count = 0;
  for (std::size_t i = 0; i < env.ready().size(); ++i) {
    if (!env.can_schedule(i)) continue;
    const TaskId task = env.ready()[i];
    const double urgency =
        static_cast<double>(env.features().b_level(task)) / cp;
    const double alignment = tetris_alignment(env, task);
    const double weight = 1e-6 + urgency * (1e-6 + alignment);
    out.emplace_back(static_cast<int>(i), weight);
    schedule_sum += weight;
    ++schedule_count;
  }
  if (env.can_process()) {
    // Processing is as attractive as an average schedule action: the agent
    // should usually pack first, but never starve completions.
    const double mean = schedule_count > 0
                            ? schedule_sum / static_cast<double>(schedule_count)
                            : 1.0;
    out.emplace_back(SchedulingEnv::kProcessAction, mean);
  }
  sort_by_weight(out);
  return out;
}

std::shared_ptr<DecisionPolicy> HeuristicDecisionPolicy::clone() const {
  return std::make_shared<HeuristicDecisionPolicy>();
}

int HeuristicDecisionPolicy::pick(const SchedulingEnv& env, Rng& rng) {
  (void)rng;
  return greedy_schedule_pick(action_weights(env),
                              "HeuristicDecisionPolicy::pick");
}

std::vector<std::pair<int, double>> CpDecisionPolicy::action_weights(
    const SchedulingEnv& env) {
  const double cp = static_cast<double>(
      std::max<Time>(env.features().critical_path(), 1));
  return scored_weights(env, [&](TaskId task) {
    return static_cast<double>(env.features().b_level(task)) / cp;
  });
}

int CpDecisionPolicy::pick(const SchedulingEnv& env, Rng& rng) {
  (void)rng;
  return greedy_schedule_pick(action_weights(env), "CpDecisionPolicy::pick");
}

std::shared_ptr<DecisionPolicy> CpDecisionPolicy::clone() const {
  return std::make_shared<CpDecisionPolicy>();
}

std::vector<std::pair<int, double>> TetrisDecisionPolicy::action_weights(
    const SchedulingEnv& env) {
  return scored_weights(
      env, [&](TaskId task) { return tetris_alignment(env, task); });
}

int TetrisDecisionPolicy::pick(const SchedulingEnv& env, Rng& rng) {
  (void)rng;
  return greedy_schedule_pick(action_weights(env),
                              "TetrisDecisionPolicy::pick");
}

std::shared_ptr<DecisionPolicy> TetrisDecisionPolicy::clone() const {
  return std::make_shared<TetrisDecisionPolicy>();
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
  record_forward(n);
  policy_->action_probs_batch(envs, n, batch_masks_, batch_probs_);
}

void DrlDecisionPolicy::record_forward(std::size_t rows) {
  if (forward_hist_.size() <= rows) forward_hist_.resize(rows + 1, 0);
  ++forward_hist_[rows];
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
  // Allocation-free inference: features land straight in the network
  // workspace and the probabilities in a reused buffer; only the returned
  // weight list is materialized.
  record_forward(1);
  policy_->action_probs_into(env, mask_buf_, probs_buf_);
  return weights_from_probs(probs_buf_);
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
  record_forward(1);
  if (greedy_) {
    return policy_->to_env_action(policy_->greedy_output(env));
  }
  return policy_->to_env_action(policy_->sample_output(env, rng));
}

void DrlDecisionPolicy::share_rollout_cache(
    std::shared_ptr<SharedActionCache> cache) {
  rollout_cache_hits_ = 0;
  rollout_cache_misses_ = 0;
  // Sampling rollouts never cache (a skipped draw would shift the stream).
  rollout_cache_ = greedy_ ? std::move(cache) : nullptr;
}

void DrlDecisionPolicy::pick_batch(const SchedulingEnv* const* envs,
                                   std::size_t n, Rng* const* rngs, int* out) {
  if (n == 0) return;
  if (rollout_cache_) {
    // Greedy mode with the cache armed: probe every row's canonical key and
    // forward only the misses.  A hit is bit-identical to a fresh argmax
    // (the cached action WAS a fresh argmax of the same state), and greedy
    // rows consume no RNG, so skipping the forward shifts nothing.
    miss_keys_.clear();
    miss_envs_.clear();
    miss_rows_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      key_buf_.clear();
      envs[i]->append_canonical_key(key_buf_);
      int cached = 0;
      if (rollout_cache_->find(key_buf_, &cached)) {
        out[i] = cached;
        ++rollout_cache_hits_;
      } else {
        miss_keys_.push_back(key_buf_);
        miss_envs_.push_back(envs[i]);
        miss_rows_.push_back(i);
        ++rollout_cache_misses_;
      }
    }
    if (miss_envs_.empty()) return;
    forward_batch(miss_envs_.data(), miss_envs_.size());
    for (std::size_t j = 0; j < miss_envs_.size(); ++j) {
      const std::vector<double>& probs = batch_probs_[j];
      // Same argmax (first maximum) as Policy::greedy_output.
      const auto output = static_cast<std::size_t>(
          std::max_element(probs.begin(), probs.end()) - probs.begin());
      const int action = policy_->to_env_action(output);
      out[miss_rows_[j]] = action;
      rollout_cache_->insert(miss_keys_[j], action);
    }
    return;
  }
  forward_batch(envs, n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::vector<double>& probs = batch_probs_[i];
    std::size_t output;
    if (greedy_) {
      // Same argmax (first maximum) as Policy::greedy_output.
      output = static_cast<std::size_t>(
          std::max_element(probs.begin(), probs.end()) - probs.begin());
    } else {
      output = rngs[i]->categorical(probs);
    }
    out[i] = policy_->to_env_action(output);
  }
}

}  // namespace spear
