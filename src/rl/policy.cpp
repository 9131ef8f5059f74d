#include "rl/policy.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace spear {

namespace {

/// Fills `mask` with the valid-output mask (assign() reuses capacity, so a
/// caller-held buffer makes this allocation-free at steady state).
void fill_valid_mask(const SchedulingEnv& env, const Featurizer& featurizer,
                     std::vector<bool>& mask) {
  mask.assign(featurizer.num_actions(), false);
  const std::size_t visible =
      std::min(env.ready().size(), featurizer.options().max_ready);
  for (std::size_t i = 0; i < visible; ++i) {
    if (env.can_schedule(i)) mask[i] = true;
  }
  if (env.can_process()) mask[featurizer.process_output()] = true;
}

}  // namespace

Policy::Policy(Featurizer featurizer, Mlp net, std::size_t resource_dims)
    : featurizer_(featurizer), net_(std::move(net)),
      resource_dims_(resource_dims) {
  if (net_.input_dim() != featurizer_.input_dim(resource_dims_)) {
    throw std::invalid_argument("Policy: network input dim mismatch");
  }
  if (net_.output_dim() != featurizer_.num_actions()) {
    throw std::invalid_argument("Policy: network output dim mismatch");
  }
}

Policy Policy::make(FeaturizerOptions featurizer_options,
                    std::size_t resource_dims, Rng& rng,
                    std::vector<std::size_t> hidden) {
  Featurizer featurizer(featurizer_options);
  std::vector<std::size_t> sizes;
  sizes.push_back(featurizer.input_dim(resource_dims));
  for (std::size_t h : hidden) sizes.push_back(h);
  sizes.push_back(featurizer.num_actions());
  Mlp net(sizes, rng);
  return Policy(featurizer, std::move(net), resource_dims);
}

std::vector<bool> Policy::valid_output_mask(const SchedulingEnv& env) const {
  std::vector<bool> mask;
  fill_valid_mask(env, featurizer_, mask);
  return mask;
}

void Policy::masked_softmax_into(const double* logits,
                                 const std::vector<bool>& mask, std::size_t n,
                                 double* out) {
  if (mask.size() != n) {
    throw std::invalid_argument("masked_softmax: size mismatch");
  }
  double max = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    if (mask[i]) max = std::max(max, logits[i]);
  }
  if (max == -std::numeric_limits<double>::infinity()) {
    throw std::logic_error("masked_softmax: no valid action");
  }
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!mask[i]) {
      out[i] = 0.0;
      continue;
    }
    out[i] = std::exp(logits[i] - max);
    sum += out[i];
  }
  for (std::size_t i = 0; i < n; ++i) out[i] /= sum;
}

std::vector<double> Policy::masked_softmax(const std::vector<double>& logits,
                                           const std::vector<bool>& mask) {
  std::vector<double> probs(logits.size(), 0.0);
  masked_softmax_into(logits.data(), mask, logits.size(), probs.data());
  return probs;
}

const std::vector<double>& Policy::one_row_probs(
    const SchedulingEnv& env) const {
  const SchedulingEnv* one = &env;
  action_probs_batch(&one, 1, batch_masks_, batch_probs_);
  return batch_probs_.front();
}

std::vector<double> Policy::action_probs(const SchedulingEnv& env) const {
  return one_row_probs(env);
}

void Policy::action_probs_batch(const SchedulingEnv* const* envs,
                                std::size_t n,
                                std::vector<std::vector<bool>>& masks,
                                std::vector<std::vector<double>>& probs) const {
  masks.resize(n);
  probs.resize(n);
  if (n == 0) return;
  Mlp::ForwardWorkspace& ws = ws_;
  Matrix& input = net_.begin_forward(ws, n);
  const std::size_t dim = net_.input_dim();
  // Each row's compressed (index, value) form is emitted while the
  // features are written, so forward_ws never re-scans the ~80%-zero
  // input (stride = input width, matching forward_ws's expectation).
  for (std::size_t i = 0; i < n; ++i) {
    featurizer_.featurize_compress_into(
        *envs[i], input.data().data() + i * dim, ws.kidx.data() + i * dim,
        ws.kval.data() + i * dim, ws.row_nnz.data() + i);
  }
  ws.input_compressed = true;
  net_.forward_ws(ws);
  const Matrix& logits = ws.logits();
  const std::size_t k = num_outputs();
  for (std::size_t i = 0; i < n; ++i) {
    fill_valid_mask(*envs[i], featurizer_, masks[i]);
    probs[i].assign(k, 0.0);
    masked_softmax_into(logits.data().data() + i * k, masks[i], k,
                        probs[i].data());
  }
}

std::size_t Policy::greedy_output(const SchedulingEnv& env) const {
  const std::vector<double>& probs = one_row_probs(env);
  return static_cast<std::size_t>(
      std::max_element(probs.begin(), probs.end()) - probs.begin());
}

int Policy::to_env_action(std::size_t output) const {
  if (output == featurizer_.process_output()) {
    return SchedulingEnv::kProcessAction;
  }
  return static_cast<int>(output);
}

}  // namespace spear
