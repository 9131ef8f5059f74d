// The scheduling policy: featurizer + MLP + masked softmax over actions.
//
// Network outputs K+1 logits for K = max visible ready tasks: output i < K
// is "schedule visible ready task i", output K is the process action.
// Invalid outputs (empty ready slot, task that does not fit, process on an
// idle cluster) are masked out and the remaining logits renormalized — the
// gradient of the masked log-softmax is (masked_probs - onehot) with zeros
// at masked entries, which is what training uses.

#pragma once

#include <memory>
#include <vector>

#include "common/rng.h"
#include "env/featurizer.h"
#include "nn/mlp.h"

namespace spear {

class Policy {
 public:
  /// Wraps an existing network; its input/output dims must match
  /// `featurizer.input_dim(resource_dims)` / `featurizer.num_actions()`.
  Policy(Featurizer featurizer, Mlp net, std::size_t resource_dims);

  /// Builds a fresh He-initialized policy with the paper's default topology
  /// (hidden layers 256, 32, 32).
  static Policy make(FeaturizerOptions featurizer_options,
                     std::size_t resource_dims, Rng& rng,
                     std::vector<std::size_t> hidden = {256, 32, 32});

  const Featurizer& featurizer() const { return featurizer_; }
  Mlp& net() { return net_; }
  const Mlp& net() const { return net_; }
  std::size_t resource_dims() const { return resource_dims_; }
  std::size_t num_outputs() const { return featurizer_.num_actions(); }

  /// Mask of valid network outputs in `env`'s current state.
  std::vector<bool> valid_output_mask(const SchedulingEnv& env) const;

  /// Masked softmax action distribution (size num_outputs; zeros at invalid
  /// outputs): row 0 of action_probs_batch over this one state.  Requires
  /// at least one valid action (i.e. !env.done()).
  std::vector<double> action_probs(const SchedulingEnv& env) const;

  /// The one inference path: featurizes all `n` states straight into the
  /// network workspace as rows of one input matrix, runs ONE forward pass,
  /// and emits each row's masked softmax into probs[i] (and its mask into
  /// masks[i]).  Row results do not depend on the batch size — each logits
  /// row depends only on its own input row and the kernels never mix rows.
  /// With reused masks/probs the steady state performs no heap allocation.
  void action_probs_batch(const SchedulingEnv* const* envs, std::size_t n,
                          std::vector<std::vector<bool>>& masks,
                          std::vector<std::vector<double>>& probs) const;

  /// Highest-probability valid output (the first maximum).
  std::size_t greedy_output(const SchedulingEnv& env) const;

  /// Translates a network output index to a SchedulingEnv action.
  int to_env_action(std::size_t output) const;

  /// Applies `mask` to raw logits and renormalizes: masked softmax.
  /// Exposed for the trainers.
  static std::vector<double> masked_softmax(const std::vector<double>& logits,
                                            const std::vector<bool>& mask);

  /// Span form of masked_softmax writing into caller storage (out must
  /// hold n doubles) — the zero-allocation primitive behind it.
  static void masked_softmax_into(const double* logits,
                                  const std::vector<bool>& mask,
                                  std::size_t n, double* out);

 private:
  Featurizer featurizer_;
  Mlp net_;
  std::size_t resource_dims_;
  /// action_probs_batch over the one state `env`, into the reused
  /// batch_masks_/batch_probs_; returns row 0.
  const std::vector<double>& one_row_probs(const SchedulingEnv& env) const;

  /// Per-policy inference workspace and single-state output buffers (one
  /// thread per Policy instance; the service clones the whole Policy per
  /// worker).
  mutable Mlp::ForwardWorkspace ws_;
  mutable std::vector<std::vector<bool>> batch_masks_;
  mutable std::vector<std::vector<double>> batch_probs_;
};

}  // namespace spear
