// The policy network: a multi-layer perceptron with ReLU hidden layers and
// a linear output head (softmax is applied by the loss / action sampler).
// The paper's architecture is 3 hidden layers of widths 256, 32 and 32
// (§IV); the class supports any depth.
//
// Backpropagation is implemented manually (no autograd): forward() caches
// pre-activations, backward() walks them in reverse.  Gradients accumulate
// into an Mlp::Gradients of identical shape, so mini-batch accumulation and
// optimizer steps are trivial.

#pragma once

#include <cstdint>
#include <vector>

#include "nn/matrix.h"

namespace spear {

class Mlp {
 public:
  struct Layer {
    Matrix weights;            // fan_in x fan_out
    std::vector<double> bias;  // fan_out
  };

  /// Gradient buffers matching a network's parameter shapes.
  struct Gradients {
    std::vector<Matrix> d_weights;
    std::vector<std::vector<double>> d_bias;

    void zero();
    void scale(double factor);
    /// Accumulates other into this (shapes must match).
    void add(const Gradients& other);
    double max_abs() const;
    /// Sum of squares over every entry — the global L2 norm squared.
    double squared_norm() const;
    /// False if any entry is NaN or infinite.
    bool all_finite() const;
  };

  /// Cached intermediate results of one forward pass.
  struct Forward {
    std::vector<Matrix> pre_activations;  // per layer, before ReLU
    Matrix input;                         // batch input (kept for backward)
    Matrix logits;                        // final linear output
  };

  /// Preallocated buffers for the allocation-free forward/backward path
  /// (DESIGN.md §10).  Buffers grow to the high-water batch size on first
  /// use and are reused verbatim afterwards: a workspace cycled through
  /// differing batch sizes performs zero heap allocations at steady state.
  /// Growth is counted into the nn.alloc_bytes metric, so a run whose
  /// counter stops moving has reached the zero-allocation regime.  One
  /// workspace serves one thread; the service gives each worker its own
  /// (via the per-worker Policy clones).
  struct ForwardWorkspace {
    Matrix input;                         // batch x input_dim (caller fills)
    std::vector<Matrix> pre_activations;  // per layer, before ReLU
    std::vector<Matrix> activations;      // per hidden layer, after ReLU
    Matrix d_logits;   // batch x output_dim, caller-filled for backward_ws
    Matrix delta;      // backward scratch (dLoss/dZ of the current layer)
    Matrix delta_prev; // backward scratch (next delta, ping-ponged)
    Matrix dw_scratch; // per-layer weight-gradient staging
    std::vector<double> db_scratch;  // per-layer bias-gradient staging
    std::vector<std::int32_t> kidx;  // compressed-activation indices
    std::vector<double> kval;        // compressed-activation values
    std::vector<std::int32_t> row_nnz;  // nonzeros per compressed row
    /// Set by callers that filled kidx/kval/row_nnz with ws.input's
    /// compressed form (stride = input width) while writing it — e.g.
    /// Featurizer::featurize_compress_into — letting forward_ws skip its
    /// own compression scan.  Reset to false by begin_forward().
    bool input_compressed = false;

    /// Batch rows of the pass begun by the last begin_forward().
    std::size_t rows() const { return input.rows(); }
    /// Logits of the last forward_ws() pass.
    const Matrix& logits() const { return pre_activations.back(); }
  };

  /// Sizes `ws` for a `rows`-row pass and returns ws.input (rows x
  /// input_dim, zero-filled) for the caller to fill.  Reuses every buffer
  /// whose capacity suffices; grown bytes are counted into nn.alloc_bytes.
  Matrix& begin_forward(ForwardWorkspace& ws, std::size_t rows) const;

  /// Forward pass over ws.input into ws (logits in ws.logits()).
  /// Bit-identical to forward() on the same rows; no heap allocation.
  void forward_ws(ForwardWorkspace& ws) const;

  /// Backward pass using the activations cached in `ws` by forward_ws();
  /// `d_logits` is dLoss/dLogits (ws.rows() x output_dim) — ws.d_logits or
  /// any caller matrix.  Accumulates into `grads`, bit-identical to
  /// backward(); no heap allocation.
  void backward_ws(ForwardWorkspace& ws, const Matrix& d_logits,
                   Gradients& grads) const;

  /// sizes = {input, hidden..., output}; must have >= 2 entries.
  /// Weights are He-normal initialized from `rng`, biases zero.
  Mlp(std::vector<std::size_t> sizes, Rng& rng);

  const std::vector<std::size_t>& sizes() const { return sizes_; }
  std::size_t input_dim() const { return sizes_.front(); }
  std::size_t output_dim() const { return sizes_.back(); }
  std::size_t num_parameters() const;

  std::vector<Layer>& layers() { return layers_; }
  const std::vector<Layer>& layers() const { return layers_; }

  /// Batched forward pass; input is batch x input_dim.
  Forward forward(const Matrix& input) const;

  /// Convenience single-sample forward: returns the logits row.
  std::vector<double> logits(const std::vector<double>& input) const;

  /// Backward pass: `d_logits` is dLoss/dLogits (batch x output_dim);
  /// gradients are *accumulated* into `grads` (call grads.zero() first for
  /// a fresh batch).
  void backward(const Forward& cache, const Matrix& d_logits,
                Gradients& grads) const;

  /// Gradient buffers of the right shapes, zero-filled.
  Gradients make_gradients() const;

 private:
  std::vector<std::size_t> sizes_;
  std::vector<Layer> layers_;
};

}  // namespace spear
