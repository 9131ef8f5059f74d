#include "nn/mlp.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "nn/kernels.h"
#include "obs/obs.h"

namespace spear {

namespace {

/// Reshapes `m` and returns the bytes newly allocated by the reshape (zero
/// once the buffer has reached its high-water capacity).  `zero` selects
/// reshape() vs reshape_uninit(): scratch buffers whose every element the
/// next kernel overwrites skip the zero sweep, which would otherwise cost
/// more than a single-row forward pass.
std::size_t reshape_tracked(Matrix& m, std::size_t rows, std::size_t cols,
                            bool zero = true) {
  const std::size_t before = m.data().capacity();
  if (zero) {
    m.reshape(rows, cols);
  } else {
    m.reshape_uninit(rows, cols);
  }
  return (m.data().capacity() - before) * sizeof(double);
}

template <typename T>
std::size_t resize_tracked(std::vector<T>& v, std::size_t n) {
  const std::size_t before = v.capacity();
  v.assign(n, T{});
  return (v.capacity() - before) * sizeof(T);
}

}  // namespace

void Mlp::Gradients::zero() {
  for (auto& w : d_weights) w.fill(0.0);
  for (auto& b : d_bias) std::fill(b.begin(), b.end(), 0.0);
}

void Mlp::Gradients::scale(double factor) {
  for (auto& w : d_weights) w *= factor;
  for (auto& b : d_bias) {
    for (auto& x : b) x *= factor;
  }
}

void Mlp::Gradients::add(const Gradients& other) {
  if (d_weights.size() != other.d_weights.size()) {
    throw std::invalid_argument("Gradients::add: layer count mismatch");
  }
  for (std::size_t l = 0; l < d_weights.size(); ++l) {
    d_weights[l] += other.d_weights[l];
    if (d_bias[l].size() != other.d_bias[l].size()) {
      throw std::invalid_argument("Gradients::add: bias shape mismatch");
    }
    for (std::size_t i = 0; i < d_bias[l].size(); ++i) {
      d_bias[l][i] += other.d_bias[l][i];
    }
  }
}

double Mlp::Gradients::max_abs() const {
  double m = 0.0;
  for (const auto& w : d_weights) m = std::max(m, w.max_abs());
  for (const auto& b : d_bias) {
    for (double x : b) m = std::max(m, std::abs(x));
  }
  return m;
}

double Mlp::Gradients::squared_norm() const {
  double sum = 0.0;
  for (const auto& w : d_weights) {
    for (double x : w.data()) sum += x * x;
  }
  for (const auto& b : d_bias) {
    for (double x : b) sum += x * x;
  }
  return sum;
}

bool Mlp::Gradients::all_finite() const {
  for (const auto& w : d_weights) {
    for (double x : w.data()) {
      if (!std::isfinite(x)) return false;
    }
  }
  for (const auto& b : d_bias) {
    for (double x : b) {
      if (!std::isfinite(x)) return false;
    }
  }
  return true;
}

Mlp::Mlp(std::vector<std::size_t> sizes, Rng& rng) : sizes_(std::move(sizes)) {
  if (sizes_.size() < 2) {
    throw std::invalid_argument("Mlp: need at least input and output sizes");
  }
  for (std::size_t s : sizes_) {
    if (s == 0) throw std::invalid_argument("Mlp: zero layer width");
  }
  layers_.reserve(sizes_.size() - 1);
  for (std::size_t l = 0; l + 1 < sizes_.size(); ++l) {
    Layer layer;
    layer.weights = Matrix::he_normal(sizes_[l], sizes_[l + 1], rng);
    layer.bias.assign(sizes_[l + 1], 0.0);
    layers_.push_back(std::move(layer));
  }
}

std::size_t Mlp::num_parameters() const {
  std::size_t count = 0;
  for (const auto& layer : layers_) {
    count += layer.weights.size() + layer.bias.size();
  }
  return count;
}

Mlp::Forward Mlp::forward(const Matrix& input) const {
  if (input.cols() != input_dim()) {
    throw std::invalid_argument("Mlp::forward: input width mismatch");
  }
  // Metrics-only span: forward passes are far too frequent for trace
  // events, but the nn.forward.ms histogram and row counters are cheap.
  obs::ScopedTimer span("nn.forward", "nn", /*with_trace=*/false);
  if (span.active()) {
    obs::count("nn.forwards");
    obs::count("nn.forward_rows", static_cast<std::int64_t>(input.rows()));
    obs::observe("nn.batch_rows", static_cast<double>(input.rows()));
  }
  Forward cache;
  cache.input = input;
  cache.pre_activations.reserve(layers_.size());

  Matrix activation = input;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    Matrix z = activation.matmul(layers_[l].weights);
    z.add_row_broadcast(layers_[l].bias);
    cache.pre_activations.push_back(z);
    if (l + 1 < layers_.size()) {
      z.relu();
      activation = std::move(z);
    } else {
      cache.logits = std::move(z);
    }
  }
  return cache;
}

std::vector<double> Mlp::logits(const std::vector<double>& input) const {
  Matrix batch = Matrix::from_rows(1, input.size(), input);
  const Forward cache = forward(batch);
  return {cache.logits.data().begin(), cache.logits.data().end()};
}

Matrix& Mlp::begin_forward(ForwardWorkspace& ws, std::size_t rows) const {
  if (rows == 0) {
    throw std::invalid_argument("Mlp::begin_forward: zero rows");
  }
  // Only ws.input is zero-filled (its contract: the caller fills rows into
  // a clean slate).  Every other buffer is fully overwritten by the kernel
  // that consumes it — matmul_into zero-fills its output, add_bias_relu /
  // matmul_transpose_into assign every element, backward_ws copies into
  // delta — so they skip the zero sweep.
  std::size_t grown = reshape_tracked(ws.input, rows, input_dim());
  const std::size_t layers = layers_.size();
  ws.pre_activations.resize(layers);
  ws.activations.resize(layers > 0 ? layers - 1 : 0);
  std::size_t max_width = input_dim();
  for (std::size_t l = 0; l < layers; ++l) {
    const std::size_t width = layers_[l].weights.cols();
    max_width = std::max(max_width, width);
    grown += reshape_tracked(ws.pre_activations[l], rows, width, false);
    if (l + 1 < layers) {
      grown += reshape_tracked(ws.activations[l], rows, width, false);
    }
  }
  grown += reshape_tracked(ws.d_logits, rows, output_dim(), false);
  grown += reshape_tracked(ws.delta, rows, max_width, false);
  grown += reshape_tracked(ws.delta_prev, rows, max_width, false);
  std::size_t max_params = 0;
  for (const auto& layer : layers_) {
    max_params = std::max(max_params, layer.weights.size());
  }
  grown += reshape_tracked(ws.dw_scratch, 1, max_params, false);
  grown += resize_tracked(ws.db_scratch, max_width);
  grown += resize_tracked(ws.kidx, rows * max_width);
  grown += resize_tracked(ws.kval, rows * max_width);
  grown += resize_tracked(ws.row_nnz, rows);
  ws.input_compressed = false;
  if (grown > 0 && obs::enabled()) {
    obs::count("nn.alloc_bytes", static_cast<std::int64_t>(grown));
  }
  return ws.input;
}

void Mlp::forward_ws(ForwardWorkspace& ws) const {
  const std::size_t rows = ws.input.rows();
  if (ws.input.cols() != input_dim() ||
      ws.pre_activations.size() != layers_.size()) {
    throw std::invalid_argument("Mlp::forward_ws: workspace not prepared");
  }
  obs::ScopedTimer span("nn.forward", "nn", /*with_trace=*/false);
  if (span.active()) {
    obs::count("nn.forwards");
    obs::count("nn.forward_rows", static_cast<std::int64_t>(rows));
    obs::observe("nn.batch_rows", static_cast<double>(rows));
  }
  // The sparse inference path: feature rows and post-ReLU activations are
  // mostly exact zeros, so every layer consumes its input in compressed
  // (index, value) form — bit-identical to the dense kernels (kernels.h).
  // The input is compressed once up front (or arrives precompressed from
  // featurize_compress_into); each hidden layer's compression is fused
  // into its bias+ReLU sweep, so nothing is ever re-scanned.
  if (!ws.input_compressed) {
    kernels::compress_rows_into(ws.input.data().data(), rows,
                                ws.input.cols(), ws.input.cols(),
                                ws.kidx.data(), ws.kval.data(),
                                ws.row_nnz.data());
  }
  std::size_t prev_width = ws.input.cols();
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    Matrix& z = ws.pre_activations[l];
    const std::size_t width = z.cols();
    kernels::matmul_compressed_into(ws.kidx.data(), ws.kval.data(),
                                    ws.row_nnz.data(), rows, prev_width,
                                    layers_[l].weights.data().data(), width,
                                    z.data().data());
    if (l + 1 < layers_.size()) {
      // Fused bias + ReLU + compression: z keeps the pre-activation,
      // activations[l] the rectified copy (backward_ws reads it), and
      // kidx/kval/row_nnz the compressed rows the next layer consumes.
      Matrix& a = ws.activations[l];
      kernels::add_bias_relu_compress(z.data().data(), rows, width,
                                      layers_[l].bias.data(),
                                      a.data().data(), ws.kidx.data(),
                                      ws.kval.data(), ws.row_nnz.data());
      prev_width = width;
    } else {
      kernels::add_bias(z.data().data(), rows, width,
                        layers_[l].bias.data());
    }
  }
}

void Mlp::backward_ws(ForwardWorkspace& ws, const Matrix& d_logits,
                      Gradients& grads) const {
  const std::size_t rows = ws.input.rows();
  if (grads.d_weights.size() != layers_.size()) {
    throw std::invalid_argument("Mlp::backward_ws: gradient shape mismatch");
  }
  if (d_logits.rows() != rows || d_logits.cols() != output_dim()) {
    throw std::invalid_argument("Mlp::backward_ws: d_logits shape mismatch");
  }
  obs::ScopedTimer span("nn.backward", "nn", /*with_trace=*/false);
  if (span.active()) obs::count("nn.backwards");

  // delta = dLoss/dZ of the current layer; starts as a copy of d_logits in
  // the ws.delta scratch (reshape keeps its high-water capacity).
  ws.delta.reshape_uninit(rows, output_dim());
  std::copy(d_logits.data().begin(), d_logits.data().end(),
            ws.delta.data().begin());

  for (std::size_t l = layers_.size(); l-- > 0;) {
    const Matrix& a = l == 0 ? ws.input : ws.activations[l - 1];
    // Weight gradient staged in dw_scratch, then accumulated — same
    // element order as the seed's `grads += a^T delta` temporary.
    ws.dw_scratch.reshape_uninit(a.cols(), ws.delta.cols());
    a.transpose_matmul_into(ws.delta, ws.dw_scratch);
    grads.d_weights[l] += ws.dw_scratch;

    std::fill(ws.db_scratch.begin(), ws.db_scratch.end(), 0.0);
    kernels::column_sums_accumulate(ws.delta.data().data(), rows,
                                    ws.delta.cols(), ws.db_scratch.data());
    auto& db = grads.d_bias[l];
    for (std::size_t i = 0; i < db.size(); ++i) db[i] += ws.db_scratch[i];

    if (l > 0) {
      ws.delta_prev.reshape_uninit(rows, layers_[l].weights.rows());
      ws.delta.matmul_transpose_into(layers_[l].weights, ws.delta_prev);
      kernels::relu_backward_mask(ws.delta_prev.data().data(),
                                  ws.pre_activations[l - 1].data().data(),
                                  ws.delta_prev.size());
      std::swap(ws.delta, ws.delta_prev);
    }
  }
}

void Mlp::backward(const Forward& cache, const Matrix& d_logits,
                   Gradients& grads) const {
  if (grads.d_weights.size() != layers_.size()) {
    throw std::invalid_argument("Mlp::backward: gradient shape mismatch");
  }
  obs::ScopedTimer span("nn.backward", "nn", /*with_trace=*/false);
  if (span.active()) obs::count("nn.backwards");
  // Activation feeding layer l: input for l == 0, relu(z_{l-1}) otherwise.
  auto activation_into = [&](std::size_t l) {
    if (l == 0) return cache.input;
    Matrix a = cache.pre_activations[l - 1];
    a.relu();
    return a;
  };

  Matrix delta = d_logits;  // dLoss/dZ for the current layer
  for (std::size_t l = layers_.size(); l-- > 0;) {
    const Matrix a = activation_into(l);
    grads.d_weights[l] += a.transpose_matmul(delta);
    const auto db = delta.column_sums();
    for (std::size_t i = 0; i < db.size(); ++i) grads.d_bias[l][i] += db[i];
    if (l > 0) {
      delta = delta.matmul_transpose(layers_[l].weights);
      delta.relu_backward_mask(cache.pre_activations[l - 1]);
    }
  }
}

Mlp::Gradients Mlp::make_gradients() const {
  Gradients g;
  g.d_weights.reserve(layers_.size());
  g.d_bias.reserve(layers_.size());
  for (const auto& layer : layers_) {
    g.d_weights.emplace_back(layer.weights.rows(), layer.weights.cols());
    g.d_bias.emplace_back(layer.bias.size(), 0.0);
  }
  return g;
}

}  // namespace spear
