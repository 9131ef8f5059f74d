// The inference fast path's correctness contract (DESIGN.md §10): tiled
// kernels, workspace forward/backward, featurize-into, batched policy
// evaluation and batched rollout picks must all be BIT-identical to the
// seed code paths they replace.
// Comparisons use memcmp, not EXPECT_DOUBLE_EQ, so even a -0.0/+0.0 or
// last-ulp reassociation difference fails.

#include "nn/kernels.h"

#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "mcts/policies.h"
#include "nn/mlp.h"
#include "rl/policy.h"
#include "support/builders.h"

namespace spear {
namespace {

template <typename VecA, typename VecB>
bool bits_equal(const VecA& a, const VecB& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool bits_equal(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         bits_equal(a.data(), b.data());
}

/// Random test operand: normals with exact zeros (the seed matmul had an
/// `a == 0.0` skip branch — zeros must stay bit-neutral without it) and a
/// healthy share of negatives.
std::vector<double> random_operand(std::size_t n, Rng& rng) {
  std::vector<double> out(n);
  for (auto& x : out) {
    const double u = rng.uniform();
    x = u < 0.2 ? 0.0 : rng.normal();
  }
  return out;
}

// ---------------------------------------------------------------------------
// Tiled kernels vs the seed loops.
// ---------------------------------------------------------------------------

TEST(KernelBitIdentity, TiledMatmulMatchesSeedReference) {
  Rng rng(11);
  // Column widths straddle the tile boundary (kColTile = 64) including the
  // 1-wide and far-past-one-tile cases.
  const std::size_t col_set[] = {1, 3, 17, 63, 64, 65, 100, 256};
  const std::size_t row_set[] = {1, 2, 5, 17};
  const std::size_t inner_set[] = {1, 3, 32, 63, 65};
  for (std::size_t rows : row_set) {
    for (std::size_t inner : inner_set) {
      for (std::size_t cols : col_set) {
        const auto a = random_operand(rows * inner, rng);
        const auto b = random_operand(inner * cols, rng);
        std::vector<double> tiled(rows * cols), seed(rows * cols);
        kernels::matmul_into(a.data(), rows, inner, b.data(), cols,
                             tiled.data());
        kernels::reference_matmul_into(a.data(), rows, inner, b.data(), cols,
                                       seed.data());
        ASSERT_TRUE(bits_equal(tiled, seed))
            << rows << "x" << inner << " * " << inner << "x" << cols;
      }
    }
  }
}

TEST(KernelBitIdentity, TransposeMatmulMatchesNaive) {
  Rng rng(12);
  const std::size_t rows = 9, inner = 37, cols = 70;  // cols spans a tile
  const auto a = random_operand(rows * inner, rng);
  const auto b = random_operand(rows * cols, rng);
  std::vector<double> tiled(inner * cols, 0.0), naive(inner * cols, 0.0);
  kernels::transpose_matmul_into(a.data(), rows, inner, b.data(), cols,
                                 tiled.data());
  // Seed loop: out[k][j] accumulates over ascending i.
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t k = 0; k < inner; ++k) {
      for (std::size_t j = 0; j < cols; ++j) {
        naive[k * cols + j] += a[i * inner + k] * b[i * cols + j];
      }
    }
  }
  EXPECT_TRUE(bits_equal(tiled, naive));
}

TEST(KernelBitIdentity, MatmulTransposeMatchesNaive) {
  Rng rng(13);
  const std::size_t rows = 7, cols_a = 33, rows_b = 66;
  const auto a = random_operand(rows * cols_a, rng);
  const auto b = random_operand(rows_b * cols_a, rng);
  std::vector<double> fast(rows * rows_b, 0.0), naive(rows * rows_b, 0.0);
  kernels::matmul_transpose_into(a.data(), rows, cols_a, b.data(), rows_b,
                                 fast.data());
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t r = 0; r < rows_b; ++r) {
      double sum = 0.0;  // scalar ascending-k dot product, like the seed
      for (std::size_t k = 0; k < cols_a; ++k) {
        sum += a[i * cols_a + k] * b[r * cols_a + k];
      }
      naive[i * rows_b + r] = sum;
    }
  }
  EXPECT_TRUE(bits_equal(fast, naive));
}

/// add_bias_relu on a random rows x cols operand against the seed order of
/// operations: add bias in place, copy, relu the copy.
void check_fused_bias_relu(std::size_t rows, std::size_t cols, Rng& rng) {
  auto m = random_operand(rows * cols, rng);
  const auto bias = random_operand(cols, rng);
  auto expect_pre = m;
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) expect_pre[i * cols + j] += bias[j];
  }
  auto expect_relu = expect_pre;
  for (auto& x : expect_relu) {
    if (x < 0.0) x = 0.0;
  }
  std::vector<double> relu_out(rows * cols);
  kernels::add_bias_relu(m.data(), rows, cols, bias.data(), relu_out.data());
  EXPECT_TRUE(bits_equal(m, expect_pre)) << rows << "x" << cols;
  EXPECT_TRUE(bits_equal(relu_out, expect_relu)) << rows << "x" << cols;
}

TEST(KernelBitIdentity, FusedBiasReluMatchesBroadcastThenRelu) {
  Rng rng(14);
  check_fused_bias_relu(5, 67, rng);
}

TEST(KernelBitIdentity, CompressedMatmulMatchesSeedReference) {
  Rng rng(16);
  // Row nonzero counts straddle the group boundaries (first-4 seed, the
  // 8-wide and 4-wide sweeps, singles): densities from all-zero rows to
  // fully dense, with inner sizes hitting every nnz % 8 remainder.
  const double zero_prob[] = {1.0, 0.9, 0.8, 0.5, 0.2, 0.0};
  const std::size_t inner_set[] = {1, 2,  3,  4,  5,  7,  8,
                                   9, 12, 13, 17, 32, 163};
  const std::size_t col_set[] = {1, 25, 32, 256};
  for (double p : zero_prob) {
    for (std::size_t inner : inner_set) {
      for (std::size_t cols : col_set) {
        const std::size_t rows = 4;
        const std::size_t stride = inner + 3;  // strided form, like mlp's
        std::vector<double> a(rows * inner);
        for (auto& x : a) x = rng.uniform() < p ? 0.0 : rng.normal();
        std::vector<std::int32_t> kidx(rows * stride, -1);
        std::vector<double> kval(rows * stride, -1.0);
        std::vector<std::int32_t> row_nnz(rows, -1);
        kernels::compress_rows_into(a.data(), rows, inner, stride,
                                    kidx.data(), kval.data(), row_nnz.data());
        const auto b = random_operand(inner * cols, rng);
        std::vector<double> fast(rows * cols), seed(rows * cols);
        kernels::matmul_compressed_into(kidx.data(), kval.data(),
                                        row_nnz.data(), rows, stride,
                                        b.data(), cols, fast.data());
        kernels::reference_matmul_into(a.data(), rows, inner, b.data(), cols,
                                       seed.data());
        ASSERT_TRUE(bits_equal(fast, seed))
            << "p=" << p << " inner=" << inner << " cols=" << cols;
      }
    }
  }
}

/// add_bias_relu_compress on a random rows x cols operand against
/// add_bias_relu followed by compress_rows_into.
void check_bias_relu_compress(std::size_t rows, std::size_t cols, Rng& rng) {
  auto m_fused = random_operand(rows * cols, rng);
  auto m_plain = m_fused;
  const auto bias = random_operand(cols, rng);
  std::vector<double> relu_fused(rows * cols), relu_plain(rows * cols);
  std::vector<std::int32_t> kidx_fused(rows * cols), kidx_plain(rows * cols);
  std::vector<double> kval_fused(rows * cols), kval_plain(rows * cols);
  std::vector<std::int32_t> nnz_fused(rows), nnz_plain(rows);
  kernels::add_bias_relu_compress(m_fused.data(), rows, cols, bias.data(),
                                  relu_fused.data(), kidx_fused.data(),
                                  kval_fused.data(), nnz_fused.data());
  kernels::add_bias_relu(m_plain.data(), rows, cols, bias.data(),
                         relu_plain.data());
  kernels::compress_rows_into(relu_plain.data(), rows, cols, cols,
                              kidx_plain.data(), kval_plain.data(),
                              nnz_plain.data());
  EXPECT_TRUE(bits_equal(m_fused, m_plain)) << rows << "x" << cols;
  EXPECT_TRUE(bits_equal(relu_fused, relu_plain)) << rows << "x" << cols;
  EXPECT_EQ(nnz_fused, nnz_plain) << rows << "x" << cols;
  for (std::size_t i = 0; i < rows; ++i) {
    const auto n = static_cast<std::size_t>(nnz_plain[i]);
    EXPECT_EQ(0, std::memcmp(kidx_fused.data() + i * cols,
                             kidx_plain.data() + i * cols,
                             n * sizeof(std::int32_t)))
        << rows << "x" << cols << ", row " << i;
    EXPECT_EQ(0, std::memcmp(kval_fused.data() + i * cols,
                             kval_plain.data() + i * cols,
                             n * sizeof(double)))
        << rows << "x" << cols << ", row " << i;
  }
}

TEST(KernelBitIdentity, BiasReluCompressMatchesBiasReluPlusCompress) {
  Rng rng(17);
  check_bias_relu_compress(5, 67, rng);
}

// ---------------------------------------------------------------------------
// Column sweeps over the vector body / scalar remainder split.  Each SIMD
// clone runs a vector body of 2, 4 or 8 doubles across output columns and
// a scalar remainder, so these widths land on either side of every lane
// count.  The compressed matmul is checked against a scalar seed loop in
// this file rather than reference_matmul_into, which lives in kernels.cpp
// and is vectorized by the same compile flags.
// ---------------------------------------------------------------------------

constexpr std::size_t kSweepCols[] = {1, 3, 7, 9, 15, 17, 31, 33, 257};

TEST(KernelBitIdentity, CompressedMatmulColumnSweep) {
  Rng rng(41);
  const double zero_prob[] = {1.0, 0.5, 0.0};
  const std::size_t inner_set[] = {5, 13, 64};
  const std::size_t rows = 3;
  for (double p : zero_prob) {
    for (std::size_t inner : inner_set) {
      // An odd compressed-row stride: never a multiple of 8 doubles.
      const std::size_t stride = inner + 1 + inner % 2;
      for (std::size_t cols : kSweepCols) {
        std::vector<double> a(rows * inner);
        for (auto& x : a) x = rng.uniform() < p ? 0.0 : rng.normal();
        std::vector<std::int32_t> kidx(rows * stride, -1);
        std::vector<double> kval(rows * stride, -1.0);
        std::vector<std::int32_t> row_nnz(rows, -1);
        kernels::compress_rows_into(a.data(), rows, inner, stride,
                                    kidx.data(), kval.data(), row_nnz.data());
        const auto b = random_operand(inner * cols, rng);
        std::vector<double> fast(rows * cols, -1.0), seed(rows * cols, 0.0);
        kernels::matmul_compressed_into(kidx.data(), kval.data(),
                                        row_nnz.data(), rows, stride,
                                        b.data(), cols, fast.data());
        // Seed loop: ascending k, zero entries skipped.
        for (std::size_t i = 0; i < rows; ++i) {
          for (std::size_t k = 0; k < inner; ++k) {
            const double av = a[i * inner + k];
            if (av == 0.0) continue;
            for (std::size_t j = 0; j < cols; ++j) {
              seed[i * cols + j] += av * b[k * cols + j];
            }
          }
        }
        ASSERT_TRUE(bits_equal(fast, seed))
            << "p=" << p << " inner=" << inner << " cols=" << cols;
      }
    }
  }
}

TEST(KernelBitIdentity, FusedBiasReluColumnSweep) {
  Rng rng(42);
  for (std::size_t cols : kSweepCols) check_fused_bias_relu(3, cols, rng);
}

TEST(KernelBitIdentity, BiasReluCompressColumnSweep) {
  Rng rng(43);
  for (std::size_t cols : kSweepCols) check_bias_relu_compress(3, cols, rng);
}

TEST(KernelBitIdentity, MatrixMatmulDelegatesToTiledKernel) {
  // Satellite of the skip-branch removal: Matrix::matmul (now tiled and
  // branchless) must still equal the seed i-k-j loop with its a == 0.0
  // skip, bit for bit, on finite inputs with plenty of exact zeros.
  Rng rng(15);
  const std::size_t rows = 6, inner = 40, cols = 130;
  const auto av = random_operand(rows * inner, rng);
  const auto bv = random_operand(inner * cols, rng);
  const Matrix a = Matrix::from_rows(rows, inner, av);
  const Matrix b = Matrix::from_rows(inner, cols, bv);
  const Matrix c = a.matmul(b);
  std::vector<double> seed(rows * cols);
  kernels::reference_matmul_into(av.data(), rows, inner, bv.data(), cols,
                                 seed.data());
  EXPECT_TRUE(bits_equal(c.data(), seed));
}

// ---------------------------------------------------------------------------
// Workspace forward/backward vs the allocating seed path.
// ---------------------------------------------------------------------------

Mlp random_net(Rng& rng) { return Mlp({19, 24, 8, 5}, rng); }

Matrix random_batch(std::size_t rows, std::size_t cols, Rng& rng) {
  return Matrix::from_rows(rows, cols, random_operand(rows * cols, rng));
}

TEST(ForwardWorkspace, ForwardMatchesLegacyForward) {
  Rng rng(21);
  const Mlp net = random_net(rng);
  Mlp::ForwardWorkspace ws;
  for (std::size_t rows : {1u, 7u, 32u}) {
    const Matrix input = random_batch(rows, net.input_dim(), rng);
    const Mlp::Forward cache = net.forward(input);
    Matrix& in = net.begin_forward(ws, rows);
    std::copy(input.data().begin(), input.data().end(), in.data().begin());
    net.forward_ws(ws);
    ASSERT_TRUE(bits_equal(ws.logits(), cache.logits)) << rows << " rows";
    for (std::size_t l = 0; l < cache.pre_activations.size(); ++l) {
      ASSERT_TRUE(bits_equal(ws.pre_activations[l], cache.pre_activations[l]));
    }
  }
}

TEST(ForwardWorkspace, BackwardMatchesLegacyBackward) {
  Rng rng(22);
  const Mlp net = random_net(rng);
  Mlp::ForwardWorkspace ws;
  for (std::size_t rows : {1u, 5u, 16u}) {
    const Matrix input = random_batch(rows, net.input_dim(), rng);
    const Matrix d_logits = random_batch(rows, net.output_dim(), rng);

    Mlp::Gradients legacy = net.make_gradients();
    const Mlp::Forward cache = net.forward(input);
    net.backward(cache, d_logits, legacy);

    Mlp::Gradients fast = net.make_gradients();
    Matrix& in = net.begin_forward(ws, rows);
    std::copy(input.data().begin(), input.data().end(), in.data().begin());
    net.forward_ws(ws);
    net.backward_ws(ws, d_logits, fast);

    for (std::size_t l = 0; l < legacy.d_weights.size(); ++l) {
      ASSERT_TRUE(bits_equal(fast.d_weights[l], legacy.d_weights[l]))
          << "layer " << l << ", " << rows << " rows";
      ASSERT_TRUE(bits_equal(fast.d_bias[l], legacy.d_bias[l]));
    }
  }
}

TEST(ForwardWorkspace, ReuseAcrossBatchSizesIsAllocationFree) {
  Rng rng(23);
  const Mlp net = random_net(rng);
  Mlp::ForwardWorkspace ws;
  // Warm to the high-water batch size...
  net.begin_forward(ws, 32);
  const std::size_t cap = ws.input.data().capacity();
  // ...then cycle through smaller and equal sizes: capacity (and therefore
  // the heap) must not move, and results must still match a fresh forward.
  for (std::size_t rows : {1u, 7u, 32u, 3u, 32u}) {
    const Matrix input = random_batch(rows, net.input_dim(), rng);
    Matrix& in = net.begin_forward(ws, rows);
    ASSERT_EQ(ws.input.rows(), rows);
    std::copy(input.data().begin(), input.data().end(), in.data().begin());
    net.forward_ws(ws);
    ASSERT_TRUE(bits_equal(ws.logits(), net.forward(input).logits));
    ASSERT_EQ(ws.input.data().capacity(), cap) << rows << " rows reallocated";
  }
}

// ---------------------------------------------------------------------------
// Featurize-into and batched policy evaluation.
// ---------------------------------------------------------------------------

Policy tiny_policy(Rng& rng) {
  FeaturizerOptions options;
  options.max_ready = 4;
  options.horizon = 6;
  return Policy::make(options, 2, rng, {12});
}

SchedulingEnv tiny_env(Dag dag, std::size_t max_ready = 4) {
  EnvOptions options;
  options.max_ready = max_ready;
  return SchedulingEnv(std::make_shared<Dag>(std::move(dag)),
                       ResourceVector{1.0, 1.0}, options);
}

TEST(BatchEval, FeaturizeIntoMatchesFeaturize) {
  Rng rng(31);
  const Policy policy = tiny_policy(rng);
  SchedulingEnv env =
      tiny_env(testing::make_diamond(2, 3, 1, 2, ResourceVector{0.4, 0.4}));
  const Featurizer& f = policy.featurizer();
  while (true) {
    std::vector<double> fresh;
    f.featurize(env, fresh);
    std::vector<double> buffer(f.input_dim(2), -1.0);  // poisoned
    f.featurize_into(env, buffer.data());
    ASSERT_TRUE(bits_equal(fresh, buffer));
    if (env.done()) break;
    if (env.can_process()) {
      env.process_to_next_finish();
    } else {
      env.step(0);
    }
  }
}

TEST(BatchEval, FeaturizeCompressMatchesFeaturizePlusCompress) {
  Rng rng(33);
  const Policy policy = tiny_policy(rng);
  SchedulingEnv env =
      tiny_env(testing::make_diamond(2, 3, 1, 2, ResourceVector{0.4, 0.4}));
  const Featurizer& f = policy.featurizer();
  const std::size_t dim = f.input_dim(2);
  while (true) {
    std::vector<double> dense(dim, -1.0);
    f.featurize_into(env, dense.data());
    std::vector<std::int32_t> kidx_ref(dim, -1), kidx(dim, -1);
    std::vector<double> kval_ref(dim, -1.0), kval(dim, -1.0);
    std::int32_t nnz_ref = -1, nnz = -1;
    kernels::compress_rows_into(dense.data(), 1, dim, dim, kidx_ref.data(),
                                kval_ref.data(), &nnz_ref);
    std::vector<double> fused(dim, -1.0);
    f.featurize_compress_into(env, fused.data(), kidx.data(), kval.data(),
                              &nnz);
    ASSERT_TRUE(bits_equal(fused, dense));
    ASSERT_EQ(nnz, nnz_ref);
    ASSERT_EQ(0, std::memcmp(kidx.data(), kidx_ref.data(),
                             static_cast<std::size_t>(nnz) *
                                 sizeof(std::int32_t)));
    ASSERT_EQ(0, std::memcmp(kval.data(), kval_ref.data(),
                             static_cast<std::size_t>(nnz) * sizeof(double)));
    if (env.done()) break;
    if (env.can_process()) {
      env.process_to_next_finish();
    } else {
      env.step(0);
    }
  }
}

TEST(BatchEval, BatchedActionProbsMatchSingleRowBitwise) {
  Rng rng(32);
  const Policy policy = tiny_policy(rng);
  // A handful of genuinely different states of one episode.
  std::vector<SchedulingEnv> states;
  SchedulingEnv env = tiny_env(
      testing::make_independent(6, 3, ResourceVector{0.3, 0.3}));
  while (!env.done()) {
    states.push_back(env);
    if (env.can_schedule(0)) {
      env.step(0);
    } else {
      env.process_to_next_finish();
    }
  }
  ASSERT_GE(states.size(), 3u);

  std::vector<const SchedulingEnv*> ptrs;
  for (const auto& s : states) ptrs.push_back(&s);
  std::vector<std::vector<bool>> masks;
  std::vector<std::vector<double>> batch_probs;
  policy.action_probs_batch(ptrs.data(), ptrs.size(), masks, batch_probs);
  ASSERT_EQ(batch_probs.size(), states.size());

  for (std::size_t i = 0; i < states.size(); ++i) {
    const auto single = policy.action_probs(states[i]);
    ASSERT_TRUE(bits_equal(batch_probs[i], single)) << "state " << i;
    ASSERT_EQ(masks[i], policy.valid_output_mask(states[i]));
  }
}

TEST(BatchEval, BatchHandlesZeroAndOneStates) {
  Rng rng(33);
  const Policy policy = tiny_policy(rng);
  const SchedulingEnv env = tiny_env(
      testing::make_independent(3, 2, ResourceVector{0.3, 0.3}));
  std::vector<std::vector<bool>> masks;
  std::vector<std::vector<double>> probs;
  policy.action_probs_batch(nullptr, 0, masks, probs);
  EXPECT_TRUE(probs.empty());
  const SchedulingEnv* one = &env;
  policy.action_probs_batch(&one, 1, masks, probs);
  ASSERT_EQ(probs.size(), 1u);
  EXPECT_TRUE(bits_equal(probs[0], policy.action_probs(env)));
}

TEST(BatchEval, PickBatchMatchesPickPerRow) {
  // The search advances every rollout through pick_batch, one row per slot;
  // each row must pick exactly what pick() would from the same RNG state
  // and consume exactly the same draws.
  Rng rng(34);
  const auto policy = std::make_shared<const Policy>(tiny_policy(rng));
  std::vector<SchedulingEnv> states;
  SchedulingEnv env = tiny_env(
      testing::make_independent(9, 3, ResourceVector{0.3, 0.3}));
  Rng walk(35);
  while (!env.done()) {
    states.push_back(env);
    const auto actions = env.valid_actions();
    const int action = actions[walk.uniform_int(
        0, static_cast<std::int64_t>(actions.size()) - 1)];
    if (action == SchedulingEnv::kProcessAction) {
      env.process_to_next_finish();
    } else {
      env.step(action);
    }
  }
  ASSERT_GE(states.size(), 7u);

  const std::vector<std::pair<const char*, std::shared_ptr<DecisionPolicy>>>
      guides = {
          {"drl-greedy", std::make_shared<DrlDecisionPolicy>(policy, true)},
          {"drl-sampling", std::make_shared<DrlDecisionPolicy>(policy, false)},
          {"random", std::make_shared<RandomDecisionPolicy>()},
      };
  for (const auto& [name, guide] : guides) {
    for (const std::size_t n : {std::size_t{1}, std::size_t{7}}) {
      std::vector<const SchedulingEnv*> envs;
      std::vector<Rng> batch_rngs;
      for (std::size_t i = 0; i < n; ++i) {
        envs.push_back(&states[i]);
        batch_rngs.emplace_back(100 + i);
      }
      std::vector<Rng> row_rngs = batch_rngs;
      std::vector<Rng*> rng_ptrs;
      for (Rng& r : batch_rngs) rng_ptrs.push_back(&r);
      std::vector<int> out(n, -2);
      guide->pick_batch(envs.data(), n, rng_ptrs.data(), out.data());
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(out[i], guide->pick(*envs[i], row_rngs[i]))
            << name << ", batch " << n << ", row " << i;
        EXPECT_EQ(batch_rngs[i].next_u64(), row_rngs[i].next_u64())
            << name << ", batch " << n << ", row " << i;
      }
    }
  }
}

}  // namespace
}  // namespace spear
