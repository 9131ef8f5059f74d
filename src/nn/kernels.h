// Dense matmul / bias / ReLU kernels behind Matrix and Mlp — the inference
// fast path (DESIGN.md §10).
//
// Every kernel writes into caller-owned storage ("_into" convention), so
// the steady-state forward/backward path allocates nothing.  The tiled
// kernels block over output columns to keep the streamed B-panel resident
// in cache and contain no data-dependent branches, so the inner loops
// auto-vectorize under portable flags.
//
// Correctness contract (enforced by the KernelBitIdentity tests): every
// output element accumulates its k-products in ascending-k order, exactly
// like the seed triple loop, so tiled results are bit-identical to the
// naive ones.  No kernel reassociates floating-point sums.

#pragma once

#include <cstddef>
#include <cstdint>

namespace spear::kernels {

/// Column-tile width of the blocked matmul kernels.  One B-panel
/// (inner x kColTile doubles) stays cache-resident while every output row
/// streams over it; the tail tile handles widths that are not a multiple.
inline constexpr std::size_t kColTile = 64;

/// out = A (rows x inner) * B (inner x cols), row-major, out zero-filled
/// first.  Tiled over output columns; ascending-k accumulation per element.
void matmul_into(const double* a, std::size_t rows, std::size_t inner,
                 const double* b, std::size_t cols, double* out);

/// Compresses each row of A (rows x inner) into (index, value) pairs at
/// kidx/kval + i * stride with counts in row_nnz — the form
/// matmul_compressed_into consumes.  Branchless, one pass.
void compress_rows_into(const double* a, std::size_t rows, std::size_t inner,
                        std::size_t stride, std::int32_t* kidx, double* kval,
                        std::int32_t* row_nnz);

/// The inference matmul: exploits exact zeros in the LHS rows (policy
/// feature rows are ~80% zero padding, post-ReLU activations ~50% zero),
/// taking the LHS in compressed row form: row i's nonzeros sit at
/// kidx/kval + i * stride, row_nnz[i] of them (compress_rows_into /
/// add_bias_relu_compress emit this), so layers never re-scan their
/// inputs.  The nonzeros are applied in groups of four or eight B-rows per
/// output sweep — one load/store of the output row amortizes several
/// multiply-adds, which lifts the kernel off the store-bandwidth ceiling
/// the one-row-at-a-time sweep sits on.
///
/// Bit-identical to matmul_into for finite inputs: within each output
/// element the products are still added one at a time in ascending-k
/// order (grouping batches loads, not additions), and the skipped
/// products are +/-0.0, which a (+0.0-initialized, never -0.0 under
/// round-to-nearest) accumulator absorbs without changing bits.  Dense
/// general-purpose callers (Matrix::matmul) stay on the branchless tiled
/// kernel.
void matmul_compressed_into(const std::int32_t* kidx, const double* kval,
                            const std::int32_t* row_nnz, std::size_t rows,
                            std::size_t stride, const double* b,
                            std::size_t cols, double* out);

/// The seed implementation (i-k-j with the a == 0.0 skip branch), kept as
/// the bit-identity oracle for tests and the before/after micro-bench.
void reference_matmul_into(const double* a, std::size_t rows,
                           std::size_t inner, const double* b,
                           std::size_t cols, double* out);

/// out += A^T (inner x rows viewed transposed: A is rows x inner) * B
/// (rows x cols) — accumulated into a zero-filled out, ascending-i order
/// per element (identical to the seed's transpose_matmul loop).
void transpose_matmul_into(const double* a, std::size_t rows,
                           std::size_t inner, const double* b,
                           std::size_t cols, double* out);

/// out = A (rows x cols_a) * B^T where B is rows_b x cols_a; out is
/// rows x rows_b.  Dot-product form, ascending-k per element.
void matmul_transpose_into(const double* a, std::size_t rows,
                           std::size_t cols_a, const double* b,
                           std::size_t rows_b, double* out);

/// m[i][j] += bias[j] for every row — the bias broadcast.
void add_bias(double* m, std::size_t rows, std::size_t cols,
              const double* bias);

/// Fused bias broadcast + ReLU in one pass: relu_out = max(m + bias, 0)
/// while m keeps the pre-activation (m += bias).  One sweep instead of the
/// seed's broadcast-then-copy-then-relu; identical results.
void add_bias_relu(double* m, std::size_t rows, std::size_t cols,
                   const double* bias, double* relu_out);

/// add_bias_relu that additionally emits each relu_out row's nonzero
/// (index, value) pairs into kidx/kval (strided by cols per row, counts in
/// row_nnz) while it sweeps — the compressed form matmul_compressed_into
/// consumes.  Values are identical to add_bias_relu.
void add_bias_relu_compress(double* m, std::size_t rows, std::size_t cols,
                            const double* bias, double* relu_out,
                            std::int32_t* kidx, double* kval,
                            std::int32_t* row_nnz);

/// out[j] += sum_i m[i][j] — column sums accumulated into out.
void column_sums_accumulate(const double* m, std::size_t rows,
                            std::size_t cols, double* out);

/// grad[i] = 0 where pre[i] <= 0 — the ReLU backward mask.
void relu_backward_mask(double* grad, const double* pre, std::size_t n);

}  // namespace spear::kernels
