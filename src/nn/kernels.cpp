#include "nn/kernels.h"

#include <algorithm>

// GCC and Clang both accept __restrict__; it lets the compiler keep the
// accumulator panel in registers across the k loop.
#if defined(__GNUC__) || defined(__clang__)
#define SPEAR_RESTRICT __restrict__
#define SPEAR_ALWAYS_INLINE __attribute__((always_inline))
#else
#define SPEAR_RESTRICT
#define SPEAR_ALWAYS_INLINE
#endif

// Runtime-dispatched SIMD clones (GNU ifunc): the "avx2"/"avx512f" clones
// execute the identical per-element IEEE mul/add sequence at 2x/4x the
// SSE2 register width, so results stay bit-identical to the portable
// clone and the seed loop — PROVIDED nothing contracts a*b+c into a fused
// multiply-add, which would change low bits.  The avx2 clone cannot
// contract (the FMA ISA is not part of it), but AVX-512F includes FMA
// forms, so this file is compiled with -ffp-contract=off (see
// src/CMakeLists.txt); that flag is load-bearing for the avx512f clone
// and also keeps SPEAR_NATIVE builds of these kernels contraction-free.
// The clones are only SIMD because GCC also compiles this file with
// -fvect-cost-model=dynamic: at -O2 its default "very-cheap" cost model
// rejects every loop here (runtime trip counts, runtime alias checks), and
// all three clones were scalar code.  The vector loops run across output
// columns j with a scalar remainder, and each element keeps its own
// ascending-k chain of separate mul and add steps; GCC never vectorizes an
// FP reduction without -fassociative-math, so nothing is reassociated.
// Measured on a 4-vCPU AVX-512 Xeon, the layer-0 compressed matmul
// (163x256, 20% nonzero inputs) went from 4.3 to 1.6 us/row.
// KernelSimd.ClonesUsePackedMath checks the packed math with objdump.
// Disabled under sanitizers: ifunc resolvers run before their runtimes
// initialize, and the portable clone is all the sanitizer jobs need.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
#define SPEAR_SIMD_CLONES \
  __attribute__((target_clones("default", "avx2", "avx512f")))
#else
#define SPEAR_SIMD_CLONES
#endif

namespace spear::kernels {

SPEAR_SIMD_CLONES
void matmul_into(const double* SPEAR_RESTRICT a, std::size_t rows,
                 std::size_t inner, const double* SPEAR_RESTRICT b,
                 std::size_t cols, double* SPEAR_RESTRICT out) {
  std::fill(out, out + rows * cols, 0.0);
  // Column tiles: the B-panel (inner x tile doubles) is reused by every
  // output row before the next panel is touched.  Within one output
  // element the k loop ascends, so accumulation order matches the seed
  // triple loop bit for bit; the branchless inner loop (no a == 0.0 skip)
  // is what lets the compiler vectorize over j.
  for (std::size_t j0 = 0; j0 < cols; j0 += kColTile) {
    const std::size_t j1 = std::min(j0 + kColTile, cols);
    for (std::size_t i = 0; i < rows; ++i) {
      const double* SPEAR_RESTRICT arow = a + i * inner;
      double* SPEAR_RESTRICT orow = out + i * cols;
      for (std::size_t k = 0; k < inner; ++k) {
        const double av = arow[k];
        const double* SPEAR_RESTRICT brow = b + k * cols;
        for (std::size_t j = j0; j < j1; ++j) orow[j] += av * brow[j];
      }
    }
  }
}

namespace {

// The grouped sweep of matmul_compressed_into over one output row.
// always_inline so each SIMD clone of the caller vectorizes the sweeps at
// its own ISA — a plain out-of-line helper would be compiled once, at the
// portable ISA.  Within one output element the += chain executes in
// ascending-k order from a +0.0 accumulator, so bits match the dense
// kernel exactly.
SPEAR_ALWAYS_INLINE
inline void apply_compressed_row(const std::int32_t* SPEAR_RESTRICT kidx,
                                 const double* SPEAR_RESTRICT kval,
                                 std::size_t nnz,
                                 const double* SPEAR_RESTRICT b,
                                 std::size_t cols,
                                 double* SPEAR_RESTRICT orow) {
  std::size_t g = 0;
  if (nnz >= 4) {
    // The first group seeds the output span from the +0.0 accumulator, so
    // it needs no separate zero-fill pass.
    const double a0 = kval[0], a1 = kval[1], a2 = kval[2], a3 = kval[3];
    const double* SPEAR_RESTRICT b0 =
        b + static_cast<std::size_t>(kidx[0]) * cols;
    const double* SPEAR_RESTRICT b1 =
        b + static_cast<std::size_t>(kidx[1]) * cols;
    const double* SPEAR_RESTRICT b2 =
        b + static_cast<std::size_t>(kidx[2]) * cols;
    const double* SPEAR_RESTRICT b3 =
        b + static_cast<std::size_t>(kidx[3]) * cols;
    for (std::size_t j = 0; j < cols; ++j) {
      double acc = 0.0;
      acc += a0 * b0[j];
      acc += a1 * b1[j];
      acc += a2 * b2[j];
      acc += a3 * b3[j];
      orow[j] = acc;
    }
    g = 4;
  } else {
    std::fill(orow, orow + cols, 0.0);
  }
  for (; g + 8 <= nnz; g += 8) {
    const double a0 = kval[g], a1 = kval[g + 1];
    const double a2 = kval[g + 2], a3 = kval[g + 3];
    const double a4 = kval[g + 4], a5 = kval[g + 5];
    const double a6 = kval[g + 6], a7 = kval[g + 7];
    const double* SPEAR_RESTRICT b0 =
        b + static_cast<std::size_t>(kidx[g]) * cols;
    const double* SPEAR_RESTRICT b1 =
        b + static_cast<std::size_t>(kidx[g + 1]) * cols;
    const double* SPEAR_RESTRICT b2 =
        b + static_cast<std::size_t>(kidx[g + 2]) * cols;
    const double* SPEAR_RESTRICT b3 =
        b + static_cast<std::size_t>(kidx[g + 3]) * cols;
    const double* SPEAR_RESTRICT b4 =
        b + static_cast<std::size_t>(kidx[g + 4]) * cols;
    const double* SPEAR_RESTRICT b5 =
        b + static_cast<std::size_t>(kidx[g + 5]) * cols;
    const double* SPEAR_RESTRICT b6 =
        b + static_cast<std::size_t>(kidx[g + 6]) * cols;
    const double* SPEAR_RESTRICT b7 =
        b + static_cast<std::size_t>(kidx[g + 7]) * cols;
    for (std::size_t j = 0; j < cols; ++j) {
      double acc = orow[j];
      acc += a0 * b0[j];
      acc += a1 * b1[j];
      acc += a2 * b2[j];
      acc += a3 * b3[j];
      acc += a4 * b4[j];
      acc += a5 * b5[j];
      acc += a6 * b6[j];
      acc += a7 * b7[j];
      orow[j] = acc;
    }
  }
  for (; g + 4 <= nnz; g += 4) {
    const double a0 = kval[g], a1 = kval[g + 1];
    const double a2 = kval[g + 2], a3 = kval[g + 3];
    const double* SPEAR_RESTRICT b0 =
        b + static_cast<std::size_t>(kidx[g]) * cols;
    const double* SPEAR_RESTRICT b1 =
        b + static_cast<std::size_t>(kidx[g + 1]) * cols;
    const double* SPEAR_RESTRICT b2 =
        b + static_cast<std::size_t>(kidx[g + 2]) * cols;
    const double* SPEAR_RESTRICT b3 =
        b + static_cast<std::size_t>(kidx[g + 3]) * cols;
    for (std::size_t j = 0; j < cols; ++j) {
      double acc = orow[j];
      acc += a0 * b0[j];
      acc += a1 * b1[j];
      acc += a2 * b2[j];
      acc += a3 * b3[j];
      orow[j] = acc;
    }
  }
  for (; g < nnz; ++g) {
    const double av = kval[g];
    const double* SPEAR_RESTRICT brow =
        b + static_cast<std::size_t>(kidx[g]) * cols;
    for (std::size_t j = 0; j < cols; ++j) orow[j] += av * brow[j];
  }
}

}  // namespace

void compress_rows_into(const double* SPEAR_RESTRICT a, std::size_t rows,
                        std::size_t inner, std::size_t stride,
                        std::int32_t* SPEAR_RESTRICT kidx,
                        double* SPEAR_RESTRICT kval,
                        std::int32_t* SPEAR_RESTRICT row_nnz) {
  // Branchless compression: store unconditionally, advance the cursor only
  // past nonzeros — zero entries are overwritten by the next k, and the
  // ~80%-zero feature rows cause no mispredicts.
  for (std::size_t i = 0; i < rows; ++i) {
    const double* SPEAR_RESTRICT arow = a + i * inner;
    std::int32_t* SPEAR_RESTRICT ki = kidx + i * stride;
    double* SPEAR_RESTRICT kv = kval + i * stride;
    std::size_t nnz = 0;
    for (std::size_t k = 0; k < inner; ++k) {
      const double av = arow[k];
      ki[nnz] = static_cast<std::int32_t>(k);
      kv[nnz] = av;
      nnz += static_cast<std::size_t>(av != 0.0);
    }
    row_nnz[i] = static_cast<std::int32_t>(nnz);
  }
}

SPEAR_SIMD_CLONES
void matmul_compressed_into(const std::int32_t* SPEAR_RESTRICT kidx,
                            const double* SPEAR_RESTRICT kval,
                            const std::int32_t* SPEAR_RESTRICT row_nnz,
                            std::size_t rows, std::size_t stride,
                            const double* SPEAR_RESTRICT b, std::size_t cols,
                            double* SPEAR_RESTRICT out) {
  // Untiled on purpose — column tiling measures WORSE here: NN widths make
  // the B row stride a power of two (2 KB at 256 cols), so a narrow column
  // panel maps onto ~2 of the 64 L1 sets and conflict-misses instead of
  // staying resident.  The full-width
  // sweep streams each B row once per batch row, which the prefetcher
  // handles well.
  for (std::size_t i = 0; i < rows; ++i) {
    apply_compressed_row(kidx + i * stride, kval + i * stride,
                         static_cast<std::size_t>(row_nnz[i]), b, cols,
                         out + i * cols);
  }
}

void reference_matmul_into(const double* a, std::size_t rows,
                           std::size_t inner, const double* b,
                           std::size_t cols, double* out) {
  std::fill(out, out + rows * cols, 0.0);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t k = 0; k < inner; ++k) {
      const double av = a[i * inner + k];
      if (av == 0.0) continue;
      const double* brow = &b[k * cols];
      double* orow = &out[i * cols];
      for (std::size_t j = 0; j < cols; ++j) orow[j] += av * brow[j];
    }
  }
}

SPEAR_SIMD_CLONES
void transpose_matmul_into(const double* SPEAR_RESTRICT a, std::size_t rows,
                           std::size_t inner, const double* SPEAR_RESTRICT b,
                           std::size_t cols, double* SPEAR_RESTRICT out) {
  std::fill(out, out + inner * cols, 0.0);
  // out[k][j] += a[i][k] * b[i][j], i ascending per element — the seed
  // order.  Branchless: post-ReLU activations are sparse but the skip
  // defeats vectorization, and the dense sweep wins at these widths.
  for (std::size_t j0 = 0; j0 < cols; j0 += kColTile) {
    const std::size_t j1 = std::min(j0 + kColTile, cols);
    for (std::size_t i = 0; i < rows; ++i) {
      const double* SPEAR_RESTRICT arow = a + i * inner;
      const double* SPEAR_RESTRICT brow = b + i * cols;
      for (std::size_t k = 0; k < inner; ++k) {
        const double av = arow[k];
        double* SPEAR_RESTRICT orow = out + k * cols;
        for (std::size_t j = j0; j < j1; ++j) orow[j] += av * brow[j];
      }
    }
  }
}

void matmul_transpose_into(const double* SPEAR_RESTRICT a, std::size_t rows,
                           std::size_t cols_a,
                           const double* SPEAR_RESTRICT b, std::size_t rows_b,
                           double* SPEAR_RESTRICT out) {
  // Dot products over contiguous rows of both operands; a scalar
  // accumulator keeps the seed's ascending-k order (a vectorized
  // reduction would reassociate the sum and change bits).
  for (std::size_t i = 0; i < rows; ++i) {
    const double* SPEAR_RESTRICT arow = a + i * cols_a;
    double* SPEAR_RESTRICT orow = out + i * rows_b;
    for (std::size_t j = 0; j < rows_b; ++j) {
      const double* SPEAR_RESTRICT brow = b + j * cols_a;
      double acc = 0.0;
      for (std::size_t k = 0; k < cols_a; ++k) acc += arow[k] * brow[k];
      orow[j] = acc;
    }
  }
}

SPEAR_SIMD_CLONES
void add_bias(double* SPEAR_RESTRICT m, std::size_t rows, std::size_t cols,
              const double* SPEAR_RESTRICT bias) {
  for (std::size_t i = 0; i < rows; ++i) {
    double* SPEAR_RESTRICT row = m + i * cols;
    for (std::size_t j = 0; j < cols; ++j) row[j] += bias[j];
  }
}

SPEAR_SIMD_CLONES
void add_bias_relu(double* SPEAR_RESTRICT m, std::size_t rows,
                   std::size_t cols, const double* SPEAR_RESTRICT bias,
                   double* SPEAR_RESTRICT relu_out) {
  for (std::size_t i = 0; i < rows; ++i) {
    double* SPEAR_RESTRICT row = m + i * cols;
    double* SPEAR_RESTRICT rrow = relu_out + i * cols;
    for (std::size_t j = 0; j < cols; ++j) {
      const double z = row[j] + bias[j];
      row[j] = z;
      rrow[j] = z > 0.0 ? z : 0.0;
    }
  }
}

SPEAR_SIMD_CLONES
void add_bias_relu_compress(double* SPEAR_RESTRICT m, std::size_t rows,
                            std::size_t cols,
                            const double* SPEAR_RESTRICT bias,
                            double* SPEAR_RESTRICT relu_out,
                            std::int32_t* SPEAR_RESTRICT kidx,
                            double* SPEAR_RESTRICT kval,
                            std::int32_t* SPEAR_RESTRICT row_nnz) {
  for (std::size_t i = 0; i < rows; ++i) {
    double* SPEAR_RESTRICT row = m + i * cols;
    double* SPEAR_RESTRICT rrow = relu_out + i * cols;
    std::int32_t* SPEAR_RESTRICT ki = kidx + i * cols;
    double* SPEAR_RESTRICT kv = kval + i * cols;
    // The same branchless compression as compress_rows_into, folded
    // into the bias+ReLU sweep so the next layer's matmul reads the
    // activations precompressed instead of re-scanning ~50%-zero rows.
    std::size_t nnz = 0;
    for (std::size_t j = 0; j < cols; ++j) {
      const double z = row[j] + bias[j];
      row[j] = z;
      const double r = z > 0.0 ? z : 0.0;
      rrow[j] = r;
      ki[nnz] = static_cast<std::int32_t>(j);
      kv[nnz] = r;
      nnz += static_cast<std::size_t>(r != 0.0);
    }
    row_nnz[i] = static_cast<std::int32_t>(nnz);
  }
}

SPEAR_SIMD_CLONES
void column_sums_accumulate(const double* SPEAR_RESTRICT m, std::size_t rows,
                            std::size_t cols, double* SPEAR_RESTRICT out) {
  for (std::size_t i = 0; i < rows; ++i) {
    const double* SPEAR_RESTRICT row = m + i * cols;
    for (std::size_t j = 0; j < cols; ++j) out[j] += row[j];
  }
}

void relu_backward_mask(double* SPEAR_RESTRICT grad,
                        const double* SPEAR_RESTRICT pre, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (pre[i] <= 0.0) grad[i] = 0.0;
  }
}

}  // namespace spear::kernels
