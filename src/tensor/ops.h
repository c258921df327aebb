// Dense kernels for the MLP: GEMM variants, element-wise ops, softmax,
// reductions, and parameter initialization.
//
// These are the CPU "reference kernels" the GPU simulator charges virtual
// time for; they are written as straightforward blocked loops (the paper's
// GPU kernels come from cuSPARSE/cuBLAS, which we cannot use here).
#pragma once

#include <cstdint>
#include <span>

#include "tensor/matrix.h"
#include "util/kernel_context.h"
#include "util/rng.h"

namespace hetero::tensor {

/// C = A * B  (A: m x k, B: k x n, C: m x n). C is overwritten.
/// The context variant partitions the rows of C across the pool (race-free;
/// bit-identical to serial) and falls back to serial below the work grain.
void gemm(const Matrix& a, const Matrix& b, Matrix& c);
void gemm(const Matrix& a, const Matrix& b, Matrix& c,
          const kernels::Context& ctx);

/// C = A^T * B (A: k x m, B: k x n, C: m x n). C is overwritten.
/// Parallel variant partitions the output rows (columns of A).
void gemm_at_b(const Matrix& a, const Matrix& b, Matrix& c);
void gemm_at_b(const Matrix& a, const Matrix& b, Matrix& c,
               const kernels::Context& ctx);

/// C = A * B^T (A: m x k, B: n x k, C: m x n). C is overwritten.
/// Parallel variant partitions the rows of C.
void gemm_a_bt(const Matrix& a, const Matrix& b, Matrix& c);
void gemm_a_bt(const Matrix& a, const Matrix& b, Matrix& c,
               const kernels::Context& ctx);

/// y += alpha * x (flat spans of equal length).
void axpy(float alpha, std::span<const float> x, std::span<float> y);

/// y = alpha * x + beta * y.
void axpby(float alpha, std::span<const float> x, float beta,
           std::span<float> y);

/// x *= alpha.
void scale(std::span<float> x, float alpha);

/// Adds `bias` (length = cols) to every row of `m`.
void add_row_bias(Matrix& m, std::span<const float> bias);

/// In-place ReLU.
void relu(Matrix& m);

/// grad *= 1[activation > 0] element-wise (ReLU backward).
void relu_backward(const Matrix& activation, Matrix& grad);

/// Row-wise softmax, numerically stabilized (subtract row max).
void softmax_rows(Matrix& m);
/// Same, with rows split across the context's workers; each row runs the
/// serial code, so the result is bit-identical at any thread count.
void softmax_rows(Matrix& m, const kernels::Context& ctx);

/// Column sums of `m` into `out` (length = cols). Used for bias gradients.
void column_sums(const Matrix& m, std::span<float> out);

/// Sum of squares of a flat span.
double sum_of_squares(std::span<const float> x);

/// L2 norm of a flat span.
double l2_norm(std::span<const float> x);

/// Dot product of two flat spans of equal length.
double dot(std::span<const float> a, std::span<const float> b);

/// Index of the maximum element of a span (first on ties).
std::size_t argmax(std::span<const float> x);

/// Fills `m` with N(0, stddev) samples — the paper initializes weights from
/// a normal distribution scaled by layer width.
void init_gaussian(Matrix& m, double stddev, util::Rng& rng);

}  // namespace hetero::tensor
