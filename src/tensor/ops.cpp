#include "tensor/ops.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "tensor/vec/vec.h"

namespace hetero::tensor {

void gemm(const Matrix& a, const Matrix& b, Matrix& c) {
  gemm(a, b, c, kernels::Context::serial());
}

void gemm(const Matrix& a, const Matrix& b, Matrix& c,
          const kernels::Context& ctx) {
  assert(a.cols() == b.rows());
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  c.resize(m, n, 0.0f);
  const auto& vk = vec::kernels();
  // Row blocks of C are independent; within a block the i-k-j loop order
  // streams B rows and accumulates into C rows (each a vectorized axpy).
  parallel_for_ranges(ctx, m, m * k * n, [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) {
      float* ci = c.data() + i * n;
      const float* ai = a.data() + i * k;
      for (std::size_t p = 0; p < k; ++p) {
        const float av = ai[p];
        if (av == 0.0f) continue;
        vk.axpy(av, b.data() + p * n, ci, n);
      }
    }
  });
}

void gemm_at_b(const Matrix& a, const Matrix& b, Matrix& c) {
  gemm_at_b(a, b, c, kernels::Context::serial());
}

void gemm_at_b(const Matrix& a, const Matrix& b, Matrix& c,
               const kernels::Context& ctx) {
  assert(a.rows() == b.rows());
  const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
  c.resize(m, n, 0.0f);
  const auto& vk = vec::kernels();
  // Partition the output rows (columns of A): each worker owns C rows
  // [i0, i1) and scans all k input rows, so no write races and per-row
  // accumulation order (p ascending) matches the serial loop exactly.
  parallel_for_ranges(ctx, m, m * k * n, [&](std::size_t i0, std::size_t i1) {
    for (std::size_t p = 0; p < k; ++p) {
      const float* ap = a.data() + p * m;
      const float* bp = b.data() + p * n;
      for (std::size_t i = i0; i < i1; ++i) {
        const float av = ap[i];
        if (av == 0.0f) continue;
        vk.axpy(av, bp, c.data() + i * n, n);
      }
    }
  });
}

void gemm_a_bt(const Matrix& a, const Matrix& b, Matrix& c) {
  gemm_a_bt(a, b, c, kernels::Context::serial());
}

void gemm_a_bt(const Matrix& a, const Matrix& b, Matrix& c,
               const kernels::Context& ctx) {
  assert(a.cols() == b.cols());
  const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
  c.resize(m, n, 0.0f);
  const auto& vk = vec::kernels();
  // Each C element is an inner product over k. dot_f32 uses the fixed
  // 8-virtual-lane accumulator, so the sum is identical on every ISA (and
  // independent of the thread partition, which never splits a row).
  parallel_for_ranges(ctx, m, m * k * n, [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) {
      const float* ai = a.data() + i * k;
      float* ci = c.data() + i * n;
      for (std::size_t j = 0; j < n; ++j) {
        ci[j] = vk.dot_f32(ai, b.data() + j * k, k);
      }
    }
  });
}

void axpy(float alpha, std::span<const float> x, std::span<float> y) {
  assert(x.size() == y.size());
  vec::kernels().axpy(alpha, x.data(), y.data(), x.size());
}

void axpby(float alpha, std::span<const float> x, float beta,
           std::span<float> y) {
  assert(x.size() == y.size());
  vec::kernels().axpby(alpha, x.data(), beta, y.data(), x.size());
}

void scale(std::span<float> x, float alpha) {
  vec::kernels().scale(x.data(), alpha, x.size());
}

void add_row_bias(Matrix& m, std::span<const float> bias) {
  assert(bias.size() == m.cols());
  const auto& vk = vec::kernels();
  for (std::size_t i = 0; i < m.rows(); ++i) {
    vk.add(bias.data(), m.data() + i * m.cols(), m.cols());
  }
}

void relu(Matrix& m) {
  vec::kernels().relu(m.data(), m.size());
}

void relu_backward(const Matrix& activation, Matrix& grad) {
  assert(activation.same_shape(grad));
  vec::kernels().relu_backward(activation.data(), grad.data(), grad.size());
}

void softmax_rows(Matrix& m) { softmax_rows(m, kernels::Context::serial()); }

void softmax_rows(Matrix& m, const kernels::Context& ctx) {
  const std::size_t n = m.cols();
  // std::exp dominates: count it as a handful of flops per element.
  parallel_for_ranges(ctx, m.rows(), m.size() * 8,
                      [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) {
      float* row = m.data() + i * n;
      float mx = row[0];
      for (std::size_t j = 1; j < n; ++j) mx = std::max(mx, row[j]);
      float sum = 0.0f;
      for (std::size_t j = 0; j < n; ++j) {
        row[j] = std::exp(row[j] - mx);
        sum += row[j];
      }
      const float inv = 1.0f / sum;
      for (std::size_t j = 0; j < n; ++j) row[j] *= inv;
    }
  });
}

void column_sums(const Matrix& m, std::span<float> out) {
  assert(out.size() == m.cols());
  std::fill(out.begin(), out.end(), 0.0f);
  const auto& vk = vec::kernels();
  for (std::size_t i = 0; i < m.rows(); ++i) {
    vk.add(m.data() + i * m.cols(), out.data(), m.cols());
  }
}

double sum_of_squares(std::span<const float> x) {
  // 8-virtual-lane reduction: identical on every ISA (see vec.h).
  return vec::kernels().sum_squares(x.data(), x.size());
}

double l2_norm(std::span<const float> x) { return std::sqrt(sum_of_squares(x)); }

double dot(std::span<const float> a, std::span<const float> b) {
  assert(a.size() == b.size());
  return vec::kernels().dot_f64(a.data(), b.data(), a.size());
}

std::size_t argmax(std::span<const float> x) {
  assert(!x.empty());
  std::size_t best = 0;
  for (std::size_t i = 1; i < x.size(); ++i) {
    if (x[i] > x[best]) best = i;
  }
  return best;
}

void init_gaussian(Matrix& m, double stddev, util::Rng& rng) {
  for (auto& v : m.flat())
    v = static_cast<float>(rng.gaussian(0.0, stddev));
}

}  // namespace hetero::tensor
