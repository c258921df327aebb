#include "tensor/ops.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <tuple>

#include "tensor/matrix.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace hetero::tensor {
namespace {

Matrix random_matrix(std::size_t r, std::size_t c, util::Rng& rng) {
  Matrix m(r, c);
  for (auto& v : m.flat()) v = static_cast<float>(rng.uniform(-1, 1));
  return m;
}

// Reference O(n^3) GEMM used to validate the optimized loop orders.
Matrix reference_gemm(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols(), 0.0f);
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < b.cols(); ++j) {
      float acc = 0.0f;
      for (std::size_t k = 0; k < a.cols(); ++k) acc += a(i, k) * b(k, j);
      c(i, j) = acc;
    }
  return c;
}

void expect_near(const Matrix& a, const Matrix& b, float tol = 1e-4f) {
  ASSERT_TRUE(a.same_shape(b));
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a.flat()[i], b.flat()[i], tol) << "at " << i;
  }
}

TEST(Matrix, ShapeAndAccess) {
  Matrix m(2, 3, 1.5f);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  m(1, 2) = 9.0f;
  EXPECT_FLOAT_EQ(m(1, 2), 9.0f);
  EXPECT_FLOAT_EQ(m(0, 0), 1.5f);
}

TEST(Matrix, RowSpanViewsUnderlyingData) {
  Matrix m(2, 2);
  m.row(1)[0] = 5.0f;
  EXPECT_FLOAT_EQ(m(1, 0), 5.0f);
}

TEST(Matrix, FillAndResize) {
  Matrix m(2, 2, 1.0f);
  m.fill(3.0f);
  EXPECT_FLOAT_EQ(m(1, 1), 3.0f);
  m.resize(3, 4, 0.5f);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_FLOAT_EQ(m(2, 3), 0.5f);
}

class GemmShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShapes, MatchesReference) {
  const auto [m, k, n] = GetParam();
  util::Rng rng(m * 100 + k * 10 + n);
  const auto a = random_matrix(m, k, rng);
  const auto b = random_matrix(k, n, rng);
  Matrix c;
  gemm(a, b, c);
  expect_near(c, reference_gemm(a, b));
}

TEST_P(GemmShapes, AtBMatchesReference) {
  const auto [m, k, n] = GetParam();
  util::Rng rng(m + k + n);
  const auto a = random_matrix(k, m, rng);  // will be transposed
  const auto b = random_matrix(k, n, rng);
  Matrix at(m, k);
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j) at(j, i) = a(i, j);
  Matrix c;
  gemm_at_b(a, b, c);
  expect_near(c, reference_gemm(at, b));
}

TEST_P(GemmShapes, ABtMatchesReference) {
  const auto [m, k, n] = GetParam();
  util::Rng rng(m * 7 + k * 3 + n);
  const auto a = random_matrix(m, k, rng);
  const auto b = random_matrix(n, k, rng);
  Matrix bt(k, n);
  for (std::size_t i = 0; i < b.rows(); ++i)
    for (std::size_t j = 0; j < b.cols(); ++j) bt(j, i) = b(i, j);
  Matrix c;
  gemm_a_bt(a, b, c);
  expect_near(c, reference_gemm(a, bt));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapes,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(2, 3, 4),
                      std::make_tuple(5, 1, 7), std::make_tuple(8, 8, 8),
                      std::make_tuple(16, 32, 8), std::make_tuple(3, 17, 5)));

TEST(Ops, AxpyAccumulates) {
  std::vector<float> x{1, 2, 3}, y{10, 20, 30};
  axpy(2.0f, {x.data(), 3}, {y.data(), 3});
  EXPECT_FLOAT_EQ(y[0], 12);
  EXPECT_FLOAT_EQ(y[2], 36);
}

TEST(Ops, AxpbyCombines) {
  std::vector<float> x{1, 2}, y{4, 8};
  axpby(1.0f, {x.data(), 2}, 0.5f, {y.data(), 2});
  EXPECT_FLOAT_EQ(y[0], 3.0f);
  EXPECT_FLOAT_EQ(y[1], 6.0f);
}

TEST(Ops, Scale) {
  std::vector<float> x{2, -4};
  scale({x.data(), 2}, 0.5f);
  EXPECT_FLOAT_EQ(x[0], 1.0f);
  EXPECT_FLOAT_EQ(x[1], -2.0f);
}

TEST(Ops, AddRowBias) {
  Matrix m(2, 3, 1.0f);
  std::vector<float> bias{1, 2, 3};
  add_row_bias(m, {bias.data(), 3});
  EXPECT_FLOAT_EQ(m(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(m(1, 2), 4.0f);
}

TEST(Ops, ReluClampsNegatives) {
  Matrix m(1, 4);
  m(0, 0) = -1;
  m(0, 1) = 0;
  m(0, 2) = 2;
  m(0, 3) = -0.5;
  relu(m);
  EXPECT_FLOAT_EQ(m(0, 0), 0);
  EXPECT_FLOAT_EQ(m(0, 2), 2);
  EXPECT_FLOAT_EQ(m(0, 3), 0);
}

TEST(Ops, ReluBackwardMasks) {
  Matrix act(1, 3), grad(1, 3, 1.0f);
  act(0, 0) = -1;
  act(0, 1) = 0;
  act(0, 2) = 3;
  relu_backward(act, grad);
  EXPECT_FLOAT_EQ(grad(0, 0), 0);
  EXPECT_FLOAT_EQ(grad(0, 1), 0);  // boundary: gradient 0 at exactly 0
  EXPECT_FLOAT_EQ(grad(0, 2), 1);
}

TEST(Ops, SoftmaxRowsSumToOne) {
  util::Rng rng(9);
  auto m = random_matrix(4, 10, rng);
  softmax_rows(m);
  for (std::size_t i = 0; i < m.rows(); ++i) {
    float sum = 0.0f;
    for (std::size_t j = 0; j < m.cols(); ++j) {
      EXPECT_GE(m(i, j), 0.0f);
      sum += m(i, j);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(Ops, SoftmaxNumericallyStableForLargeLogits) {
  Matrix m(1, 3);
  m(0, 0) = 1000.0f;
  m(0, 1) = 1001.0f;
  m(0, 2) = 999.0f;
  softmax_rows(m);
  EXPECT_TRUE(std::isfinite(m(0, 0)));
  EXPECT_GT(m(0, 1), m(0, 0));
  EXPECT_GT(m(0, 0), m(0, 2));
}

TEST(Ops, SoftmaxPreservesOrder) {
  Matrix m(1, 4);
  m(0, 0) = 0.1f;
  m(0, 1) = 2.0f;
  m(0, 2) = -1.0f;
  m(0, 3) = 0.5f;
  softmax_rows(m);
  EXPECT_EQ(argmax(m.row(0)), 1u);
}

TEST(Ops, SoftmaxRowsThreadedBitIdenticalToSerial) {
  // Row counts that no worker count divides evenly, with rows of large and
  // of -inf logits.
  const float inf = std::numeric_limits<float>::infinity();
  util::Rng rng(23);
  for (const std::size_t rows : {1u, 5u, 7u, 13u}) {
    Matrix base = random_matrix(rows, 37, rng);
    for (auto& v : base.flat()) v *= 20.0f;
    base(0, 4) = 88.0f;
    base(0, 9) = 1.0e4f;
    base(rows - 1, 0) = -inf;
    base(rows - 1, 36) = -inf;
    Matrix serial = base;
    softmax_rows(serial);
    for (std::size_t threads = 1; threads <= 4; ++threads) {
      util::ThreadPool pool(threads);
      kernels::Context ctx{&pool, threads};
      ctx.serial_grain = 0;
      Matrix m = base;
      softmax_rows(m, ctx);
      EXPECT_EQ(std::memcmp(m.data(), serial.data(), m.size() * sizeof(float)),
                0)
          << rows << " rows, " << threads << " threads";
    }
  }
}

TEST(Ops, ColumnSums) {
  Matrix m(2, 3);
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 3; ++j)
      m(i, j) = static_cast<float>(i * 3 + j);
  std::vector<float> sums(3);
  column_sums(m, {sums.data(), 3});
  EXPECT_FLOAT_EQ(sums[0], 3);
  EXPECT_FLOAT_EQ(sums[1], 5);
  EXPECT_FLOAT_EQ(sums[2], 7);
}

TEST(Ops, NormsAndDot) {
  std::vector<float> a{3, 4}, b{1, 0};
  EXPECT_DOUBLE_EQ(sum_of_squares({a.data(), 2}), 25.0);
  EXPECT_DOUBLE_EQ(l2_norm({a.data(), 2}), 5.0);
  EXPECT_DOUBLE_EQ(dot({a.data(), 2}, {b.data(), 2}), 3.0);
}

TEST(Ops, ArgmaxFirstOnTies) {
  std::vector<float> v{1, 3, 3, 2};
  EXPECT_EQ(argmax({v.data(), 4}), 1u);
}

TEST(Ops, GemmWithIdentityIsNoOp) {
  util::Rng rng(21);
  const auto a = random_matrix(6, 6, rng);
  Matrix identity(6, 6, 0.0f);
  for (std::size_t i = 0; i < 6; ++i) identity(i, i) = 1.0f;
  Matrix c;
  gemm(a, identity, c);
  expect_near(c, a, 1e-6f);
  gemm(identity, a, c);
  expect_near(c, a, 1e-6f);
}

TEST(Ops, GemmZeroMatrixGivesZero) {
  util::Rng rng(22);
  const auto a = random_matrix(4, 5, rng);
  Matrix zero(5, 3, 0.0f);
  Matrix c;
  gemm(a, zero, c);
  for (float v : c.flat()) EXPECT_EQ(v, 0.0f);
}

TEST(Ops, GemmDistributesOverAddition) {
  // A*(B1+B2) == A*B1 + A*B2 (within fp tolerance).
  util::Rng rng(23);
  const auto a = random_matrix(5, 7, rng);
  const auto b1 = random_matrix(7, 4, rng);
  const auto b2 = random_matrix(7, 4, rng);
  Matrix sum(7, 4);
  for (std::size_t i = 0; i < sum.size(); ++i) {
    sum.flat()[i] = b1.flat()[i] + b2.flat()[i];
  }
  Matrix left, r1, r2;
  gemm(a, sum, left);
  gemm(a, b1, r1);
  gemm(a, b2, r2);
  for (std::size_t i = 0; i < left.size(); ++i) {
    EXPECT_NEAR(left.flat()[i], r1.flat()[i] + r2.flat()[i], 1e-4f);
  }
}

TEST(Ops, TransposedGemmsAgreeWithEachOther) {
  // (A^T B)^T == B^T A: gemm_at_b and gemm_a_bt must be consistent.
  util::Rng rng(24);
  const auto a = random_matrix(6, 3, rng);  // k x m
  const auto b = random_matrix(6, 5, rng);  // k x n
  Matrix atb;                               // m x n
  gemm_at_b(a, b, atb);
  Matrix bta;                               // n x m via gemm_a_bt(B^T ... )
  gemm_at_b(b, a, bta);
  for (std::size_t i = 0; i < atb.rows(); ++i) {
    for (std::size_t j = 0; j < atb.cols(); ++j) {
      EXPECT_NEAR(atb(i, j), bta(j, i), 1e-5f);
    }
  }
}

TEST(Ops, SoftmaxUniformOnEqualLogits) {
  Matrix m(1, 8, 3.0f);
  softmax_rows(m);
  for (float v : m.row(0)) EXPECT_NEAR(v, 0.125f, 1e-6f);
}

TEST(Ops, ScaleByZeroAndOne) {
  std::vector<float> x{1, -2, 3};
  scale({x.data(), 3}, 1.0f);
  EXPECT_FLOAT_EQ(x[1], -2.0f);
  scale({x.data(), 3}, 0.0f);
  for (float v : x) EXPECT_EQ(v, 0.0f);
}

TEST(Ops, DotIsSymmetricAndLinear) {
  util::Rng rng(25);
  std::vector<float> a(16), b(16);
  for (auto& v : a) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto& v : b) v = static_cast<float>(rng.uniform(-1, 1));
  EXPECT_NEAR(dot({a.data(), 16}, {b.data(), 16}),
              dot({b.data(), 16}, {a.data(), 16}), 1e-12);
  EXPECT_NEAR(dot({a.data(), 16}, {a.data(), 16}),
              sum_of_squares({a.data(), 16}), 1e-12);
}

TEST(Ops, InitGaussianStddev) {
  util::Rng rng(11);
  Matrix m(100, 100);
  init_gaussian(m, 0.05, rng);
  double ss = 0.0;
  for (float v : m.flat()) ss += static_cast<double>(v) * v;
  const double stddev = std::sqrt(ss / static_cast<double>(m.size()));
  EXPECT_NEAR(stddev, 0.05, 0.002);
}

}  // namespace
}  // namespace hetero::tensor
