// Differential tests of the threaded kernel backend against the serial
// reference: spmm / spmm_t / gemm variants across fuzzed shapes (empty rows,
// 1 thread, more threads than rows), and the touched-row SparseGradient
// against the dense-gradient update path the seed implementation used.
//
// The parallel kernels partition OUTPUT rows, so each output row is
// accumulated in the same order as serial — results must be bit-identical,
// not merely close; most assertions below are exact.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "nn/model.h"
#include "sparse/csr.h"
#include "sparse/ops.h"
#include "sparse/sparse_gradient.h"
#include "tensor/ops.h"
#include "util/kernel_context.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace hetero {
namespace {

sparse::CsrMatrix fuzz_csr(std::size_t rows, std::size_t cols,
                           double density, util::Rng& rng,
                           bool allow_empty_rows = true) {
  sparse::CsrBuilder b(cols);
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<sparse::Entry> entries;
    for (std::size_t c = 0; c < cols; ++c) {
      if (rng.bernoulli(density)) {
        entries.push_back({static_cast<std::uint32_t>(c),
                           static_cast<float>(rng.uniform(-1.0, 1.0))});
      }
    }
    if (entries.empty() && !allow_empty_rows) entries.push_back({0, 1.0f});
    b.add_row(std::move(entries));
  }
  return b.build();
}

tensor::Matrix fuzz_matrix(std::size_t rows, std::size_t cols,
                           util::Rng& rng) {
  tensor::Matrix m(rows, cols);
  for (auto& v : m.flat()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return m;
}

// Context that always parallelizes (grain 0), so tiny fuzzed shapes still
// exercise the threaded path.
kernels::Context eager_ctx(util::ThreadPool& pool, std::size_t threads) {
  kernels::Context ctx{&pool, threads};
  ctx.serial_grain = 0;
  return ctx;
}

void expect_bit_identical(const tensor::Matrix& a, const tensor::Matrix& b) {
  ASSERT_TRUE(a.same_shape(b));
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.data()[i], b.data()[i]) << "element " << i;
  }
}

TEST(ParallelKernels, SpmmMatchesSerialAcrossFuzzedShapes) {
  util::ThreadPool pool(4);
  util::Rng rng(42);
  const std::size_t thread_counts[] = {1, 2, 3, 4, 9};  // 9 > any row count
  for (int iter = 0; iter < 20; ++iter) {
    const std::size_t rows = rng.next_below(8);  // includes 0-row matrices
    const std::size_t cols = 1 + rng.next_below(40);
    const std::size_t h = 1 + rng.next_below(17);
    const auto x = fuzz_csr(rows, cols, 0.3, rng);  // empty rows likely
    const auto w = fuzz_matrix(cols, h, rng);
    tensor::Matrix serial;
    sparse::spmm(x, w, serial);
    for (const auto t : thread_counts) {
      tensor::Matrix threaded;
      sparse::spmm(x, w, threaded, eager_ctx(pool, t));
      expect_bit_identical(serial, threaded);
    }
  }
}

TEST(ParallelKernels, SpmmTAccumulateMatchesSerial) {
  util::ThreadPool pool(4);
  util::Rng rng(43);
  for (int iter = 0; iter < 20; ++iter) {
    const std::size_t rows = 1 + rng.next_below(8);
    const std::size_t cols = 1 + rng.next_below(40);
    const std::size_t h = 1 + rng.next_below(17);
    const auto x = fuzz_csr(rows, cols, 0.3, rng);
    const auto d = fuzz_matrix(rows, h, rng);
    // Non-zero starting G: accumulation (no zeroing) semantics must hold.
    const auto g0 = fuzz_matrix(cols, h, rng);
    tensor::Matrix serial = g0;
    sparse::spmm_t_accumulate(x, d, serial);
    for (const std::size_t t : {2, 4, 9}) {
      tensor::Matrix threaded = g0;
      sparse::spmm_t_accumulate(x, d, threaded, eager_ctx(pool, t));
      expect_bit_identical(serial, threaded);
    }
  }
}

TEST(ParallelKernels, GemmVariantsMatchSerial) {
  util::ThreadPool pool(4);
  util::Rng rng(44);
  for (int iter = 0; iter < 20; ++iter) {
    const std::size_t m = 1 + rng.next_below(9);
    const std::size_t k = 1 + rng.next_below(9);
    const std::size_t n = 1 + rng.next_below(9);
    const auto a = fuzz_matrix(m, k, rng);
    const auto b = fuzz_matrix(k, n, rng);
    const auto bt = fuzz_matrix(n, k, rng);
    const auto at = fuzz_matrix(k, m, rng);
    tensor::Matrix c_serial, c_threaded;

    tensor::gemm(a, b, c_serial);
    for (const std::size_t t : {2, 4, 16}) {
      tensor::gemm(a, b, c_threaded, eager_ctx(pool, t));
      expect_bit_identical(c_serial, c_threaded);
    }
    tensor::gemm_at_b(at, b, c_serial);
    for (const std::size_t t : {2, 4, 16}) {
      tensor::gemm_at_b(at, b, c_threaded, eager_ctx(pool, t));
      expect_bit_identical(c_serial, c_threaded);
    }
    tensor::gemm_a_bt(a, bt, c_serial);
    for (const std::size_t t : {2, 4, 16}) {
      tensor::gemm_a_bt(a, bt, c_threaded, eager_ctx(pool, t));
      expect_bit_identical(c_serial, c_threaded);
    }
  }
}

TEST(ParallelKernels, SerialFallbackBelowGrain) {
  // With the default grain, tiny shapes must not touch the pool at all —
  // verified indirectly: a context with a null pool but num_threads > 1
  // would crash if the parallel path ran, and should_parallelize is false.
  kernels::Context ctx;
  ctx.num_threads = 8;
  EXPECT_FALSE(ctx.should_parallelize(1 << 30));
  util::ThreadPool pool(2);
  kernels::Context small{&pool, 2};
  EXPECT_FALSE(small.should_parallelize(small.serial_grain - 1));
  EXPECT_TRUE(small.should_parallelize(small.serial_grain));
}

TEST(SparseGradient, KeysToTouchedColumns) {
  sparse::CsrBuilder b(10);
  b.add_row({{7, 1.0f}, {2, 2.0f}});
  b.add_row({});
  b.add_row({{2, -1.0f}, {9, 0.5f}});
  const auto x = b.build();
  sparse::SparseGradient g;
  g.reset(x, 4);
  ASSERT_EQ(g.num_rows(), 3u);
  EXPECT_EQ(g.rows()[0], 2u);
  EXPECT_EQ(g.rows()[1], 7u);
  EXPECT_EQ(g.rows()[2], 9u);
  EXPECT_EQ(g.slot_of(2), 0u);
  EXPECT_EQ(g.slot_of(7), 1u);
  EXPECT_EQ(g.slot_of(9), 2u);
  EXPECT_EQ(g.slot_of(0), sparse::SparseGradient::kNoSlot);
  EXPECT_EQ(g.slot_of(12345), sparse::SparseGradient::kNoSlot);
  for (float v : g.values()) EXPECT_EQ(v, 0.0f);

  // Re-keying to a different batch must invalidate the old map entries.
  sparse::CsrBuilder b2(10);
  b2.add_row({{1, 1.0f}});
  g.reset(b2.build(), 4);
  EXPECT_EQ(g.num_rows(), 1u);
  EXPECT_EQ(g.slot_of(1), 0u);
  EXPECT_EQ(g.slot_of(2), sparse::SparseGradient::kNoSlot);
  EXPECT_EQ(g.slot_of(7), sparse::SparseGradient::kNoSlot);
  EXPECT_EQ(g.slot_of(9), sparse::SparseGradient::kNoSlot);
}

TEST(SparseGradient, AccumulateMatchesDenseScatterBitForBit) {
  util::ThreadPool pool(4);
  util::Rng rng(45);
  for (int iter = 0; iter < 10; ++iter) {
    const std::size_t rows = 1 + rng.next_below(6);
    const std::size_t cols = 5 + rng.next_below(50);
    const std::size_t h = 1 + rng.next_below(9);
    const auto x = fuzz_csr(rows, cols, 0.2, rng);
    const auto d = fuzz_matrix(rows, h, rng);

    tensor::Matrix dense(cols, h, 0.0f);
    sparse::spmm_t_accumulate(x, d, dense);

    for (const std::size_t t : {1, 2, 4, 9}) {
      sparse::SparseGradient g;
      g.reset(x, h);
      g.accumulate_spmm_t(x, d, eager_ctx(pool, t));
      tensor::Matrix scattered;
      g.to_dense(scattered);
      expect_bit_identical(dense, scattered);
    }
  }
}

TEST(SparseGradient, ApplyEqualsDenseUpdateBitForBit) {
  // The seed's dense path: zero-filled F x H gradient, spmm_t scatter, then
  // a sort/unique over the batch columns and w = keep*w - lr*g per touched
  // row. The SparseGradient path must update the model bit-for-bit the same.
  util::Rng rng(46);
  const std::size_t f = 60, h = 7;
  const auto x = fuzz_csr(5, f, 0.15, rng);
  const auto d = fuzz_matrix(5, h, rng);
  const float lr = 0.37f, keep = 1.0f - lr * 0.01f;
  const auto w0 = fuzz_matrix(f, h, rng);

  // Dense reference (seed semantics).
  tensor::Matrix dense_grad(f, h, 0.0f);
  sparse::spmm_t_accumulate(x, d, dense_grad);
  tensor::Matrix w_dense = w0;
  std::vector<std::uint32_t> touched(x.col_idx());
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  for (auto row : touched) {
    float* w = w_dense.data() + static_cast<std::size_t>(row) * h;
    const float* g = dense_grad.data() + static_cast<std::size_t>(row) * h;
    for (std::size_t j = 0; j < h; ++j) w[j] = keep * w[j] - lr * g[j];
  }

  sparse::SparseGradient g;
  g.reset(x, h);
  g.accumulate_spmm_t(x, d, kernels::Context::serial());
  tensor::Matrix w_sparse = w0;
  g.apply_to(w_sparse, lr, keep, kernels::Context::serial());

  expect_bit_identical(w_dense, w_sparse);
}

TEST(SparseGradient, AddScaledAccumulates) {
  sparse::CsrBuilder b(8);
  b.add_row({{1, 1.0f}, {4, 1.0f}});
  const auto x = b.build();
  sparse::SparseGradient g1, g2;
  g1.reset(x, 2);
  g2.reset(x, 2);
  g1.values()[0] = 1.0f;
  g2.values()[0] = 2.0f;
  g1.add_scaled(g2, 0.5f);
  EXPECT_FLOAT_EQ(g1.values()[0], 2.0f);
}

TEST(ParallelKernels, ThreadedSgdStepBitIdenticalToSerial) {
  util::ThreadPool pool(4);
  util::Rng rng(47);
  constexpr std::size_t kFeatures = 80;
  constexpr std::size_t kClasses = 12;
  nn::Model serial_model(kFeatures, {16}, kClasses);
  nn::Model threaded_model(kFeatures, {16}, kClasses);
  serial_model.init(rng);
  threaded_model.from_flat(serial_model.to_flat());

  nn::ModelWorkspace ws_serial;
  nn::ModelWorkspace ws_threaded;
  ws_threaded.ctx = eager_ctx(pool, 4);

  util::Rng data_rng(48);
  for (int step = 0; step < 5; ++step) {
    const auto x = fuzz_csr(6, kFeatures, 0.1, data_rng,
                            /*allow_empty_rows=*/false);
    sparse::CsrBuilder yb(kClasses);
    for (std::size_t r = 0; r < 6; ++r) {
      yb.add_indicator_row(
          {static_cast<std::uint32_t>(data_rng.next_below(kClasses))});
    }
    const auto y = yb.build();
    const auto sa = serial_model.train_step(x, y, 0.1f, ws_serial, 0.01f);
    const auto sb = threaded_model.train_step(x, y, 0.1f, ws_threaded, 0.01f);
    EXPECT_EQ(sa.loss, sb.loss);
  }
  EXPECT_EQ(serial_model.to_flat(), threaded_model.to_flat());
}

TEST(ParallelKernels, BitmapKeysMatchSortUnique) {
  // One gradient is re-keyed across every batch below, so a bitmap bit or
  // slot left over from one batch would show in the next.
  util::Rng rng(50);
  sparse::SparseGradient g;
  const auto expect_keys = [&](const sparse::CsrMatrix& x) {
    g.reset(x, 3);
    const auto want = sparse::touched_columns(x);  // sort + unique
    ASSERT_EQ(std::vector<std::uint32_t>(g.rows().begin(), g.rows().end()),
              want);
    EXPECT_EQ(g.values().size(), want.size() * 3);
    constexpr auto kNoSlot = sparse::SparseGradient::kNoSlot;
    std::size_t slot = 0;
    for (std::uint32_t c = 0; c < x.cols(); ++c) {
      const bool touched = slot < want.size() && want[slot] == c;
      EXPECT_EQ(g.slot_of(c), touched ? slot++ : kNoSlot);
    }
  };
  for (const std::size_t f : {1u, 63u, 64u, 65u, 130u, 1000u}) {
    expect_keys(sparse::CsrBuilder(f).build());  // empty batch
    const auto last = static_cast<std::uint32_t>(f - 1);
    sparse::CsrBuilder b(f);
    b.add_row({{0, 1.0f}, {last, 2.0f}});
    b.add_row({});
    b.add_row({{last, 3.0f}});  // column F-1 again
    b.add_row({{0, 4.0f}});     // column 0 again
    expect_keys(b.build());
    for (int iter = 0; iter < 4; ++iter) {
      expect_keys(fuzz_csr(1 + rng.next_below(8), f, 0.05, rng));
    }
  }
}

TEST(ParallelKernels, TouchedColumnsMatchesDistinctColumns) {
  util::Rng rng(49);
  for (int iter = 0; iter < 10; ++iter) {
    const auto x = fuzz_csr(1 + rng.next_below(6), 1 + rng.next_below(30),
                            0.3, rng);
    const auto cols = sparse::touched_columns(x);
    EXPECT_EQ(cols.size(), sparse::distinct_columns(x));
    EXPECT_TRUE(std::is_sorted(cols.begin(), cols.end()));
    EXPECT_EQ(std::adjacent_find(cols.begin(), cols.end()), cols.end());
  }
}

}  // namespace
}  // namespace hetero
