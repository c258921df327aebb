#include "sparse/ops.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

#include "tensor/vec/vec.h"
#include "util/partition.h"

namespace hetero::sparse {

void spmm(const CsrMatrix& x, const tensor::Matrix& w, tensor::Matrix& y) {
  spmm(x, w, y, kernels::Context::serial());
}

void spmm(const CsrMatrix& x, const tensor::Matrix& w, tensor::Matrix& y,
          const kernels::Context& ctx) {
  assert(x.cols() == w.rows());
  const std::size_t h = w.cols();
  y.resize(x.rows(), h, 0.0f);
  const std::size_t work = x.nnz() * h;
  const auto& vk = vec::kernels();

  const auto run_rows = [&](std::size_t r0, std::size_t r1) {
    for (std::size_t r = r0; r < r1; ++r) {
      float* yr = y.data() + r * h;
      const auto cols = x.row_cols(r);
      const auto vals = x.row_values(r);
      for (std::size_t i = 0; i < cols.size(); ++i) {
        vk.axpy(vals[i],
                w.data() + static_cast<std::size_t>(cols[i]) * h, yr, h);
      }
    }
  };

  const std::size_t workers =
      ctx.should_parallelize(work) ? ctx.workers_for(x.rows()) : 1;
  if (workers <= 1) {
    run_rows(0, x.rows());
    return;
  }
  // nnz-balanced row ranges: split the row_ptr prefix sums evenly so skewed
  // batches (a few heavy rows) do not serialize on one worker.
  const auto ranges = kernels::nnz_balanced_ranges(x.row_ptr(), workers);
  ctx.pool->fork_join(ranges.size(), [&](std::size_t w) {
    run_rows(ranges[w].first, ranges[w].second);
  });
}

void spmm_t_accumulate(const CsrMatrix& x, const tensor::Matrix& d,
                       tensor::Matrix& g) {
  spmm_t_accumulate(x, d, g, kernels::Context::serial());
}

void spmm_t_accumulate(const CsrMatrix& x, const tensor::Matrix& d,
                       tensor::Matrix& g, const kernels::Context& ctx) {
  assert(x.rows() == d.rows());
  assert(g.rows() == x.cols());
  assert(g.cols() == d.cols());
  const std::size_t h = d.cols();
  const auto& vk = vec::kernels();
  // Partition by output (feature) row: worker ranges [f0, f1) over g's rows.
  // Every worker scans the full batch but touches only its own g rows, so
  // the scatter needs no atomics and accumulates in batch order per row.
  parallel_for_ranges(
      ctx, g.rows(), x.nnz() * h, [&](std::size_t f0, std::size_t f1) {
        for (std::size_t r = 0; r < x.rows(); ++r) {
          const float* dr = d.data() + r * h;
          const auto cols = x.row_cols(r);
          const auto vals = x.row_values(r);
          for (std::size_t i = 0; i < cols.size(); ++i) {
            const auto f = static_cast<std::size_t>(cols[i]);
            if (f < f0 || f >= f1) continue;
            vk.axpy(vals[i], dr, g.data() + f * h, h);
          }
        }
      });
}

std::vector<std::uint32_t> touched_columns(const CsrMatrix& x) {
  std::vector<std::uint32_t> cols(x.col_idx().begin(), x.col_idx().end());
  std::sort(cols.begin(), cols.end());
  cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
  return cols;
}

std::size_t spmm_flops(const CsrMatrix& x, std::size_t w_cols) {
  return 2 * x.nnz() * w_cols;
}

std::size_t spmm_bytes(const CsrMatrix& x, std::size_t w_cols) {
  // CSR arrays (cols + values) + one W row per non-zero + output.
  const std::size_t csr = x.nnz() * (sizeof(std::uint32_t) + sizeof(float));
  const std::size_t wrows = x.nnz() * w_cols * sizeof(float);
  const std::size_t out = x.rows() * w_cols * sizeof(float);
  return csr + wrows + out;
}

std::size_t distinct_columns(const CsrMatrix& x) {
  return touched_columns(x).size();
}

CsrMatrix transpose(const CsrMatrix& x) {
  const std::size_t rows = x.cols();  // transposed shape
  const std::size_t cols = x.rows();
  std::vector<std::size_t> row_ptr(rows + 1, 0);
  // Pass 1: count entries per output row (= input column).
  for (auto c : x.col_idx()) ++row_ptr[c + 1];
  for (std::size_t r = 0; r < rows; ++r) row_ptr[r + 1] += row_ptr[r];

  std::vector<std::uint32_t> col_idx(x.nnz());
  std::vector<float> values(x.nnz());
  std::vector<std::size_t> cursor(row_ptr.begin(), row_ptr.end() - 1);
  // Pass 2: scatter. Scanning input rows in order gives sorted columns in
  // every output row.
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const auto in_cols = x.row_cols(r);
    const auto in_vals = x.row_values(r);
    for (std::size_t i = 0; i < in_cols.size(); ++i) {
      const std::size_t pos = cursor[in_cols[i]]++;
      col_idx[pos] = static_cast<std::uint32_t>(r);
      values[pos] = in_vals[i];
    }
  }
  return CsrMatrix(rows, cols, std::move(row_ptr), std::move(col_idx),
                   std::move(values));
}

std::vector<std::size_t> column_nnz(const CsrMatrix& x) {
  std::vector<std::size_t> counts(x.cols(), 0);
  for (auto c : x.col_idx()) ++counts[c];
  return counts;
}

double frobenius_norm(const CsrMatrix& x) {
  double ss = 0.0;
  for (float v : x.values()) ss += static_cast<double>(v) * v;
  return std::sqrt(ss);
}

}  // namespace hetero::sparse
