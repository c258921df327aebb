#include "sparse/sparse_gradient.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "tensor/vec/vec.h"

namespace hetero::sparse {

void RowSet::reset(std::size_t logical_rows) {
  stamp_.assign(logical_rows, 0);
  epoch_ = 1;
  rows_.clear();
}

void RowSet::clear() {
  rows_.clear();
  ++epoch_;
  if (epoch_ == 0) {  // epoch wrap: stale stamps could alias, wipe them
    std::fill(stamp_.begin(), stamp_.end(), 0);
    epoch_ = 1;
  }
}

void RowSet::add(std::span<const std::uint32_t> rows) {
  for (const auto r : rows) {
    assert(r < stamp_.size());
    if (stamp_[r] == epoch_) continue;
    stamp_[r] = epoch_;
    rows_.push_back(r);
  }
}

void RowSet::sorted_rows(std::vector<std::uint32_t>& out) const {
  out.assign(rows_.begin(), rows_.end());
  std::sort(out.begin(), out.end());
}

void SparseGradient::reset(const CsrMatrix& x, std::size_t cols) {
  // Mark each non-zero's column in a one-bit-per-column bitmap, then read
  // the set bits back in ascending order: the sorted distinct columns,
  // exactly as sort+unique gives them. Each word is cleared as it is read,
  // so the bitmap is all zero again for the next batch.
  const std::size_t words = (x.cols() + 63) / 64;
  if (column_bits_.size() != words) column_bits_.assign(words, 0);
  for (const auto c : x.col_idx()) {
    column_bits_[c / 64] |= std::uint64_t{1} << (c % 64);
  }
  scratch_.clear();
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t bits = column_bits_[w];
    if (bits == 0) continue;
    column_bits_[w] = 0;
    const auto base = static_cast<std::uint32_t>(w * 64);
    for (; bits != 0; bits &= bits - 1) {
      scratch_.push_back(base +
                         static_cast<std::uint32_t>(std::countr_zero(bits)));
    }
  }
  reset(x.cols(), cols, scratch_);
}

void SparseGradient::reset(std::size_t logical_rows, std::size_t cols,
                           std::span<const std::uint32_t> touched_sorted) {
  // Un-key the previous touched set before the map is resized or re-filled;
  // this keeps the reset cost O(touched), never O(logical_rows) beyond the
  // one-time map allocation.
  for (auto r : rows_) {
    if (r < slot_map_.size()) slot_map_[r] = kNoSlot;
  }
  if (slot_map_.size() != logical_rows) {
    slot_map_.assign(logical_rows, kNoSlot);
  }
  logical_rows_ = logical_rows;
  cols_ = cols;
  rows_.assign(touched_sorted.begin(), touched_sorted.end());
  for (std::size_t s = 0; s < rows_.size(); ++s) {
    assert(rows_[s] < logical_rows_);
    assert(s == 0 || rows_[s - 1] < rows_[s]);
    slot_map_[rows_[s]] = static_cast<std::uint32_t>(s);
  }
  values_.assign(rows_.size() * cols_, 0.0f);
}

void SparseGradient::accumulate_spmm_t(const CsrMatrix& x,
                                       const tensor::Matrix& d,
                                       const kernels::Context& ctx) {
  assert(x.rows() == d.rows());
  assert(x.cols() == logical_rows_);
  assert(d.cols() == cols_);
  const std::size_t h = cols_;
  const auto& vk = vec::kernels();
  kernels::parallel_for_ranges(
      ctx, rows_.size(), x.nnz() * h, [&](std::size_t s0, std::size_t s1) {
        for (std::size_t r = 0; r < x.rows(); ++r) {
          const float* dr = d.data() + r * h;
          const auto cols = x.row_cols(r);
          const auto vals = x.row_values(r);
          for (std::size_t i = 0; i < cols.size(); ++i) {
            const std::uint32_t s = slot_map_[cols[i]];
            assert(s != kNoSlot);
            if (s < s0 || s >= s1) continue;
            vk.axpy(vals[i], dr,
                    values_.data() + static_cast<std::size_t>(s) * h, h);
          }
        }
      });
}

void SparseGradient::apply_to(tensor::Matrix& w, float lr, float keep,
                              const kernels::Context& ctx) const {
  assert(w.rows() == logical_rows_);
  assert(w.cols() == cols_);
  const std::size_t h = cols_;
  const auto& vk = vec::kernels();
  kernels::parallel_for_ranges(
      ctx, rows_.size(), rows_.size() * h, [&](std::size_t s0, std::size_t s1) {
        for (std::size_t s = s0; s < s1; ++s) {
          // keep*w - lr*g == (-lr)*g + keep*w bit for bit (the negation is
          // exact and float addition is commutative), so the SGD row update
          // is exactly the axpby kernel.
          vk.axpby(-lr, values_.data() + s * h, keep,
                   w.data() + static_cast<std::size_t>(rows_[s]) * h, h);
        }
      });
}

void SparseGradient::add_scaled(const SparseGradient& other, float alpha) {
  assert(cols_ == other.cols_);
  assert(rows_.size() == other.rows_.size());
  assert(std::equal(rows_.begin(), rows_.end(), other.rows_.begin()));
  vec::kernels().axpy(alpha, other.values_.data(), values_.data(),
                      values_.size());
}

void SparseGradient::to_dense(tensor::Matrix& out) const {
  out.resize(logical_rows_, cols_);
  out.fill(0.0f);
  for (std::size_t s = 0; s < rows_.size(); ++s) {
    float* dst = out.data() + static_cast<std::size_t>(rows_[s]) * cols_;
    const float* src = values_.data() + s * cols_;
    std::copy_n(src, cols_, dst);
  }
}

}  // namespace hetero::sparse
