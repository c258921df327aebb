// Touched-row gradient for the sparse input layer.
//
// A batch with nnz non-zeros touches at most nnz distinct rows of the
// F x H layer-1 weight matrix, and for XML datasets (F up to millions,
// density ≤ 0.1%) that is a vanishingly small fraction of F. Storing the
// layer-1 gradient densely therefore wastes both memory and — worse — an
// O(F x H) zero-fill every step just to reuse the buffer. SparseGradient
// stores only the touched rows: a sorted row-id list plus a packed
// (touched x cols) value block, with an O(1) row -> slot map so the
// backward scatter stays a direct lookup. The map is allocated once per
// logical row space and re-keyed per batch in O(touched) by clearing only
// the previously touched entries. The per-batch key scans a one-bit-per-row
// bitmap, so the only per-step cost that scales with F is F/64 word reads.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "sparse/csr.h"
#include "tensor/matrix.h"
#include "util/kernel_context.h"

namespace hetero::sparse {

/// Accumulating set of touched row ids over a fixed logical row space.
///
/// The delta-aware merge path (TrainerConfig::sparse_merge) needs the union
/// of every W1 row a replica touched since the last broadcast: each SGD step
/// adds its SparseGradient row keys here in O(rows added), and the scheduler
/// unions the per-replica sets at the merge. Membership is an epoch-stamped
/// O(1) lookup — clearing between mega-batches just bumps the epoch, so no
/// per-merge cost scales with the logical row count except the one-time
/// stamp allocation.
class RowSet {
 public:
  /// Re-targets the set to [0, logical_rows) and clears it.
  void reset(std::size_t logical_rows);

  /// Empties the set, keeping the row space. O(1) amortized.
  void clear();

  /// Adds the given row ids (duplicates ignored). O(rows.size()).
  void add(std::span<const std::uint32_t> rows);
  void add(const RowSet& other) { add(other.rows()); }

  bool contains(std::uint32_t row) const {
    return row < stamp_.size() && stamp_[row] == epoch_;
  }

  std::size_t size() const { return rows_.size(); }
  std::size_t logical_rows() const { return stamp_.size(); }

  /// Distinct row ids in insertion order.
  std::span<const std::uint32_t> rows() const { return rows_; }

  /// Copies the distinct ids into `out`, sorted ascending (the merge kernels
  /// walk rows in address order for locality).
  void sorted_rows(std::vector<std::uint32_t>& out) const;

 private:
  std::uint32_t epoch_ = 1;
  std::vector<std::uint32_t> stamp_;  // per-row epoch of last insertion
  std::vector<std::uint32_t> rows_;   // distinct ids, insertion order
};

class SparseGradient {
 public:
  static constexpr std::uint32_t kNoSlot =
      std::numeric_limits<std::uint32_t>::max();

  SparseGradient() = default;

  /// Re-keys to the rows touched by `x` (its distinct non-zero columns) over
  /// a logical (x.cols() x cols) matrix and zeroes the packed values.
  /// O(batch nnz + x.cols()/64): the keys come from a column bitmap that is
  /// allocated on the first call with a given row space.
  void reset(const CsrMatrix& x, std::size_t cols);

  /// Re-keys to an explicit sorted, deduplicated row set.
  void reset(std::size_t logical_rows, std::size_t cols,
             std::span<const std::uint32_t> touched_sorted);

  std::size_t logical_rows() const { return logical_rows_; }
  std::size_t cols() const { return cols_; }
  /// Number of touched rows (== packed row count).
  std::size_t num_rows() const { return rows_.size(); }

  /// Sorted logical ids of the touched rows.
  std::span<const std::uint32_t> rows() const { return rows_; }

  /// Packed values, num_rows() x cols() row-major.
  std::span<float> values() { return {values_.data(), values_.size()}; }
  std::span<const float> values() const {
    return {values_.data(), values_.size()};
  }

  /// Packed slot of a logical row, or kNoSlot if the row is untouched. O(1).
  std::uint32_t slot_of(std::uint32_t logical_row) const {
    return logical_row < slot_map_.size() ? slot_map_[logical_row] : kNoSlot;
  }

  /// Values of packed slot s (s < num_rows()).
  std::span<float> slot_values(std::size_t s) {
    return {values_.data() + s * cols_, cols_};
  }
  std::span<const float> slot_values(std::size_t s) const {
    return {values_.data() + s * cols_, cols_};
  }

  /// G += Xᵀ * D over the touched rows. `x` must have the sparsity pattern
  /// this gradient was reset with (same touched-column set). Parallel over
  /// packed-slot ranges: each worker scans the batch and accumulates only
  /// the non-zeros whose slot falls in its range, so the scatter is
  /// race-free and bit-identical to serial.
  void accumulate_spmm_t(const CsrMatrix& x, const tensor::Matrix& d,
                         const kernels::Context& ctx);

  /// w[row] = keep * w[row] - lr * g[row] for every touched row.
  /// `keep` is the decoupled weight-decay factor (1.0 = no decay).
  void apply_to(tensor::Matrix& w, float lr, float keep,
                const kernels::Context& ctx) const;

  /// alpha-scaled accumulation of another gradient with the SAME key
  /// (asserted): values += alpha * other.values. Used by gradient averaging.
  void add_scaled(const SparseGradient& other, float alpha);

  /// Scatters into a dense logical_rows x cols matrix (test/debug helper —
  /// this is exactly the dense buffer the hot path no longer materializes).
  void to_dense(tensor::Matrix& out) const;

 private:
  std::size_t logical_rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::uint32_t> rows_;      // sorted touched logical row ids
  std::vector<float> values_;            // packed num_rows x cols
  std::vector<std::uint32_t> slot_map_;  // logical row -> slot or kNoSlot
  std::vector<std::uint32_t> scratch_;   // touched-column buffer (reused)
  std::vector<std::uint64_t> column_bits_;  // one bit per column; all zero
                                            // between reset() calls
};

}  // namespace hetero::sparse
