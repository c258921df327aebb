// Sparse kernels: the two products that dominate XML MLP training.
//
//   forward :  Y = X · W      (X: B x F sparse, W: F x H dense, Y: B x H)
//   backward:  G = Xᵀ · D     (X: B x F sparse, D: B x H dense, G: F x H)
//
// The backward product is implemented as a scatter over the non-zeros of X,
// which is exactly what makes per-batch cost proportional to nnz — the
// sparse-data source of GPU heterogeneity the paper exploits (Section I).
#pragma once

#include <vector>

#include "sparse/csr.h"
#include "tensor/matrix.h"
#include "util/kernel_context.h"

namespace hetero::sparse {

/// Y = X * W. Y is resized to (X.rows, W.cols).
/// The context variant partitions the rows of X into nnz-balanced ranges
/// across the pool (each output row is written by exactly one worker, so the
/// result is bit-identical to serial) with a serial fallback below the
/// context's work grain.
void spmm(const CsrMatrix& x, const tensor::Matrix& w, tensor::Matrix& y);
void spmm(const CsrMatrix& x, const tensor::Matrix& w, tensor::Matrix& y,
          const kernels::Context& ctx);

/// G += Xᵀ * D, where G has shape (X.cols, D.cols). G must be pre-sized;
/// it is NOT zeroed (gradient accumulation). Only rows of G touched by
/// non-zeros of X are updated — the sparse-gradient property.
/// The context variant partitions the OUTPUT (feature) rows: each worker
/// scans the whole batch but only accumulates the non-zeros whose column
/// falls in its range, keeping the scatter race-free and the per-row
/// accumulation order identical to serial.
void spmm_t_accumulate(const CsrMatrix& x, const tensor::Matrix& d,
                       tensor::Matrix& g);
void spmm_t_accumulate(const CsrMatrix& x, const tensor::Matrix& d,
                       tensor::Matrix& g, const kernels::Context& ctx);

/// Sorted, deduplicated column ids with at least one non-zero in `x` — the
/// set of W1 rows a batch touches — by sort+unique. SparseGradient::reset
/// builds the same list from a bitmap on the hot path.
std::vector<std::uint32_t> touched_columns(const CsrMatrix& x);

/// Flop count of spmm (2 * nnz * w_cols). Used by the simulator cost model.
std::size_t spmm_flops(const CsrMatrix& x, std::size_t w_cols);

/// Bytes moved by spmm under a simple streaming model: reads the CSR arrays
/// and the rows of W selected by non-zeros, writes Y.
std::size_t spmm_bytes(const CsrMatrix& x, std::size_t w_cols);

/// Dense row count of the gradient touched by X (number of distinct columns
/// with at least one non-zero). O(nnz log nnz).
std::size_t distinct_columns(const CsrMatrix& x);

/// Explicit transpose: returns Xᵀ as a new CSR matrix (classic two-pass
/// counting transpose, O(nnz + rows + cols)). Used for feature-major
/// analyses (column popularity, co-occurrence) and as the CSC view of X.
CsrMatrix transpose(const CsrMatrix& x);

/// Per-column non-zero counts (feature popularity). Length = x.cols().
std::vector<std::size_t> column_nnz(const CsrMatrix& x);

/// Frobenius norm of the matrix values.
double frobenius_norm(const CsrMatrix& x);

}  // namespace hetero::sparse
