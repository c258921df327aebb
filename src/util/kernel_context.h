// Execution context for the CPU compute kernels.
//
// A kernels::Context carries an optional util::ThreadPool plus the worker
// count a kernel may use. Every parallel kernel partitions its OUTPUT rows
// into contiguous ranges (one per worker), so no two workers ever write the
// same cache line and — because each output row is still accumulated in the
// same serial order — threaded results are bit-identical to the serial
// reference. Kernels fall back to the serial path when the estimated work is
// below `serial_grain` (threading overhead would dominate) or when no pool
// is attached.
//
// The context is deliberately a dumb aggregate: trainers own the pool (one
// per runtime, shared by all virtual-GPU managers; ThreadPool::fork_join is
// thread-safe) and hand out `Context{pool, threads}` per replica workspace,
// which is how worker counts are configured per virtual GPU.
#pragma once

#include <cstddef>

#include "util/thread_pool.h"

namespace hetero::kernels {

struct Context {
  util::ThreadPool* pool = nullptr;
  std::size_t num_threads = 1;
  /// Minimum work (≈ flops) before a kernel goes parallel; below this the
  /// fork/join overhead (~µs) exceeds the compute saved.
  std::size_t serial_grain = 64 * 1024;

  /// Serial context (the default for code that never set one up).
  static Context serial() { return Context{}; }

  bool parallel_enabled() const { return pool != nullptr && num_threads > 1; }

  /// True when a kernel with `total_work` work units should use the pool.
  bool should_parallelize(std::size_t total_work) const {
    return parallel_enabled() && total_work >= serial_grain;
  }

  /// Number of workers a kernel over `n` partitionable items may use.
  std::size_t workers_for(std::size_t n) const {
    if (!parallel_enabled()) return 1;
    std::size_t w = num_threads;
    if (pool->size() < w) w = pool->size();
    if (n < w) w = n;
    return w == 0 ? 1 : w;
  }
};

/// Runs fn(begin, end) over a contiguous partition of [0, n), using the
/// context's pool when `total_work` clears the serial-fallback threshold.
/// fn must be race-free across disjoint ranges (the kernels achieve this by
/// always partitioning output rows). Range w is [n·w/W, n·(w+1)/W) for W
/// workers wherever it runs: the caller runs range 0 and the pool's idle
/// workers the rest (ThreadPool::fork_join), or the caller runs them all in
/// order when the pool is already held by another fork. Blocks until every
/// range completes, then rethrows the first exception any range threw.
template <typename Fn>
void parallel_for_ranges(const Context& ctx, std::size_t n,
                         std::size_t total_work, Fn&& fn) {
  if (n == 0) return;
  const std::size_t workers =
      ctx.should_parallelize(total_work) ? ctx.workers_for(n) : 1;
  if (workers <= 1) {
    fn(std::size_t{0}, n);
    return;
  }
  ctx.pool->fork_join(workers, [&](std::size_t w) {
    fn(n * w / workers, n * (w + 1) / workers);
  });
}

}  // namespace hetero::kernels
