#include "core/merging.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "tensor/vec/vec.h"

namespace hetero::core {

std::string to_string(MomentMerge policy) {
  switch (policy) {
    case MomentMerge::kAverage:
      return "average";
    case MomentMerge::kKeep:
      return "keep";
    case MomentMerge::kReset:
      return "reset";
  }
  return "average";
}

std::optional<MomentMerge> parse_moment_merge(const std::string& text) {
  if (text == "average") return MomentMerge::kAverage;
  if (text == "keep") return MomentMerge::kKeep;
  if (text == "reset") return MomentMerge::kReset;
  return std::nullopt;
}

MergeWeights compute_merge_weights(const MergeInputs& inputs) {
  const std::size_t n = inputs.updates.size();
  assert(inputs.batch_sizes.size() == n);
  MergeWeights out;
  out.alpha.resize(n, 0.0);
  if (n == 0) return out;

  const bool equal_updates =
      std::all_of(inputs.updates.begin(), inputs.updates.end(),
                  [&](std::size_t u) { return u == inputs.updates[0]; });

  // Pick the raw (unnormalized) score per replica.
  const auto score = [&](std::size_t i) -> double {
    switch (inputs.normalization) {
      case MergeNormalization::kAuto:
        // Algorithm 2 lines 2-3: batch size on equal updates, else updates.
        return equal_updates
                   ? static_cast<double>(inputs.batch_sizes[i])
                   : static_cast<double>(inputs.updates[i]);
      case MergeNormalization::kUpdates:
        return static_cast<double>(inputs.updates[i]);
      case MergeNormalization::kBatchSize:
        return static_cast<double>(inputs.batch_sizes[i]);
      case MergeNormalization::kUpdatesTimesBatch:
        return static_cast<double>(inputs.updates[i]) *
               static_cast<double>(inputs.batch_sizes[i]);
    }
    return 0.0;
  };
  out.by_updates = inputs.normalization == MergeNormalization::kUpdates ||
                   (inputs.normalization == MergeNormalization::kAuto &&
                    !equal_updates);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) total += score(i);
  for (std::size_t i = 0; i < n; ++i) out.alpha[i] = score(i) / total;

  // Perturbation (lines 4-7): only when every replica is well-regularized,
  // so denormalized weights cannot amplify skewed parameters.
  if (inputs.enable_perturbation && n > 1) {
    assert(inputs.all_regularized || inputs.l2_per_param.size() == n);
    const bool all_regularized =
        inputs.all_regularized
            ? *inputs.all_regularized
            : std::all_of(inputs.l2_per_param.begin(),
                          inputs.l2_per_param.end(),
                          [&](double v) { return v < inputs.pert_threshold; });
    if (all_regularized) {
      std::size_t r = 0, s = 0;
      for (std::size_t i = 1; i < n; ++i) {
        if (inputs.updates[i] > inputs.updates[r]) r = i;
        if (inputs.updates[i] < inputs.updates[s]) s = i;
      }
      out.alpha[r] *= 1.0 + inputs.pert_delta;
      out.alpha[s] *= 1.0 - inputs.pert_delta;
      out.perturbed = true;
    }
  }
  return out;
}

namespace {

// Sums chunk(c) for c in [0, kL2GateChunks) on `ctx`, each chunk on one
// worker, and adds the chunk sums in chunk order.
template <typename Chunk>
double sum_l2_chunks(const kernels::Context& ctx, std::size_t work,
                     Chunk&& chunk) {
  double part[kL2GateChunks] = {};
  kernels::parallel_for_ranges(ctx, kL2GateChunks, work,
                               [&](std::size_t c0, std::size_t c1) {
                                 for (std::size_t c = c0; c < c1; ++c) {
                                   part[c] = chunk(c);
                                 }
                               });
  double ss = 0.0;
  for (const double p : part) ss += p;
  return ss;
}

}  // namespace

double l2_per_parameter(std::span<const std::span<const float>> segments,
                        const kernels::Context& ctx) {
  assert(!segments.empty());
  const auto& vk = vec::kernels();
  const std::span<const float> w1 = segments[0];
  double ss = sum_l2_chunks(ctx, w1.size(), [&](std::size_t c) {
    const std::size_t b = w1.size() * c / kL2GateChunks;
    const std::size_t e = w1.size() * (c + 1) / kL2GateChunks;
    return vk.sum_squares(w1.data() + b, e - b);
  });
  std::size_t params = w1.size();
  for (std::size_t s = 1; s < segments.size(); ++s) {
    ss += vk.sum_squares(segments[s].data(), segments[s].size());
    params += segments[s].size();
  }
  return std::sqrt(ss) / static_cast<double>(params);
}

L2Gate certify_l2_below(std::span<const std::span<const float>> replica,
                        std::span<const std::span<const float>> global,
                        std::span<const std::uint32_t> touched_rows,
                        std::size_t cols, double global_l2, double threshold,
                        const kernels::Context& ctx) {
  assert(replica.size() == global.size());
  std::size_t params = 0;
  for (const auto seg : global) params += seg.size();
  if (params == 0 || params >= kL2GateMaxParameters) return L2Gate::kUndecided;
  const auto& vk = vec::kernels();
  const std::size_t n = touched_rows.size();
  double ss = sum_l2_chunks(ctx, n * cols, [&](std::size_t c) {
    // Touched rows are scattered over W1, so each row is a cache (and often
    // TLB) miss; prefetching a few rows ahead overlaps those misses.
    constexpr std::size_t kAhead = 16;
    constexpr std::size_t kLine = 64 / sizeof(float);
    const std::size_t end = n * (c + 1) / kL2GateChunks;
    double chunk = 0.0;
    for (std::size_t i = n * c / kL2GateChunks; i < end; ++i) {
      if (i + kAhead < end) {
        const std::size_t next =
            static_cast<std::size_t>(touched_rows[i + kAhead]) * cols;
        for (std::size_t k = 0; k < cols; k += kLine) {
          __builtin_prefetch(replica[0].data() + next + k);
          __builtin_prefetch(global[0].data() + next + k);
        }
      }
      const std::size_t off = static_cast<std::size_t>(touched_rows[i]) * cols;
      assert(off + cols <= global[0].size());
      chunk += vk.squared_distance(replica[0].data() + off,
                                   global[0].data() + off, cols);
    }
    return chunk;
  });
  for (std::size_t s = 1; s < global.size(); ++s) {
    assert(replica[s].size() == global[s].size());
    ss += vk.squared_distance(replica[s].data(), global[s].data(),
                              global[s].size());
  }
  const double dist = std::sqrt(ss) / static_cast<double>(params);
  // The slack widens each term on its own, so the lower bound stays valid
  // even when D is close to G.
  if ((global_l2 + dist) * (1.0 + kL2GateSlack) < threshold) {
    return L2Gate::kBelow;
  }
  if (global_l2 * (1.0 - kL2GateSlack) - dist * (1.0 + kL2GateSlack) >=
      threshold) {
    return L2Gate::kNotBelow;
  }
  return L2Gate::kUndecided;
}

void momentum_global_update(std::span<const float> merged,
                            std::span<float> global,
                            std::span<float> previous_global, double gamma) {
  assert(merged.size() == global.size());
  assert(global.size() == previous_global.size());
  vec::kernels().momentum_update(merged.data(), global.data(),
                                 previous_global.data(),
                                 static_cast<float>(gamma), merged.size());
}

namespace {

// Stack accumulator block: the merged value never touches memory outside
// this block, which is what removes the model-sized double buffer (and its
// traffic) from the merge path.
constexpr std::size_t kMergeBlock = 512;

// Fused reduce + update of elements [off, off+len) of one segment, where
// source(i)[j] is x_i[j] for the weighted sum over the u.weights.size()
// replicas. The vec merge kernels are element-wise in double, so the block
// stays bit-identical to the element-at-a-time reference on every ISA; the
// momentum finalize mirrors momentum_global_update exactly (same float
// expression, same order) — keep the two in sync or the determinism
// contract breaks. Every source is read before global is written, so a
// source may alias global.
template <typename Source>
inline void merge_block(const Source& source, std::size_t off,
                        std::size_t len, const MergeUpdate& u, float* global,
                        float* prev, const vec::VecKernels& vk) {
  double acc[kMergeBlock];
  vk.merge_init(acc, source(0) + off, u.weights[0], len);
  for (std::size_t i = 1; i < u.weights.size(); ++i) {
    vk.merge_accum(acc, source(i) + off, u.weights[i], len);
  }
  float* g = global + off;
  float* p = prev + off;
  if (u.momentum) {
    vk.merge_finalize_momentum(acc, g, p, static_cast<float>(u.gamma), len);
  } else {
    vk.merge_finalize_plain(acc, g, p, len);
  }
}

// Quantized-source variant of merge_block: the accumulator starts at
// wsum * global (the untouched-mass term of the delta reconstruction) and
// each replica contributes w_i * dequant(code). Block == scale group on the
// dense path; on the touched-row path `group` stays the union-row index
// across a row's blocks.
static_assert(kQuantGroupCols == kMergeBlock,
              "quantized scale groups must cover whole merge blocks");

inline void merge_block_quantized(const QuantizedSources& src,
                                  std::size_t code_off, std::size_t group,
                                  std::size_t out_off, std::size_t len,
                                  double wsum, const MergeUpdate& u,
                                  float* global, float* prev,
                                  const vec::VecKernels& vk) {
  double acc[kMergeBlock];
  vk.merge_init(acc, global + out_off, wsum, len);
  if (src.precision == comm::MergePrecision::kInt8) {
    for (std::size_t i = 0; i < src.i8.size(); ++i) {
      vk.merge_accum_i8(acc, src.i8[i] + code_off, u.weights[i],
                        src.scales[i][group], len);
    }
  } else {
    for (std::size_t i = 0; i < src.fp16.size(); ++i) {
      vk.merge_accum_fp16(acc, src.fp16[i] + code_off, u.weights[i],
                          src.dequant_scale, len);
    }
  }
  float* g = global + out_off;
  float* p = prev + out_off;
  if (u.momentum) {
    vk.merge_finalize_momentum(acc, g, p, static_cast<float>(u.gamma), len);
  } else {
    vk.merge_finalize_plain(acc, g, p, len);
  }
}

inline void merge_range(std::span<const float* const> sources,
                        const MergeUpdate& u, float* global, float* prev,
                        std::size_t begin, std::size_t end,
                        const vec::VecKernels& vk) {
  const auto source = [&](std::size_t i) { return sources[i]; };
  for (std::size_t o = begin; o < end; o += kMergeBlock) {
    merge_block(source, o, std::min(kMergeBlock, end - o), u, global, prev,
                vk);
  }
}

}  // namespace

void merge_segment(std::span<const float* const> replicas, std::size_t len,
                   const MergeUpdate& u, std::span<float> global,
                   std::span<float> prev, std::size_t min_shards,
                   const kernels::Context& ctx) {
  assert(replicas.size() == u.weights.size());
  assert(global.size() == len);
  assert(prev.size() == len);
  if (len == 0) return;
  const std::size_t work = len * replicas.size();
  std::size_t shards = std::max<std::size_t>(1, min_shards);
  if (ctx.should_parallelize(work)) {
    shards = std::max(shards, ctx.workers_for(len));
  }
  shards = std::min(shards, len);
  const auto& vk = vec::kernels();
  kernels::parallel_for_ranges(
      ctx, shards, work, [&](std::size_t s0, std::size_t s1) {
        for (std::size_t s = s0; s < s1; ++s) {
          merge_range(replicas, u, global.data(), prev.data(),
                      len * s / shards, len * (s + 1) / shards, vk);
        }
      });
}

void merge_segment_quantized(const QuantizedSources& src, std::size_t len,
                             double wsum, const MergeUpdate& u,
                             std::span<float> global, std::span<float> prev,
                             std::size_t min_shards,
                             const kernels::Context& ctx) {
  assert(src.num_replicas() == u.weights.size());
  assert(global.size() == len);
  assert(prev.size() == len);
  if (len == 0) return;
  const std::size_t num_groups =
      (len + kQuantGroupCols - 1) / kQuantGroupCols;
  const std::size_t work = len * u.weights.size();
  // Shards split on group boundaries so every block sees one scale; group
  // scales are fixed by element index, so the per-element math (and the
  // result) is independent of the shard count.
  std::size_t shards = std::max<std::size_t>(1, min_shards);
  if (ctx.should_parallelize(work)) {
    shards = std::max(shards, ctx.workers_for(len));
  }
  shards = std::min(shards, num_groups);
  const auto& vk = vec::kernels();
  kernels::parallel_for_ranges(
      ctx, shards, work, [&](std::size_t s0, std::size_t s1) {
        for (std::size_t s = s0; s < s1; ++s) {
          const std::size_t g0 = num_groups * s / shards;
          const std::size_t g1 = num_groups * (s + 1) / shards;
          for (std::size_t g = g0; g < g1; ++g) {
            const std::size_t off = g * kQuantGroupCols;
            merge_block_quantized(src, off, g, off,
                                  std::min(kQuantGroupCols, len - off), wsum,
                                  u, global.data(), prev.data(), vk);
          }
        }
      });
}

void merge_touched_rows_quantized(const QuantizedSources& src,
                                  std::span<const std::uint32_t> rows,
                                  std::size_t cols, double wsum,
                                  const MergeUpdate& u, float* global,
                                  float* prev, const kernels::Context& ctx) {
  assert(src.num_replicas() == u.weights.size());
  if (rows.empty() || cols == 0) return;
  const std::size_t work = rows.size() * cols * u.weights.size();
  const auto& vk = vec::kernels();
  kernels::parallel_for_ranges(
      ctx, rows.size(), work, [&](std::size_t r0, std::size_t r1) {
        for (std::size_t r = r0; r < r1; ++r) {
          const std::size_t out_base =
              static_cast<std::size_t>(rows[r]) * cols;
          const std::size_t code_base = r * cols;
          for (std::size_t o = 0; o < cols; o += kMergeBlock) {
            merge_block_quantized(src, code_base + o, /*group=*/r,
                                  out_base + o, std::min(kMergeBlock, cols - o),
                                  wsum, u, global, prev, vk);
          }
        }
      });
}

void merge_touched_rows(std::span<const float* const> replicas,
                        std::span<const std::uint32_t> rows, std::size_t cols,
                        const MergeUpdate& u, float* global, float* prev,
                        const kernels::Context& ctx,
                        std::span<const sparse::RowSet* const> valid) {
  assert(replicas.size() == u.weights.size());
  assert(valid.empty() || valid.size() == replicas.size());
  if (rows.empty() || cols == 0) return;
  const std::size_t work = rows.size() * cols * replicas.size();
  const auto& vk = vec::kernels();
  kernels::parallel_for_ranges(
      ctx, rows.size(), work, [&](std::size_t r0, std::size_t r1) {
        for (std::size_t r = r0; r < r1; ++r) {
          // A stale replica row is read from global, its value.
          const auto source = [&](std::size_t i) {
            return valid.empty() || valid[i]->contains(rows[r]) ? replicas[i]
                                                                : global;
          };
          const std::size_t base = static_cast<std::size_t>(rows[r]) * cols;
          for (std::size_t o = 0; o < cols; o += kMergeBlock) {
            merge_block(source, base + o, std::min(kMergeBlock, cols - o), u,
                        global, prev, vk);
          }
        }
      });
}

void merge_untouched_rows(const sparse::RowSet& touched, std::size_t num_rows,
                          std::size_t cols, const MergeUpdate& u,
                          std::span<float> global, std::span<float> prev,
                          const kernels::Context& ctx) {
  assert(global.size() == num_rows * cols);
  assert(prev.size() == global.size());
  if (num_rows == 0 || cols == 0) return;
  const std::size_t n = u.weights.size();
  // Every "replica" source aliases the global base: untouched rows read as
  // global since the last merge, so feeding global through the same
  // merge_block reproduces the dense kernel's n-term sum without touching
  // any replica memory. merge_block reads the whole block into the
  // accumulator before the finalize loop writes it, so the alias is safe.
  const auto source = [&](std::size_t) -> const float* {
    return global.data();
  };
  const std::size_t untouched =
      num_rows - std::min(num_rows, touched.size());
  const std::size_t work = untouched * cols * n;
  const auto& vk = vec::kernels();
  kernels::parallel_for_ranges(
      ctx, num_rows, work, [&](std::size_t r0, std::size_t r1) {
        for (std::size_t r = r0; r < r1; ++r) {
          if (touched.contains(static_cast<std::uint32_t>(r))) continue;
          const std::size_t base = r * cols;
          for (std::size_t o = 0; o < cols; o += kMergeBlock) {
            merge_block(source, base + o, std::min(kMergeBlock, cols - o), u,
                        global.data(), prev.data(), vk);
          }
        }
      });
}

std::vector<double> expand_alive_weights(
    std::span<const double> alive_weights,
    std::span<const std::size_t> alive_indices, std::size_t num_replicas) {
  assert(alive_weights.size() == alive_indices.size());
  std::vector<double> full(num_replicas, 0.0);
  for (std::size_t i = 0; i < alive_indices.size(); ++i) {
    assert(alive_indices[i] < num_replicas);
    full[alive_indices[i]] = alive_weights[i];
  }
  return full;
}

}  // namespace hetero::core
