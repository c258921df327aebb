// Algorithm 2: Normalized Model Merging.
//
// Computes per-replica merge weights at a mega-batch boundary:
//   - if every GPU performed the same number of updates, weights are
//     normalized by batch size (larger batches -> more accurate gradients),
//   - otherwise by the number of updates (prioritize fresher replicas).
// If all replicas are well-regularized (L2 norm per parameter below
// pert_thr), the most-updated replica's weight is perturbed up by (1+delta)
// and the least-updated down by (1-delta) — deliberately denormalizing the
// weights to push the merged model toward the freshest replica.
//
// The merged model then follows the momentum update rule:
//   w' = sum_i alpha_i w_i + gamma (w - w_prev);  w_prev <- w;  w <- w'.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "comm/quant.h"
#include "sparse/sparse_gradient.h"
#include "util/kernel_context.h"

namespace hetero::core {

/// How the replica weights are normalized (Algorithm 2 lines 1-3 and the
/// Section III-B discussion).
enum class MergeNormalization {
  /// The paper's default: by batch size when update counts are equal,
  /// otherwise by update count.
  kAuto,
  /// Always by update count.
  kUpdates,
  /// Always by batch size.
  kBatchSize,
  /// "An alternative for later stages is to normalize based on the product
  /// between the number of updates and the batch size" — i.e. by the number
  /// of samples each replica consumed.
  kUpdatesTimesBatch,
};

/// What happens to per-replica optimizer state (Adam/AdamW moments, Adagrad
/// accumulators, lazy row counters) at a merge boundary (DESIGN.md §11).
/// Replica WEIGHTS are always merged by Algorithm 2; this policy only
/// governs the optimizer state living beside them.
enum class MomentMerge {
  /// Algorithm-2-weighted average of the state across alive replicas,
  /// written back to every alive replica: touched-row union for segment 0
  /// under sparse_merge (untouched rows keep local state), full segments
  /// otherwise. Lazy row counters take the max across alive replicas.
  /// Ships num_slots extra model-sized fp32 payloads per merge.
  kAverage,
  /// Each replica keeps its local state across the merge. Free.
  kKeep,
  /// Zero all state at every merge boundary (fresh-start ablation). Free.
  kReset,
};

/// Flag / display name: "average", "keep", "reset".
std::string to_string(MomentMerge policy);

/// Parses a flag value; nullopt on anything but the three names.
std::optional<MomentMerge> parse_moment_merge(const std::string& text);

struct MergeInputs {
  std::vector<std::size_t> updates;      // u_i per GPU
  std::vector<std::size_t> batch_sizes;  // b_i per GPU
  std::vector<double> l2_per_param;      // ||w_i||_2 / |w| per GPU
  // The perturbation gate's answer (every ||w_i||_2 / |w| < pert_threshold)
  // when the caller decided it without the exact norms, as
  // MultiGpuRuntime::replicas_l2_below does; l2_per_param is then not read.
  // The gate is read only with perturbation enabled and n > 1.
  std::optional<bool> all_regularized;
  double pert_threshold = 0.1;
  double pert_delta = 0.1;
  bool enable_perturbation = true;
  MergeNormalization normalization = MergeNormalization::kAuto;
};

struct MergeWeights {
  std::vector<double> alpha;
  bool perturbed = false;
  bool by_updates = false;  // true when normalized by update counts
};

/// Lines 1-7 of Algorithm 2: normalization + perturbation.
MergeWeights compute_merge_weights(const MergeInputs& inputs);

// ---- Certified perturbation gate (DESIGN.md §5c) -------------------------
//
// Algorithm 2 reads the replica L2 norms only to test
// `l2_norm_per_parameter() < pert_threshold`. A replica w that equals the
// global model g outside a known set of W1 rows is bounded by the triangle
// inequality: with G = ||g|| / P and D = ||w - g|| / P,
//   G - D <= ||w|| / P <= G + D,
// and w - g vanishes outside those rows, so D reads only the rows plus the
// dense tail instead of the whole replica.

/// What the bound knows about `l2_norm_per_parameter() < threshold`.
enum class L2Gate { kBelow, kNotBelow, kUndecided };

/// Relative slack applied to each side of the bound. It covers the rounding
/// of the three double sums involved (the exact norm, G and D), each within
/// P * 2^-53 relative in any summation order for P < kL2GateMaxParameters,
/// so a decided answer always equals the exact test. Larger models always
/// answer kUndecided.
inline constexpr double kL2GateSlack = 1e-6;
inline constexpr std::size_t kL2GateMaxParameters = std::size_t{1} << 32;

/// G and D sum segment 0 in this many fixed chunks, spread over the kernel
/// pool and added in chunk order: the same bits at every thread count.
inline constexpr std::size_t kL2GateChunks = 16;

/// G = ||g||_2 / P of a model given as its segment_views(): segment 0 in
/// kL2GateChunks chunks on `ctx`, then the later segments.
double l2_per_parameter(std::span<const std::span<const float>> segments,
                        const kernels::Context& ctx);

/// Certified form of `replica.l2_norm_per_parameter() < threshold` for a
/// replica that equals `global` outside `touched_rows` of segment 0 (row-major,
/// `cols` floats per row); the later segments are compared in full.
/// `replica` and `global` are the two models' segment_views() and
/// `global_l2` is G (l2_per_parameter of global). D sums the touched rows
/// in kL2GateChunks chunks on `ctx`. kUndecided (the answer whenever the
/// bound straddles the threshold, or a norm is NaN) leaves the exact sweep
/// to the caller.
L2Gate certify_l2_below(std::span<const std::span<const float>> replica,
                        std::span<const std::span<const float>> global,
                        std::span<const std::uint32_t> touched_rows,
                        std::size_t cols, double global_l2, double threshold,
                        const kernels::Context& ctx = {});

/// Elastic membership (fault subsystem): expands weights computed by
/// compute_merge_weights over the alive subset into a full per-replica
/// vector — survivors keep their Algorithm-2 weight (already normalized
/// over the survivor inputs), dead replicas get exactly 0 and are excluded
/// from the merge accumulation. `alive_indices` lists the replica index of
/// each survivor weight, ascending.
std::vector<double> expand_alive_weights(
    std::span<const double> alive_weights,
    std::span<const std::size_t> alive_indices, std::size_t num_replicas);

/// Lines 8-9: momentum update of the global model, given the already
/// weighted-averaged replica combination `merged` (from the all-reduce).
///   w' = merged + gamma * (w - w_prev)
/// `global` and `previous_global` are updated in place.
void momentum_global_update(std::span<const float> merged,
                            std::span<float> global,
                            std::span<float> previous_global, double gamma);

// ---- Fused merge + momentum kernels (the runtime merge path) -------------
//
// These kernels fuse the all-reduce reduction with Algorithm 2 lines 8-9:
// the weighted average sum_i w_i x_i is accumulated in double precision
// (replica 0 initializes the accumulator, remaining replicas added in index
// order) and the momentum update is applied to the global/previous-global
// models in the same pass. The merged value only ever lives in a stack
// block — no model-sized accumulator, no staging flats, and no replica
// writes (the runtime hands the new model back to the replicas after the
// merge).
//
// Determinism contract: every kernel evaluates the bit-exact same
// per-element expression in the same order —
//   merged = float(w_0 x_0[j] + w_1 x_1[j] + ... + w_{n-1} x_{n-1}[j])
//   momentum:  w = global[j]; global[j] = merged + gamma (w - prev[j]);
//              prev[j] = w
//   otherwise: prev[j] = global[j]; global[j] = merged
// Sharding/threading partitions the element space without reordering any
// per-element sum, so results are bit-identical at every shard and thread
// count; and because untouched rows hold x_i[j] bit-equal to global[j],
// the touched + untouched delta pair is bit-identical to the dense kernel.

struct MergeUpdate {
  std::span<const double> weights;  // alpha_i — NOT renormalized (Σ may ≠ 1)
  double gamma = 0.0;               // momentum factor
  bool momentum = true;             // false: plain assignment update
};

/// Fused dense merge of one parameter segment. Each replica pointer refers
/// to `len` floats; `global` and `prev` are the matching global-model and
/// previous-global segments. The segment is split into at least
/// `min_shards` shards (mirroring the paper's multi-stream partitions; the
/// runtime passes the all-reduce stream count) and sharded across `ctx`.
void merge_segment(std::span<const float* const> replicas, std::size_t len,
                   const MergeUpdate& u, std::span<float> global,
                   std::span<float> prev, std::size_t min_shards,
                   const kernels::Context& ctx);

/// Fused merge restricted to `rows` of a row-major (num_rows x cols)
/// segment: the delta path's reduced set. `rows` must be deduplicated
/// (sorted recommended for locality); replicas/global/prev point at the full
/// segment base. When `valid` is given (one set per replica), replica i's
/// row r is read only if valid[i] contains r; otherwise the replica holds
/// it stale and global's row — its value — is the source. An empty `valid`
/// reads every replica row.
void merge_touched_rows(std::span<const float* const> replicas,
                        std::span<const std::uint32_t> rows, std::size_t cols,
                        const MergeUpdate& u, float* global, float* prev,
                        const kernels::Context& ctx,
                        std::span<const sparse::RowSet* const> valid = {});

// ---- Quantized merge (compressed payloads, DESIGN.md §10) ----------------
//
// When cfg.merge_precision != fp32 the runtime ships per-replica *deltas*
// d_i = replica_i - global (with the error-feedback residual folded in)
// quantized to fp16 or int8, and the fused merge reconstructs
//   merged = (sum_i w_i) * global[j] + sum_i w_i * dequant(q_i[j])
// in double precision — global initializes the accumulator once with the
// summed weight, then each replica's dequantized code is added in index
// order. dequant(q) is always the single-rounded float code*scale, so the
// per-element expression (and therefore the merged model) is bit-identical
// on every ISA and at every shard/thread count, exactly like the fp32
// kernels above. fp16/int8 results intentionally differ from fp32 — the
// fp32 path never goes through these functions and stays the bit-exact
// oracle.

/// Scale-group width of the quantized dense path: int8 payloads carry one
/// fp32 scale per kQuantGroupCols-element block (W1 rows group by row in
/// sparse mode instead). Equal to the merge accumulator block so each merge
/// block sees exactly one scale.
inline constexpr std::size_t kQuantGroupCols = 512;

/// Per-replica quantized delta codes for one contiguous code region.
/// Exactly one of fp16/i8 is non-empty, matching `precision` (never
/// kFp32). For int8, scales[i] points at replica i's per-group fp32
/// scales for the same region; for fp16, dequant_scale is the shared
/// 1/loss_scale multiplier.
struct QuantizedSources {
  comm::MergePrecision precision = comm::MergePrecision::kFp16;
  std::span<const std::uint16_t* const> fp16;
  std::span<const std::int8_t* const> i8;
  std::span<const float* const> scales;
  float dequant_scale = 1.0f;

  std::size_t num_replicas() const {
    return precision == comm::MergePrecision::kInt8 ? i8.size() : fp16.size();
  }
};

/// Quantized counterpart of merge_segment: fuses
///   merged = wsum * global[j] + sum_i w_i * dequant(codes_i[j])
/// with the momentum/plain finalize. Codes and scales are segment-local
/// (code j maps to segment element j; scale group g covers elements
/// [g*kQuantGroupCols, ...)). Sharding splits on group boundaries, so any
/// shard/thread count is bit-identical.
void merge_segment_quantized(const QuantizedSources& src, std::size_t len,
                             double wsum, const MergeUpdate& u,
                             std::span<float> global, std::span<float> prev,
                             std::size_t min_shards,
                             const kernels::Context& ctx);

/// Quantized counterpart of merge_touched_rows. Codes are packed in union
/// order (union row u's codes start at u*cols); global/prev point at the
/// full segment base and row u updates rows[u]. For int8, scales[i][u] is
/// replica i's scale for union row u (one group per W1 row).
void merge_touched_rows_quantized(const QuantizedSources& src,
                                  std::span<const std::uint32_t> rows,
                                  std::size_t cols, double wsum,
                                  const MergeUpdate& u, float* global,
                                  float* prev, const kernels::Context& ctx);

/// Closed-form complement of merge_touched_rows: rows NOT in `touched` are
/// bit-identical across replicas (each reads as global since the last
/// merge), so the reduction needs no replica reads — it re-accumulates
/// sum_i w_i global[j] in the same fixed order, which is bit-identical to
/// the dense kernel reading the n equal replica copies.
void merge_untouched_rows(const sparse::RowSet& touched, std::size_t num_rows,
                          std::size_t cols, const MergeUpdate& u,
                          std::span<float> global, std::span<float> prev,
                          const kernels::Context& ctx);

}  // namespace hetero::core
