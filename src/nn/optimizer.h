// Optimizer abstraction: the update rule applied to a model's parameters
// from the gradients staged in its workspace, with per-replica state
// matrices shaped by Model::segment_views().
//
// Four algorithms (DESIGN.md §11):
//   sgd     — delegates to Model::apply_gradients, the fused path that is
//             bit-identical to the pre-refactor sgd_step. No state.
//   adam    — per-coordinate first/second moments with bias correction and
//             coupled L2 (weight decay folded into the gradient).
//   adamw   — Adam with DECOUPLED weight decay: the parameter is shrunk by
//             (1 - lr*wd) multiplicatively, the gradient stays undecayed.
//   adagrad — per-coordinate squared-gradient accumulator, coupled L2.
//
// Lazy touched-row state for segment 0 (SparseAdam semantics): the sparse
// input layer's moments advance ONLY for the rows present in the step's
// SparseGradient, so the fast path stays O(touched) like the SGD update.
// Each row carries its own step counter t_r, incremented when the row is
// touched; bias corrections 1/(1 - beta^t_r) are computed from it, so a row
// skipped for K steps and then revisited behaves exactly like dense Adam
// run on its touched subsequence — the catch-up is exact, not approximate.
// Dense-tail segments (biases, upper layers) advance every step with one
// shared counter.
//
// Lazy weight-decay contract (all optimizers): segment 0 decays only
// batch-touched rows — an untouched row is neither updated nor decayed, on
// any optimizer. The semantics per algorithm:
//   sgd/adagrad — coupled L2. sgd keeps the historical multiplicative form
//     w = (1 - lr*wd)*w - lr*g, which is algebraically w - lr*(g + wd*w)
//     folded into one keep factor (and is what pre-refactor sgd_step
//     computed, preserving bit-identity); adagrad folds wd*w into the
//     gradient BEFORE the accumulator so the decay sees adaptive scaling.
//   adamw — decoupled: w = (1 - lr*wd)*w - lr*adam_update(g); the decay
//     never enters the moments.
//   adam — coupled like adagrad: g' = g + wd*w feeds both moments.
//
// All update arithmetic goes through VecKernels (adam_update /
// adagrad_update / the SGD kernels), so scalar/AVX2/AVX-512 produce
// bit-identical parameters, and the segment-0 loop partitions touched rows
// via kernels::parallel_for_ranges — bit-identical at any thread count.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "nn/model.h"

namespace hetero::nn {

enum class OptimizerKind : std::uint8_t {
  kSgd = 0,
  kAdam = 1,
  kAdamW = 2,
  kAdagrad = 3,
};

/// Display / flag / checkpoint name: "sgd", "adam", "adamw", "adagrad".
std::string to_string(OptimizerKind kind);

/// Parses a flag value; nullopt on anything but the four names.
std::optional<OptimizerKind> parse_optimizer_kind(const std::string& text);

/// Parses a checkpoint byte; nullopt when out of range (untrusted input).
std::optional<OptimizerKind> optimizer_kind_from_byte(std::uint8_t b);

struct OptimizerConfig {
  OptimizerKind kind = OptimizerKind::kSgd;
  double beta1 = 0.9;    // adam/adamw first-moment decay
  double beta2 = 0.999;  // adam/adamw second-moment decay
  double eps = 1e-8;     // adam/adamw denominator floor
  double adagrad_eps = 1e-10;
};

/// One replica's update rule + state. Created per replica (and once for the
/// global model of the gradient-aggregating trainers) via make(); state is
/// shaped by the model passed at construction and applies only to models of
/// that architecture.
class Optimizer {
 public:
  virtual ~Optimizer() = default;

  virtual OptimizerKind kind() const = 0;

  /// Applies the gradients staged in `ws` to `model` and advances the
  /// state. `model` must match the constructing architecture. Segment 0 is
  /// updated lazily over ws.grad_w1's touched rows.
  virtual void apply(Model& model, const ModelWorkspace& ws, float lr,
                     float weight_decay) = 0;

  /// Number of state matrices: 0 (sgd), 1 (adagrad: accumulator), 2
  /// (adam/adamw: first moment then second moment).
  virtual std::size_t num_slots() const = 0;

  /// Per-segment views of state slot `slot` (< num_slots()), aligned with
  /// Model::segment_views() — the moment-merge and checkpoint paths walk
  /// these exactly like parameter segments.
  virtual std::vector<std::span<float>> slot_views(std::size_t slot) = 0;

  /// Per-row lazy step counters for segment 0 (adam/adamw only; empty
  /// otherwise). Length info().input_rows().
  virtual std::span<std::uint32_t> row_steps() = 0;

  /// Dense-tail step counter (steps applied since construction/reset).
  virtual std::uint64_t step() const = 0;
  virtual void set_step(std::uint64_t step) = 0;

  /// Zeroes all state (moments, accumulators, row counters, step). Used
  /// when a replica crashes or (re)joins, and when a checkpoint without
  /// optimizer state restores into this runtime.
  virtual void reset_state() = 0;

  /// Factory. The model defines the state shapes; it is not retained.
  static std::unique_ptr<Optimizer> make(const OptimizerConfig& cfg,
                                         Model& model);
};

}  // namespace hetero::nn
