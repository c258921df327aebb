// Configuration for the HeteroGPU trainers.
//
// Defaults follow the paper's methodology (Section V-A):
//   - the initial batch size is b_max (chosen so GPU memory/utilization is
//     maximized),
//   - b_min = b_max / 8,
//   - batch size scaling parameter beta = b_min / 2,
//   - learning rates follow the linear scaling rule from b_max's rate,
//   - a mega-batch is 100 batches of size b_max,
//   - perturbation threshold pert_thr = 0.1, factor delta = 0.1,
//   - momentum gamma = 0.9.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "comm/allreduce.h"
#include "core/merging.h"
#include "nn/optimizer.h"
#include "sim/device.h"

namespace hetero::core {

enum class ExecutionMode {
  kDeterministic,  // discrete-event loop, single thread, bit-reproducible
  kThreaded,       // real GPU-manager threads + event queues (Fig. 3)
};

struct TrainerConfig {
  // --- model -----------------------------------------------------------
  /// Hidden width of the paper's 3-layer model (nn::Model), used when
  /// `hidden_layers` is empty.
  std::size_t hidden = 64;
  /// Hidden widths, one per hidden layer (one or more). Empty = {hidden}.
  std::vector<std::size_t> hidden_layers;

  /// Effective hidden-layer list.
  std::vector<std::size_t> derived_hidden_layers() const {
    return hidden_layers.empty() ? std::vector<std::size_t>{hidden}
                                 : hidden_layers;
  }

  // --- SGD hyperparameters ----------------------------------------------
  /// b_max; also the initial batch size. 0 = derive from simulated GPU
  /// memory ("the initial batch size is chosen such that the GPU memory —
  /// and utilization — are maximized", Section V-A): the largest power of
  /// two whose training state fits on every device, capped at 1024.
  std::size_t batch_max = 128;
  std::size_t batch_min = 0;             // b_min; 0 = b_max / 8
  double beta = 0.0;                     // scaling parameter; 0 = b_min / 2
  double learning_rate = 0.1;            // optimal rate for b_max
  double momentum_gamma = 0.9;           // Algorithm 2 momentum
  double pert_threshold = 0.1;           // pert_thr
  double pert_delta = 0.1;               // perturbation factor

  // --- schedule ----------------------------------------------------------
  std::size_t batches_per_megabatch = 100;  // mega-batch = this * batch_max
  std::size_t num_megabatches = 10;         // experiment length
  double virtual_time_budget = 0.0;         // seconds; 0 = unlimited

  /// Early stopping ("SGD can be stopped ... when there is no significant
  /// drop in the error", Section II): stop when top-1 accuracy has not
  /// improved by at least `early_stop_delta` for `early_stop_patience`
  /// consecutive mega-batches. patience 0 disables.
  std::size_t early_stop_patience = 0;
  double early_stop_delta = 0.0;

  // --- feature toggles (for ablations) ------------------------------------
  bool enable_batch_scaling = true;     // Algorithm 1 on/off
  bool enable_perturbation = true;      // Algorithm 2 perturbation on/off
  bool enable_momentum = true;          // Algorithm 2 momentum on/off
  bool dynamic_scheduling = true;       // false = static round-robin batches
  bool fused_kernels = true;            // Section IV kernel fusion

  /// Merge-weight normalization rule (Algorithm 2 / Section III-B
  /// alternatives). kAuto is the paper's default.
  MergeNormalization merge_normalization = MergeNormalization::kAuto;

  /// When true, batch size scaling runs on the adaptive cadence of
  /// Section III-A (interval widens once batch sizes stabilize or
  /// oscillate) instead of after every mega-batch.
  bool adaptive_scaling_cadence = false;

  /// L2 weight decay coefficient (0 = off). Applied with the sparse-update
  /// rule: only parameters touched by the batch decay. Semantics per
  /// optimizer (nn/optimizer.h): coupled L2 for sgd/adam/adagrad, decoupled
  /// for adamw.
  double weight_decay = 0.0;

  /// Update rule applied by every replica (and by the global model of the
  /// gradient-aggregating trainers). Defaults to fused SGD — bit-identical
  /// to the pre-optimizer-refactor trainers. Adam/AdamW/Adagrad keep lazy
  /// touched-row state for the sparse input layer (nn/optimizer.h).
  nn::OptimizerConfig optimizer;

  /// Merge-boundary policy for per-replica optimizer state (moments,
  /// accumulators, lazy row counters). Ignored for sgd (no state).
  MomentMerge moment_merge = MomentMerge::kAverage;

  /// Learning-rate warmup over the first `warmup_megabatches` mega-batches
  /// (linear ramp from lr/width to lr, the Goyal et al. recipe the paper
  /// cites for its batch-scaling rule).
  std::size_t warmup_megabatches = 0;

  /// Step learning-rate decay: multiply the effective rate by `lr_decay`
  /// every `lr_decay_every` mega-batches (0 = no decay). Applies on top of
  /// warmup and Algorithm 1's linear batch scaling.
  double lr_decay = 1.0;
  std::size_t lr_decay_every = 0;

  /// CROSSBOW synchronous-model-averaging elastic rate (learner pull toward
  /// the central average and central-average correction rate).
  double crossbow_eta = 0.1;

  // --- topology -------------------------------------------------------------
  /// Simulated server nodes. The device list is laid out node-major (GPUs
  /// split evenly across nodes, CPU replicas at the tail) and the merge
  /// becomes two-level past one node: the configured all-reduce within each
  /// node over peer links, then a chunked ring over one leader per node on
  /// the network link. 1 = the original single server (bit-identical cost
  /// and model).
  std::size_t num_nodes = 1;

  /// CPU compute replicas appended after the GPUs in the device list
  /// (round-robined across nodes). They train like any other replica — the
  /// adaptive batch scaler absorbs their 10-50x slowdown — and their merge
  /// traffic rides the host (PCIe) link instead of the peer fabric.
  std::size_t cpu_replicas = 0;

  /// Inter-node network link (Ethernet/IB-class; default 100 Gb
  /// InfiniBand: 12.5 GB/s, 50 us). Unused at num_nodes == 1.
  double net_bandwidth_gbs = 12.5;
  double net_latency_us = 50.0;

  // --- communication -------------------------------------------------------
  comm::AllReduceAlgo allreduce = comm::AllReduceAlgo::kRingMultiStream;
  std::size_t allreduce_streams = 0;    // 0 = number of GPUs (paper optimum)

  /// Delta-aware merge: replicas track the union of W1 rows their mega-batch
  /// touched, and the merge reduces only the cross-replica union of touched
  /// rows — untouched rows (reading as global in every replica since the
  /// last merge) get the closed-form sum_i w_i * global_row scaling plus
  /// momentum in one pass. The merge hands back only the dense tail; each
  /// replica pulls a W1 row from global when a step first touches it.
  /// Bit-identical to the dense merge by construction; the communication
  /// charge shrinks to the delta bytes (touched rows x hidden) plus the
  /// dense b1/W2/b2 tail. Valid for trainers whose replica updates all flow
  /// through run_update_step / run_gradient_step (adaptive, elastic, sync);
  /// trainers that mutate W1 through dispatch_math must leave this off.
  bool sparse_merge = false;

  /// Merge-payload compression (DESIGN.md §10): quantize the shipped merge
  /// deltas to fp16 (dynamic loss scale) or int8 (per-group scales) with
  /// per-replica error-feedback residuals. kFp32 ships raw floats and takes
  /// the bit-exact oracle merge path; fp16/int8 cut the element payload
  /// 2x/4x at a small controlled accuracy cost (the residuals re-inject the
  /// quantization error into the next merge). Composes with sparse_merge
  /// (only the touched-row delta + dense tail is quantized) and with the
  /// fault subsystem (residuals reset on crash/join, checkpointed for
  /// deterministic resume).
  comm::MergePrecision merge_precision = comm::MergePrecision::kFp32;

  // --- evaluation -----------------------------------------------------------
  std::size_t eval_samples = 1000;      // test prefix per mega-batch (0=all)

  // --- runtime ---------------------------------------------------------------
  ExecutionMode mode = ExecutionMode::kDeterministic;
  std::uint64_t seed = 12345;

  /// Worker threads for the CPU compute kernels (spmm/gemm/sparse update)
  /// of each replica's training step. 1 = serial (default, and what the
  /// deterministic tests use); 0 = hardware concurrency. The runtime shares
  /// one pool across all virtual GPUs and hands each workspace a
  /// kernels::Context. Results are bit-identical across thread counts
  /// (kernels partition output rows).
  std::size_t kernel_threads = 1;

  /// Multiplier on epoch compute time modelling a heavier framework stack.
  /// 1.0 for the HeteroGPU implementations; the TensorFlow baseline uses
  /// ~1.4 (the paper attributes part of TF's gap to slower epoch execution
  /// and mirrored aggregation).
  double framework_overhead = 1.0;

  /// Workload scale multiplier on kernel flops/bytes. The synthetic
  /// datasets are ~50x smaller than Amazon-670k/Delicious-200k, which would
  /// make per-batch compute unrealistically small relative to the fixed
  /// kernel-launch overhead; compute_scale restores the full-scale
  /// compute-to-overhead ratio (each synthetic sample stands for
  /// compute_scale real samples' worth of work). Applies to every GPU
  /// method identically; SlideConfig::compute_scale must match.
  double compute_scale = 1.0;

  /// Scale multiplier on model bytes for communication costs (all-reduce,
  /// host round trips). Kept at 1.0 by default: merging is amortized over a
  /// mega-batch in every regime, so the headline results do not depend on
  /// it, but the ablation bench uses it to study comm-bound regimes.
  double comm_scale = 1.0;

  // Derived accessors implementing the Section V-A conventions.
  std::size_t derived_batch_min() const {
    return batch_min != 0 ? batch_min : batch_max / 8;
  }
  double derived_beta() const {
    return beta != 0.0 ? beta : static_cast<double>(derived_batch_min()) / 2.0;
  }
  std::size_t megabatch_samples() const {
    return batches_per_megabatch * batch_max;
  }
  /// Linear learning-rate scaling rule: lr(b) = lr(b_max) * b / b_max.
  double lr_for_batch(std::size_t b) const {
    return learning_rate * static_cast<double>(b) /
           static_cast<double>(batch_max);
  }
};

}  // namespace hetero::core
