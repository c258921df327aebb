// The sparse-input MLP: sparse input -> H1 -> ... -> Hk -> softmax, with
// ReLU hidden activations and a multi-label cross-entropy loss.
//
// With one hidden layer this is the paper's evaluation model, the SLIDE
// testbed's 3-layer MLP (Section V-A); the journal version evaluates deeper
// sparse stacks. It is the one model class: `--model mlp` and `--model deep`
// both build it, and the runtime, the trainers, the fused merge kernels in
// core/merging, the sharded all-reduce, checkpointing and serving all work
// on it directly.
//
// Contract highlights:
//   - segment_views() exposes the parameters as an ordered list of in-place
//     tensor views, one [weights, biases] pair per layer. Segment 0 is the
//     sparse input layer, row-major (info().input_rows() x
//     info().input_cols()): the delta merge reduces touched rows of that
//     segment and applies the closed-form update to the rest.
//     Concatenating the segments defines the flat checkpoint / all-reduce
//     index space.
//   - compute_gradients/apply_gradients split so gradient-aggregating
//     trainers (sync SGD, CROSSBOW, parameter server) can stage gradients;
//     train_step fuses them.
//   - The first-layer gradient is touched-row sparse: the workspace's
//     grad_w1.rows() are the rows that feed the per-replica RowSet unions
//     of the delta-aware merge.
//   - step_kernels/step_memory_bytes report the virtual-GPU cost of one
//     training step so the simulator charges depth- and nnz-dependent time.
//   - All math routes through the workspace's kernels::Context: serial by
//     default, n-way parallel when a ThreadPool is attached, bit-identical
//     either way (kernels partition output rows).
//
// The one-hidden-layer kernel order, loss bits and virtual-GPU cost report
// are pinned by tests/test_deep_mlp.cpp and tests/test_model_polymorphic.cpp:
// every default run's model and virtual time depend on them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/cost_model.h"
#include "sparse/csr.h"
#include "sparse/sparse_gradient.h"
#include "tensor/matrix.h"
#include "util/kernel_context.h"
#include "util/rng.h"

namespace hetero::nn {

/// Shape of the model.
struct ModelInfo {
  std::size_t num_features = 0;        // input dimension (sparse layer rows)
  std::vector<std::size_t> hidden;     // hidden widths; front() = layer-1 cols
  std::size_t num_classes = 0;
  std::size_t num_parameters = 0;

  std::size_t num_layers() const { return hidden.size() + 1; }
  /// Shape of the sparse input layer (segment 0 of segment_views()).
  std::size_t input_rows() const { return num_features; }
  std::size_t input_cols() const { return hidden.empty() ? 0 : hidden.front(); }
  std::size_t num_bytes() const { return num_parameters * sizeof(float); }
};

/// Per-replica scratch state for training steps and evaluation:
/// per-layer activation/delta buffers plus the per-layer gradients. The
/// sparse input layer's gradient is a touched-row SparseGradient keyed per
/// batch (no O(F x H1) dense buffer); dense-layer gradients are reused
/// matrices. All buffers persist across steps, so steady-state training
/// does no per-batch allocation.
struct ModelWorkspace {
  /// Softmax output of the last forward pass (batch x num_classes). Written
  /// by forward_loss/compute_gradients; read by evaluation.
  tensor::Matrix probs;

  /// Kernel execution backend: serial by default; point at a ThreadPool
  /// (kernels::Context{&pool, n}) for n-way parallel kernels. Threaded
  /// results are bit-identical to serial.
  kernels::Context ctx;

  // Indexed by hidden layer (0 .. num_hidden-1); the output layer's
  // activations live in `probs`. The backward pass masks with these:
  // relu(a) > 0 exactly where a > 0, so no pre-activation copy is kept.
  std::vector<tensor::Matrix> acts;    // batch x H_l, post-ReLU
  // Indexed by layer (0 .. num_layers-1); deltas.back() is batch x C.
  std::vector<tensor::Matrix> deltas;

  // Gradients of the last compute_gradients, valid until the next one.
  sparse::SparseGradient grad_w1;      // touched rows of F x H1 (segment 0)
  std::vector<tensor::Matrix> grad_w;  // dense layers 1..L-1 (index l-1)
  std::vector<std::vector<float>> grad_b;  // all layers

  /// Gradient of parameter segment `seg` >= 1, aligned with
  /// Model::segment_views() (segment 0 is grad_w1).
  std::span<const float> dense_gradient(std::size_t seg) const {
    const std::size_t layer = seg / 2;
    return seg % 2 == 1 ? std::span<const float>(grad_b[layer])
                        : grad_w[layer - 1].flat();
  }

  /// Sizes deltas and gradients (the forward pass sizes acts and probs;
  /// evaluation never reads the gradient buffers, so it allocates none).
  void ensure(const ModelInfo& info);
};

struct StepStats {
  double loss = 0.0;           // mean cross-entropy over the batch
  std::size_t batch_size = 0;
  std::size_t batch_nnz = 0;
};

class Model {
 public:
  /// An empty model; assign a constructed one before use.
  Model() = default;
  /// One hidden layer per entry of `hidden`, parameters zero. Throws
  /// std::invalid_argument on an empty hidden list or a zero width.
  Model(std::size_t num_features, std::vector<std::size_t> hidden,
        std::size_t num_classes);

  const ModelInfo& info() const { return info_; }
  std::size_t num_parameters() const { return info_.num_parameters; }
  std::size_t num_bytes() const { return info_.num_bytes(); }

  /// Random initialization (weights ~ N(0, 1/sqrt(fan_in)), biases zero).
  /// All replicas start from one init + broadcast (paper methodology).
  void init(util::Rng& rng);

  /// Copies parameters from `other` (same shape; asserted). The broadcast
  /// primitive — replicas are refreshed from the global model without
  /// reallocation.
  void copy_from(const Model& other);

  /// In-place parameter views: one [weights, biases] pair per layer, in
  /// flat order. Views stay valid while the model is alive.
  std::vector<std::span<float>> segment_views();
  std::vector<std::span<const float>> segment_views() const;

  /// L2 norm over all parameters / parameter count (Algorithm 2 gate).
  double l2_norm_per_parameter() const;

  // --- training ------------------------------------------------------------

  /// Forward + backward + update with learning rate `lr`. Returns the mean
  /// cross-entropy. The workspace keeps the step's gradients until the next
  /// step.
  StepStats train_step(const sparse::CsrMatrix& x, const sparse::CsrMatrix& y,
                       float lr, ModelWorkspace& ws,
                       float weight_decay = 0.0f);

  /// Forward + backward only: gradients stay in `ws`, the model is not
  /// touched.
  StepStats compute_gradients(const sparse::CsrMatrix& x,
                              const sparse::CsrMatrix& y,
                              ModelWorkspace& ws) const;

  /// Applies the gradients staged in `ws` with learning rate `lr`. Sparse
  /// first layer: only the touched rows carry gradient (and decay).
  void apply_gradients(const ModelWorkspace& ws, float lr,
                       float weight_decay = 0.0f);

  /// Forward + loss only (no gradients); probs are left in ws.probs.
  double forward_loss(const sparse::CsrMatrix& x, const sparse::CsrMatrix& y,
                      ModelWorkspace& ws) const;

  // --- inference -------------------------------------------------------------
  // The one forward pass: training, evaluation and serving all run it.

  /// Hidden stack: acts[l] = relu(in_l * W_l + b_l), where in_0 is the sparse
  /// input (spmm) and in_l = acts[l-1] (gemm). `acts` is resized to the
  /// hidden-layer count; its matrices are reused across calls.
  void forward_hidden(const sparse::CsrMatrix& x,
                      std::vector<tensor::Matrix>& acts,
                      const kernels::Context& ctx) const;

  /// Output layer: out = h * W_out + b_out, the logits before softmax.
  void forward_output(const tensor::Matrix& h, tensor::Matrix& out,
                      const kernels::Context& ctx) const;

  // --- virtual-GPU cost reporting ------------------------------------------

  /// Kernel sequence a GPU would launch for one train_step on this batch.
  std::vector<sim::KernelDesc> step_kernels(const sparse::CsrMatrix& x) const;

  /// Device memory footprint of one step's transient state (activations,
  /// deltas, gradients, batch CSR) for the given batch shape.
  std::size_t step_memory_bytes(std::size_t batch_size, double avg_nnz) const;

  // --- flat format (checkpoints / diagnostics; NOT on the training path) ---

  /// Flat order: W0,b0,W1,b1,...,W_{L-1},b_{L-1} (layer 0 = sparse input).
  std::vector<float> to_flat() const;
  void from_flat(std::span<const float> flat);

  /// Squared L2 distance to another model of the same shape
  /// (test/diagnostic helper; allocates flats).
  double squared_distance(const Model& other) const;

  /// Layer weight matrices / biases (layer 0 is the sparse input layer).
  tensor::Matrix& weights(std::size_t layer) { return weights_[layer]; }
  const tensor::Matrix& weights(std::size_t layer) const {
    return weights_[layer];
  }
  std::vector<float>& biases(std::size_t layer) { return biases_[layer]; }
  const std::vector<float>& biases(std::size_t layer) const {
    return biases_[layer];
  }

 private:
  ModelInfo info_;
  std::vector<tensor::Matrix> weights_;     // per layer
  std::vector<std::vector<float>> biases_;  // per layer
};

}  // namespace hetero::nn
