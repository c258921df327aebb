// Model abstraction: the contract between a neural network and the
// multi-GPU training stack.
//
// The paper's evaluation model is a 3-layer MLP (one hidden layer), and the
// journal version evaluates deeper sparse MLPs; nn::DeepMlp implements both
// and is the one implementation (make_model builds it). Everything above
// this interface — MultiGpuRuntime, the trainers, the fused merge kernels in
// core/merging, the sharded all-reduce, checkpointing, the CLI — is written
// against nn::Model, so a new architecture plugs into the whole stack
// (dynamic scheduling, delta merging, cost accounting, serialization) by
// implementing this one interface.
//
// Contract highlights:
//   - segment_views() exposes the parameters as an ordered list of in-place
//     tensor views. Segment 0 MUST be the sparse input layer, row-major
//     (info().input_rows() x info().input_cols()): the delta merge reduces
//     touched rows of that segment and applies the closed-form update to
//     the rest. Concatenating the segments defines the flat checkpoint /
//     all-reduce index space.
//   - compute_gradients/apply_gradients split so gradient-aggregating
//     trainers (sync SGD, CROSSBOW, parameter server) can stage gradients;
//     train_step fuses them for the replica-local trainers.
//   - The first-layer gradient must be touched-row sparse: the workspace
//     reports the rows via touched_input_rows(), which is what feeds the
//     per-replica RowSet unions of the delta-aware merge.
//   - step_kernels/step_memory_bytes report the virtual-GPU cost of one
//     training step so the simulator charges depth- and nnz-dependent time.
//   - All math routes through the workspace's kernels::Context: serial by
//     default, n-way parallel when a ThreadPool is attached, bit-identical
//     either way (kernels partition output rows).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sim/cost_model.h"
#include "sparse/csr.h"
#include "sparse/sparse_gradient.h"
#include "tensor/matrix.h"
#include "util/kernel_context.h"
#include "util/rng.h"

namespace hetero::nn {

/// Architecture metadata shared by every model implementation.
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

/// Per-replica scratch state for training steps. Concrete models pair with
/// a concrete workspace (created by Model::make_workspace); trainers only
/// touch this base.
class ModelWorkspace {
 public:
  virtual ~ModelWorkspace() = default;

  /// Softmax output of the last forward pass (batch x num_classes). Written
  /// by forward_loss/compute_gradients; read by evaluation.
  tensor::Matrix probs;

  /// Kernel execution backend: serial by default; point at a ThreadPool
  /// (kernels::Context{&pool, n}) for n-way parallel kernels. Threaded
  /// results are bit-identical to serial.
  kernels::Context ctx;

  /// Sorted logical rows of the sparse input layer touched by the gradient
  /// currently held in this workspace (valid until the next
  /// compute_gradients). Feeds the delta-merge RowSet unions.
  virtual std::span<const std::uint32_t> touched_input_rows() const = 0;

  /// Swaps the gradient tensors with `other` (same dynamic type; asserted).
  /// Gradient-aggregating trainers stage per-batch gradients this way
  /// without copying, leaving both workspaces reusable.
  virtual void swap_gradients(ModelWorkspace& other) = 0;

  /// Read-only views of the gradients staged by the last compute_gradients,
  /// aligned with Model::segment_views(): `input` is the touched-row sparse
  /// gradient of segment 0, `dense` holds one flat span per remaining
  /// segment, in segment order. This is how nn::Optimizer implementations
  /// consume gradients without knowing the concrete workspace type.
  struct GradientViews {
    const sparse::SparseGradient* input = nullptr;
    std::vector<std::span<const float>> dense;
  };
  virtual GradientViews gradient_views() const = 0;
};

struct StepStats {
  double loss = 0.0;           // mean cross-entropy over the batch
  std::size_t batch_size = 0;
  std::size_t batch_nnz = 0;
};

class Model {
 public:
  virtual ~Model() = default;

  virtual const ModelInfo& info() const = 0;
  std::size_t num_parameters() const { return info().num_parameters; }
  std::size_t num_bytes() const { return info().num_bytes(); }

  /// Random initialization (weights ~ N(0, 1/sqrt(fan_in)), biases zero).
  /// All replicas start from one init + broadcast (paper methodology).
  virtual void init(util::Rng& rng) = 0;

  /// Deep copy preserving the dynamic type.
  virtual std::unique_ptr<Model> clone() const = 0;

  /// Copies parameters from `other` (same architecture; asserted). The
  /// broadcast primitive — replicas are refreshed from the global model
  /// without reallocation.
  virtual void copy_from(const Model& other) = 0;

  /// Creates a workspace matching this architecture.
  virtual std::unique_ptr<ModelWorkspace> make_workspace() const = 0;

  /// In-place views of the parameter tensors. Segment 0 is the sparse input
  /// layer (see the contract above); concatenation order defines the flat
  /// format. Views stay valid while the model is alive.
  virtual std::vector<std::span<float>> segment_views() = 0;

  /// L2 norm over all parameters / parameter count (Algorithm 2 gate).
  virtual double l2_norm_per_parameter() const = 0;

  // --- training ------------------------------------------------------------

  /// Forward + backward + update with learning rate `lr`. Returns the mean
  /// cross-entropy. The workspace keeps the step's gradients (and their
  /// touched_input_rows) until the next step.
  virtual StepStats train_step(const sparse::CsrMatrix& x,
                               const sparse::CsrMatrix& y, float lr,
                               ModelWorkspace& ws,
                               float weight_decay = 0.0f) = 0;

  /// Forward + backward only: gradients stay in `ws`, the model is not
  /// touched.
  virtual StepStats compute_gradients(const sparse::CsrMatrix& x,
                                      const sparse::CsrMatrix& y,
                                      ModelWorkspace& ws) const = 0;

  /// Applies the gradients staged in `ws` with learning rate `lr`. Sparse
  /// first layer: only the touched rows carry gradient (and decay).
  virtual void apply_gradients(const ModelWorkspace& ws, float lr,
                               float weight_decay = 0.0f) = 0;

  /// Forward + loss only (no gradients); probs are left in ws.probs.
  virtual double forward_loss(const sparse::CsrMatrix& x,
                              const sparse::CsrMatrix& y,
                              ModelWorkspace& ws) const = 0;

  // --- virtual-GPU cost reporting ------------------------------------------

  /// Kernel sequence a GPU would launch for one train_step on this batch.
  virtual std::vector<sim::KernelDesc> step_kernels(
      const sparse::CsrMatrix& x) const = 0;

  /// Device memory footprint of one step's transient state (activations,
  /// deltas, gradients, batch CSR) for the given batch shape.
  virtual std::size_t step_memory_bytes(std::size_t batch_size,
                                        double avg_nnz) const = 0;

  // --- flat format (checkpoints / diagnostics; NOT on the training path) ---

  /// Serializes all parameters into one flat buffer in segment order.
  virtual std::vector<float> to_flat() const = 0;
  virtual void from_flat(std::span<const float> flat) = 0;

  /// Squared L2 distance to another model of the same architecture
  /// (test/diagnostic helper; allocates flats).
  double squared_distance(const Model& other) const;
};

/// Factory: builds the sparse-input MLP (nn::DeepMlp) with one hidden layer
/// per entry of `hidden`. Throws std::invalid_argument on an empty hidden
/// list or a zero width.
std::unique_ptr<Model> make_model(std::size_t num_features,
                                  std::span<const std::size_t> hidden,
                                  std::size_t num_classes);

}  // namespace hetero::nn
