// The sparse-input MLP: sparse input -> H1 -> ... -> Hk -> softmax, with
// ReLU hidden activations and a multi-label cross-entropy loss.
//
// With one hidden layer this is the paper's evaluation model, the SLIDE
// testbed's 3-layer MLP (Section V-A); the journal version evaluates deeper
// sparse stacks. DeepMlp is the only nn::Model: `--model mlp` and
// `--model deep` both build it. The math routes through the workspace's
// kernels::Context (parallel, bit-identical to serial), the sparse input
// layer keeps a touched-row SparseGradient, per-layer workspace buffers
// are reused, and segment_views expose the parameters in place for the
// sharded/delta merge.
//
// The one-hidden-layer kernel order, loss bits and virtual-GPU cost report
// are pinned by tests/test_deep_mlp.cpp and tests/test_model_polymorphic.cpp:
// every default run's model and virtual time depend on them.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "nn/model.h"
#include "sparse/sparse_gradient.h"
#include "tensor/matrix.h"
#include "util/rng.h"

namespace hetero::nn {

struct DeepMlpConfig {
  std::size_t num_features = 0;
  std::vector<std::size_t> hidden = {64};  // at least one hidden layer
  std::size_t num_classes = 0;

  std::size_t num_layers() const { return hidden.size() + 1; }
  std::size_t num_parameters() const;
};

/// DeepMlp's concrete ModelWorkspace: per-layer activation/delta buffers
/// plus the per-layer gradients. The sparse input layer's gradient is a
/// touched-row SparseGradient keyed per batch (no O(F x H1) dense buffer);
/// dense-layer gradients are reused matrices. All buffers persist across
/// steps, so steady-state training does no per-batch allocation.
struct DeepWorkspace : ModelWorkspace {
  // Indexed by hidden layer (0 .. num_hidden-1); the output layer's
  // activations live in the base `probs`.
  std::vector<tensor::Matrix> pre;     // batch x H_l, pre-activation
  std::vector<tensor::Matrix> acts;    // batch x H_l, post-ReLU
  // Indexed by layer (0 .. num_layers-1); deltas.back() is batch x C.
  std::vector<tensor::Matrix> deltas;

  sparse::SparseGradient grad_w1;      // touched rows of F x H1
  std::vector<tensor::Matrix> grad_w;  // dense layers 1..L-1 (index l-1)
  std::vector<std::vector<float>> grad_b;  // all layers

  /// Sizes the forward buffers (pre, acts) only: evaluation never reads
  /// the gradient buffers, so forward_loss does not allocate them.
  void ensure_forward(const DeepMlpConfig& cfg);
  /// Sizes the forward buffers plus deltas and gradients.
  void ensure(const DeepMlpConfig& cfg);

  std::span<const std::uint32_t> touched_input_rows() const override {
    return grad_w1.rows();
  }
  void swap_gradients(ModelWorkspace& other) override;
  /// Segment order W0,b0,W1,b1,...: dense spans are [b0, W1, b1, ...].
  GradientViews gradient_views() const override {
    GradientViews views;
    views.input = &grad_w1;
    views.dense.push_back({grad_b[0].data(), grad_b[0].size()});
    for (std::size_t l = 1; l < grad_b.size(); ++l) {
      views.dense.push_back(grad_w[l - 1].flat());
      views.dense.push_back({grad_b[l].data(), grad_b[l].size()});
    }
    return views;
  }
};

class DeepMlp : public Model {
 public:
  DeepMlp() = default;
  explicit DeepMlp(const DeepMlpConfig& cfg);

  /// Weights ~ N(0, 1/sqrt(fan_in)), biases zero.
  void init(util::Rng& rng) override;

  const DeepMlpConfig& config() const { return cfg_; }
  const ModelInfo& info() const override { return info_; }

  std::unique_ptr<Model> clone() const override;
  void copy_from(const Model& other) override;
  std::unique_ptr<ModelWorkspace> make_workspace() const override;

  /// Flat order: W0,b0,W1,b1,...,W_{L-1},b_{L-1} (layer 0 = sparse input).
  std::vector<float> to_flat() const override;
  void from_flat(std::span<const float> flat) override;

  /// In-place parameter views: one [weights, biases] pair per layer, in
  /// flat order. Segment 0 is the sparse F x H1 input layer the delta
  /// merge reduces by touched rows.
  std::vector<std::span<float>> segment_views() override;

  double l2_norm_per_parameter() const override;

  StepStats train_step(const sparse::CsrMatrix& x, const sparse::CsrMatrix& y,
                       float lr, ModelWorkspace& ws,
                       float weight_decay = 0.0f) override;
  StepStats compute_gradients(const sparse::CsrMatrix& x,
                              const sparse::CsrMatrix& y,
                              ModelWorkspace& ws) const override;
  void apply_gradients(const ModelWorkspace& ws, float lr,
                       float weight_decay = 0.0f) override;
  double forward_loss(const sparse::CsrMatrix& x, const sparse::CsrMatrix& y,
                      ModelWorkspace& ws) const override;

  std::vector<sim::KernelDesc> step_kernels(
      const sparse::CsrMatrix& x) const override;
  std::size_t step_memory_bytes(std::size_t batch_size,
                                double avg_nnz) const override;

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
  /// Forward into ws (probs end in ws.probs); returns mean CE loss.
  double forward_impl(const sparse::CsrMatrix& x, const sparse::CsrMatrix& y,
                      DeepWorkspace& ws) const;

  DeepMlpConfig cfg_;
  ModelInfo info_;
  std::vector<tensor::Matrix> weights_;     // per layer
  std::vector<std::vector<float>> biases_;  // per layer
};

}  // namespace hetero::nn
