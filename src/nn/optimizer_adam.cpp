// Adam and AdamW over the lazy sparse-state contract (nn/optimizer.h).
//
// Segment 0 (sparse input layer): moments advance only for the rows in the
// step's SparseGradient, each row on its own step counter, so the bias
// corrections see exactly the row's touched subsequence — SparseAdam
// semantics with exact catch-up. The touched rows are partitioned across
// workers with kernels::parallel_for_ranges; rows are distinct, so the
// per-row counter increments and the state writes are race-free and the
// result is bit-identical at any thread count.
//
// Dense tail (biases, upper layers): every segment advances each apply on
// one shared counter, full-span kernel calls.
//
// Adam couples L2 into the gradient (g' = g + wd*w, feeding both moments);
// AdamW decouples it (keep = 1 - lr*wd on the parameter, moments see the
// raw gradient). Both go through the single fused vec adam_update kernel.
#include <cassert>
#include <cstdint>
#include <memory>

#include "nn/optimizer_state.h"
#include "tensor/vec/vec.h"
#include "util/kernel_context.h"

namespace hetero::nn::detail {
namespace {

class AdamOptimizer final : public StatefulOptimizer {
 public:
  AdamOptimizer(const OptimizerConfig& cfg, Model& model, bool decoupled)
      : StatefulOptimizer(model, /*num_slots=*/2, /*lazy_row_steps=*/true),
        beta1_(cfg.beta1),
        beta2_(cfg.beta2),
        eps_(static_cast<float>(cfg.eps)),
        decoupled_(decoupled) {}

  OptimizerKind kind() const override {
    return decoupled_ ? OptimizerKind::kAdamW : OptimizerKind::kAdam;
  }

  void apply(Model& model, const ModelWorkspace& ws, float lr,
             float weight_decay) override {
    auto segs = model.segment_views();
    assert(segs.size() == seg_sizes_.size());
    const auto& sg = ws.grad_w1;
    assert(sg.logical_rows() == input_rows_);
    assert(sg.cols() == input_cols_);
    const auto& vk = vec::kernels();

    vec::AdamParams base;
    base.lr = lr;
    base.beta1 = static_cast<float>(beta1_);
    base.beta2 = static_cast<float>(beta2_);
    base.eps = eps_;
    base.weight_decay = decoupled_ ? 0.0f : weight_decay;
    base.keep = decoupled_ ? 1.0f - lr * weight_decay : 1.0f;

    // Lazy segment 0: each touched row advances its own counter.
    float* w0 = segs[0].data();
    float* m0 = slot_seg(0, 0);
    float* v0 = slot_seg(1, 0);
    const auto rows = sg.rows();
    const std::size_t h = input_cols_;
    kernels::parallel_for_ranges(
        ws.ctx, rows.size(), rows.size() * h * 4,
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t s = begin; s < end; ++s) {
            const std::size_t r = rows[s];
            const std::uint32_t t = ++row_steps_[r];
            vec::AdamParams p = base;
            p.bias1 = bias_correction(beta1_, t);
            p.bias2 = bias_correction(beta2_, t);
            vk.adam_update(w0 + r * h, sg.slot_values(s).data(), m0 + r * h,
                           v0 + r * h, p, h);
          }
        });

    // Dense tail: one shared counter for all remaining segments.
    const std::uint64_t t = ++step_;
    vec::AdamParams p = base;
    p.bias1 = bias_correction(beta1_, t);
    p.bias2 = bias_correction(beta2_, t);
    for (std::size_t seg = 1; seg < segs.size(); ++seg) {
      assert(ws.dense_gradient(seg).size() == segs[seg].size());
      vk.adam_update(segs[seg].data(), ws.dense_gradient(seg).data(),
                     slot_seg(0, seg), slot_seg(1, seg), p, segs[seg].size());
    }
  }

 private:
  double beta1_;
  double beta2_;
  float eps_;
  bool decoupled_;
};

}  // namespace

std::unique_ptr<Optimizer> make_adam_optimizer(const OptimizerConfig& cfg,
                                               Model& model, bool decoupled) {
  return std::make_unique<AdamOptimizer>(cfg, model, decoupled);
}

}  // namespace hetero::nn::detail
