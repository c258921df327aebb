// Adagrad over the lazy sparse-state contract (nn/optimizer.h).
//
// The squared-gradient accumulator advances only for touched rows of
// segment 0 — with no bias correction there are no per-row counters to
// maintain; a skipped row's accumulator simply stays put, which IS the
// exact lazy semantics. Weight decay is coupled L2 folded into the
// gradient before the accumulator (g' = g + wd*w), so the decay is scaled
// adaptively like the gradient itself, and untouched rows do not decay
// (the lazy-decay contract in the header).
#include <cassert>
#include <cstdint>
#include <memory>

#include "nn/optimizer_state.h"
#include "tensor/vec/vec.h"
#include "util/kernel_context.h"

namespace hetero::nn::detail {
namespace {

class AdagradOptimizer final : public StatefulOptimizer {
 public:
  AdagradOptimizer(const OptimizerConfig& cfg, Model& model)
      : StatefulOptimizer(model, /*num_slots=*/1, /*lazy_row_steps=*/false),
        eps_(static_cast<float>(cfg.adagrad_eps)) {}

  OptimizerKind kind() const override { return OptimizerKind::kAdagrad; }

  void apply(Model& model, const ModelWorkspace& ws, float lr,
             float weight_decay) override {
    auto segs = model.segment_views();
    assert(segs.size() == seg_sizes_.size());
    const auto& sg = ws.grad_w1;
    assert(sg.logical_rows() == input_rows_);
    assert(sg.cols() == input_cols_);
    const auto& vk = vec::kernels();

    vec::AdagradParams p;
    p.lr = lr;
    p.eps = eps_;
    p.weight_decay = weight_decay;

    // Lazy segment 0: touched rows only.
    float* w0 = segs[0].data();
    float* a0 = slot_seg(0, 0);
    const auto rows = sg.rows();
    const std::size_t h = input_cols_;
    kernels::parallel_for_ranges(
        ws.ctx, rows.size(), rows.size() * h * 3,
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t s = begin; s < end; ++s) {
            const std::size_t r = rows[s];
            vk.adagrad_update(w0 + r * h, sg.slot_values(s).data(),
                              a0 + r * h, p, h);
          }
        });

    // Dense tail.
    ++step_;
    for (std::size_t seg = 1; seg < segs.size(); ++seg) {
      assert(ws.dense_gradient(seg).size() == segs[seg].size());
      vk.adagrad_update(segs[seg].data(), ws.dense_gradient(seg).data(),
                        slot_seg(0, seg), p, segs[seg].size());
    }
  }

 private:
  float eps_;
};

}  // namespace

std::unique_ptr<Optimizer> make_adagrad_optimizer(const OptimizerConfig& cfg,
                                                  Model& model) {
  return std::make_unique<AdagradOptimizer>(cfg, model);
}

}  // namespace hetero::nn::detail
