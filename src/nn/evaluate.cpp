#include "nn/evaluate.h"

#include <algorithm>
#include <mutex>
#include <vector>

#include "nn/topk.h"
#include "util/kernel_context.h"

namespace hetero::nn {

namespace {

struct Hits {
  std::size_t top1 = 0, top5 = 0;
  std::size_t p3 = 0, p5 = 0;  // summed |top-k ∩ true|
};

}  // namespace

EvalResult evaluate(const Model& model, const sparse::LabeledDataset& test,
                    std::size_t max_samples, std::size_t eval_batch) {
  ModelWorkspace ws;
  return evaluate(model, test, ws, max_samples, eval_batch);
}

EvalResult evaluate(const Model& model, const sparse::LabeledDataset& test,
                    ModelWorkspace& ws, std::size_t max_samples,
                    std::size_t eval_batch) {
  EvalResult result;
  const std::size_t n =
      max_samples == 0 ? test.num_samples()
                       : std::min(max_samples, test.num_samples());
  if (n == 0) return result;

  const std::size_t c = model.info().num_classes;
  Hits hits;
  std::mutex hits_mutex;
  double loss = 0.0;

  for (std::size_t begin = 0; begin < n; begin += eval_batch) {
    const std::size_t end = std::min(begin + eval_batch, n);
    const auto x = test.features.slice_rows(begin, end);
    const auto y = test.labels.slice_rows(begin, end);
    loss += model.forward_loss(x, y, ws) * static_cast<double>(end - begin);

    // Each row's top 5 by select_topk, scored against its true labels. Hit
    // counts are integers, so summing per-range counts in any order gives
    // the serial totals.
    kernels::parallel_for_ranges(
        ws.ctx, x.rows(), x.rows() * c, [&](std::size_t r0, std::size_t r1) {
          Hits local;
          std::vector<ScoredLabel> top;
          for (std::size_t r = r0; r < r1; ++r) {
            const auto labels = y.row_cols(r);
            if (labels.empty()) continue;
            select_topk(ws.probs.row(r), 5, top);
            std::size_t in_top5 = 0;
            for (std::size_t k = 0; k < top.size(); ++k) {
              if (!std::binary_search(labels.begin(), labels.end(),
                                      top[k].label)) {
                continue;
              }
              if (k == 0) ++local.top1;
              if (k < 3) ++local.p3;
              ++in_top5;
            }
            local.p5 += in_top5;
            if (in_top5 > 0) ++local.top5;
          }
          std::lock_guard<std::mutex> lock(hits_mutex);
          hits.top1 += local.top1;
          hits.top5 += local.top5;
          hits.p3 += local.p3;
          hits.p5 += local.p5;
        });
  }

  result.samples = n;
  result.top1 = static_cast<double>(hits.top1) / static_cast<double>(n);
  result.top5 = static_cast<double>(hits.top5) / static_cast<double>(n);
  result.p_at_3 = static_cast<double>(hits.p3) / (3.0 * static_cast<double>(n));
  result.p_at_5 = static_cast<double>(hits.p5) / (5.0 * static_cast<double>(n));
  result.loss = loss / static_cast<double>(n);
  return result;
}

}  // namespace hetero::nn
