#include "nn/evaluate.h"

#include <algorithm>
#include <mutex>
#include <span>

#include "util/kernel_context.h"

namespace hetero::nn {

namespace {

struct Hits {
  std::size_t top1 = 0, top5 = 0;
  std::size_t p3 = 0, p5 = 0;  // summed |top-k ∩ true|
};

// Scores one row's top 5 (by partial selection) against its true labels.
void count_hits(const float* p, std::size_t c,
                std::span<const std::uint32_t> labels, Hits& hits) {
  std::size_t top_idx[5];
  float top_val[5];
  std::size_t filled = 0;
  for (std::size_t j = 0; j < c; ++j) {
    if (filled < 5) {
      top_idx[filled] = j;
      top_val[filled] = p[j];
      ++filled;
      // Keep the smallest at the end.
      for (std::size_t k = filled; k-- > 1;) {
        if (top_val[k] > top_val[k - 1]) {
          std::swap(top_val[k], top_val[k - 1]);
          std::swap(top_idx[k], top_idx[k - 1]);
        }
      }
    } else if (p[j] > top_val[4]) {
      top_val[4] = p[j];
      top_idx[4] = j;
      for (std::size_t k = 4; k-- > 0;) {
        if (top_val[k + 1] > top_val[k]) {
          std::swap(top_val[k + 1], top_val[k]);
          std::swap(top_idx[k + 1], top_idx[k]);
        } else {
          break;
        }
      }
    }
  }

  const auto is_true = [&](std::size_t cls) {
    return std::binary_search(labels.begin(), labels.end(),
                              static_cast<std::uint32_t>(cls));
  };
  if (is_true(top_idx[0])) ++hits.top1;
  bool any_in_top5 = false;
  for (std::size_t k = 0; k < std::min<std::size_t>(5, filled); ++k) {
    if (is_true(top_idx[k])) {
      any_in_top5 = true;
      if (k < 3) ++hits.p3;
      ++hits.p5;
    }
  }
  if (any_in_top5) ++hits.top5;
}

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

    // Hit counts are integers, so summing per-range counts in any order
    // gives the serial totals.
    kernels::parallel_for_ranges(
        ws.ctx, x.rows(), x.rows() * c, [&](std::size_t r0, std::size_t r1) {
          Hits local;
          for (std::size_t r = r0; r < r1; ++r) {
            const auto labels = y.row_cols(r);
            if (labels.empty()) continue;
            count_hits(ws.probs.data() + r * c, c, labels, local);
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
