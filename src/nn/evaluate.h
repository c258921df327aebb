// Test-set evaluation: top-k accuracy (the paper reports top-1 on the
// testing dataset after every mega-batch). Rows are ranked by select_topk
// (nn/topk.h), the rule serving uses: higher probability first, lower label
// on ties.
#pragma once

#include <cstddef>

#include "nn/model.h"
#include "sparse/libsvm.h"

namespace hetero::nn {

struct EvalResult {
  double top1 = 0.0;       // fraction of samples whose argmax is a true label
  double top5 = 0.0;       // fraction with a true label in the top 5 scores
  /// XML Repository precision metrics: P@k = |top-k ∩ true| / k, averaged
  /// over samples. P@1 == top1.
  double p_at_3 = 0.0;
  double p_at_5 = 0.0;
  double loss = 0.0;       // mean cross-entropy
  std::size_t samples = 0;
};

/// Evaluates on up to `max_samples` rows of the test set (0 = all), in
/// batches of `eval_batch`. Using a fixed prefix keeps mega-batch-boundary
/// evaluation cheap and comparable across algorithms; the paper likewise
/// excludes evaluation time from its measurements.
EvalResult evaluate(const Model& model, const sparse::LabeledDataset& test,
                    std::size_t max_samples = 0, std::size_t eval_batch = 256);

/// Same, through a workspace the caller keeps across calls.
/// Its kernel context runs each batch's forward pass and top-k scan; batches
/// run in order and each row's work is unchanged, so the result is
/// bit-identical to the serial call at any thread count.
EvalResult evaluate(const Model& model, const sparse::LabeledDataset& test,
                    ModelWorkspace& ws, std::size_t max_samples = 0,
                    std::size_t eval_batch = 256);

}  // namespace hetero::nn
