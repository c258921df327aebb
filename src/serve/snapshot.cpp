#include "serve/snapshot.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "fault/checkpoint.h"
#include "nn/serialize.h"
#include "tensor/ops.h"
#include "util/error.h"
#include "util/kernel_context.h"
#include "util/rng.h"

namespace hetero::serve {

ModelSnapshot::ModelSnapshot(const nn::Model& global, std::uint64_t version,
                             double vtime, const LshParams& lsh)
    : model_(global), version_(version), vtime_(vtime), lsh_(lsh) {}

std::string ModelSnapshot::blob() const { return nn::model_blob(model_); }

const tensor::Matrix& ModelSnapshot::output_weights() const {
  return model_.weights(info().hidden.size());
}

std::span<const float> ModelSnapshot::output_bias() const {
  return model_.biases(info().hidden.size());
}

void ModelSnapshot::forward_hidden(const sparse::CsrMatrix& x,
                                   QueryScratch& s) const {
  model_.forward_hidden(x, s.acts, kernels::Context::serial());
}

void ModelSnapshot::score_output(QueryScratch& s) const {
  model_.forward_output(s.acts.back(), s.logits, kernels::Context::serial());
}

void ModelSnapshot::topk_exact(const QueryScratch& s, std::size_t row,
                               std::size_t k,
                               std::vector<ScoredLabel>& out) const {
  select_topk(s.logits.row(row), k, out);
}

const ModelSnapshot::LshBundle& ModelSnapshot::lsh_bundle() const {
  std::call_once(lsh_once_, [this] {
    const tensor::Matrix& wout = output_weights();  // H x C
    const std::size_t h = wout.rows(), c = wout.cols();
    auto bundle = std::make_unique<LshBundle>(LshBundle{
        tensor::Matrix(),
        tensor::Matrix(),
        {},
        slide::LshIndex(
            [&] {
              // Fixed seed: identical hyperplanes for every snapshot, so
              // candidate sets depend only on the published weights.
              util::Rng rng(lsh_.seed);
              return slide::SimHash(h + 2, lsh_.bits, lsh_.tables, rng);
            }(),
            c),
        lsh_.max_candidates != 0 ? lsh_.max_candidates : c / 2});
    bundle->wout_t.resize(c, h, 0.0f);
    float* dst = bundle->wout_t.data();
    for (std::size_t i = 0; i < h; ++i) {
      const float* src = wout.row(i).data();
      for (std::size_t j = 0; j < c; ++j) dst[j * h + i] = src[j];
    }
    // Asymmetric MIPS transform (see LshBundle): equalize augmented item
    // norms at M so SimHash collisions rank by dot + bias.
    const auto bias = output_bias();
    double m2 = 0.0;
    std::vector<double> item_norm2(c);
    for (std::size_t j = 0; j < c; ++j) {
      double n2 = static_cast<double>(bias[j]) * bias[j];
      for (const float w : bundle->wout_t.row(j)) {
        n2 += static_cast<double>(w) * w;
      }
      item_norm2[j] = n2;
      m2 = std::max(m2, n2);
    }
    bundle->aug.resize(c, h + 2, 0.0f);
    for (std::size_t j = 0; j < c; ++j) {
      float* row = bundle->aug.row(j).data();
      const float* wj = bundle->wout_t.row(j).data();
      for (std::size_t i = 0; i < h; ++i) row[i] = wj[i];
      row[h] = bias[j];
      row[h + 1] =
          static_cast<float>(std::sqrt(std::max(0.0, m2 - item_norm2[j])));
    }
    // Head list: classes ranked by output-weight norm (descending; label id
    // breaks ties so the order is deterministic). These are always scored.
    const std::size_t head_size =
        std::min(c, lsh_.head != 0 ? lsh_.head : std::max<std::size_t>(1, c / 8));
    std::vector<std::uint32_t> order(c);
    for (std::size_t j = 0; j < c; ++j) order[j] = static_cast<std::uint32_t>(j);
    std::partial_sort(order.begin(), order.begin() + head_size, order.end(),
                      [&](std::uint32_t a, std::uint32_t b) {
                        const double na = item_norm2[a], nb = item_norm2[b];
                        if (na != nb) return na > nb;
                        return a < b;
                      });
    bundle->head.assign(order.begin(), order.begin() + head_size);
    bundle->index.rebuild(
        [&](std::size_t item) { return bundle->aug.row(item); });
    bundle_ = std::move(bundle);
    lsh_built_.store(true, std::memory_order_release);
  });
  return *bundle_;
}

float ModelSnapshot::candidate_score(std::span<const float> h,
                                     std::uint32_t label) const {
  return static_cast<float>(tensor::dot(h, bundle_->wout_t.row(label))) +
         output_bias()[label];
}

bool ModelSnapshot::topk_lsh(std::size_t row, std::size_t k, QueryScratch& s,
                             std::vector<ScoredLabel>& out) const {
  const LshBundle& bundle = lsh_bundle();
  const auto h = s.acts.back().row(row);
  // Augmented MIPS query [h, 1, 0] matching the index's item transform.
  s.aug_query.assign(h.begin(), h.end());
  s.aug_query.push_back(1.0f);
  s.aug_query.push_back(0.0f);
  // Mandatory head candidates first, then query-dependent LSH collisions
  // (query dedups against the seeded head and caps at max_candidates).
  s.candidates.assign(bundle.head.begin(), bundle.head.end());
  bundle.index.query(s.aug_query, bundle.max_candidates, s.candidates);

  const std::size_t floor =
      std::max(k, lsh_.min_candidates != 0 ? lsh_.min_candidates : 4 * k);
  if (s.candidates.size() < floor) {
    // Thin candidate set (cold hash region / empty buckets): exact scan of
    // this row. Scored with the same dot kernel as the candidate path so
    // the fallback is self-consistent.
    const std::size_t c = info().num_classes;
    s.row_scores.resize(c);
    for (std::size_t j = 0; j < c; ++j) {
      s.row_scores[j] = candidate_score(h, static_cast<std::uint32_t>(j));
    }
    select_topk(s.row_scores, k, out);
    return false;
  }

  s.cand_scores.clear();
  s.cand_scores.reserve(s.candidates.size());
  for (const std::uint32_t label : s.candidates) {
    s.cand_scores.push_back({label, candidate_score(h, label)});
  }
  select_topk(s.cand_scores, k, out);
  return true;
}

std::shared_ptr<const ModelSnapshot> SnapshotStore::publish(
    const nn::Model& global, double vtime) {
  // The snapshot copy happens under the mutex, which only
  // stalls refresh() callers whose cached version is already stale and cold
  // current() readers — steady-state workers pass the version check and
  // keep serving the previous snapshot until the store below completes.
  std::lock_guard lock(mutex_);
  const std::uint64_t v = version_.load(std::memory_order_relaxed) + 1;
  auto snap = std::make_shared<const ModelSnapshot>(global, v, vtime, lsh_);
  current_ = snap;
  // Bumped last: a version observed by refresh() has its snapshot in place.
  version_.store(v, std::memory_order_release);
  return snap;
}

std::shared_ptr<const ModelSnapshot> SnapshotStore::current() const {
  std::lock_guard lock(mutex_);
  return current_;
}

std::shared_ptr<const ModelSnapshot> SnapshotStore::refresh(
    std::shared_ptr<const ModelSnapshot> cached) const {
  if (cached && cached->version() == version_.load(std::memory_order_acquire)) {
    return cached;
  }
  std::lock_guard lock(mutex_);
  return current_;
}

std::shared_ptr<const ModelSnapshot> SnapshotStore::publish_from_file(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ParseError("snapshot", "cannot open " + path);
  char magic[4] = {};
  in.read(magic, sizeof(magic));
  if (in.gcount() != sizeof(magic)) {
    throw ParseError("snapshot", "truncated header in " + path);
  }
  in.seekg(0);
  const std::string tag(magic, sizeof(magic));
  if (tag == "HGPU") {
    return publish(nn::load_any_model(in), 0.0);
  }
  if (tag == "HGCK") {
    // Skips the replicas' residuals and optimizer state by their lengths;
    // the stream is left at the global model.
    const fault::TrainingCheckpoint ckpt = fault::load_checkpoint(in);
    return publish(nn::load_any_model(in), ckpt.vtime);
  }
  throw ParseError("snapshot",
                   "unrecognized magic in " + path + " (want HGPU or HGCK)");
}

void SnapshotStore::dump_current(const std::string& path) const {
  const auto snap = current();
  if (!snap) {
    throw std::runtime_error("SnapshotStore::dump_current: no snapshot");
  }
  nn::save_model_file(path, snap->model());
}

}  // namespace hetero::serve
