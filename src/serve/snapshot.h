// Lock-free versioned model snapshots for online serving.
//
// Training publishes an immutable copy of the global model at every merge
// boundary (MultiGpuRuntime's publish hook); serving workers re-validate
// their cached snapshot with one atomic version load per wave and never
// block the merge path. A snapshot owns everything a query needs:
//
//   - a copy of the global model at publication time, whose layer tensors
//     scoring reads directly; its serialized HGPU blob (blob(), built on
//     request) is byte-comparable to the global-model blob inside an HGCK
//     checkpoint taken at the same boundary,
//   - a lazily built SLIDE bundle (transposed output layer + LshIndex),
//     constructed under std::call_once by the first LSH query against this
//     version and shared by all workers thereafter.
//
// Snapshots are immutable after construction. SnapshotStore hands them
// over with a version-gated fast path: workers re-validate their cached
// snapshot against an atomic version counter (wait-free, one relaxed-cost
// load per wave) and only touch the store's mutex on the wave right after
// a merge published a new version. (std::atomic<std::shared_ptr> would
// express this directly, but libstdc++ 12 unlocks its reader path with a
// relaxed fetch_sub, which ThreadSanitizer cannot form a happens-before
// edge from — the serve suite runs under the tsan preset, so the store
// avoids it by construction rather than by suppression.)
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "nn/model.h"
#include "nn/topk.h"
#include "slide/lsh_table.h"
#include "sparse/csr.h"
#include "tensor/matrix.h"

namespace hetero::serve {

// Serving ranks with the evaluation top-k (nn/topk.h).
using nn::ScoredLabel;
using nn::select_topk;

/// SLIDE candidate-generation knobs. Defaults target >= 0.95 exact-vs-LSH
/// top-k recall on the synthetic extreme-classification workload while
/// scoring a fraction of the output layer.
struct LshParams {
  std::size_t bits = 8;            // K: signature bits per table
  std::size_t tables = 8;          // L: hash tables
  std::size_t head = 0;            // mandatory head candidates; 0 = C/8
  std::size_t max_candidates = 0;  // cap on scored neurons; 0 = C/2
  std::size_t min_candidates = 0;  // exact fallback below this; 0 = 4*k
  std::uint64_t seed = 0x51DEu;    // fixed: same planes every rebuild
};

/// Per-worker scratch for forward passes and top-k extraction. Reused
/// across waves so the steady state allocates nothing.
struct QueryScratch {
  std::vector<tensor::Matrix> acts;        // hidden activations, per layer
  tensor::Matrix logits;                   // wave x C (exact path)
  std::vector<float> aug_query;            // [h, 1, 0] MIPS query vector
  std::vector<std::uint32_t> candidates;   // LSH collision set
  std::vector<ScoredLabel> cand_scores;    // scored candidates
  std::vector<float> row_scores;           // dense scores (fallback path)
};

class ModelSnapshot {
 public:
  /// Deep-copies `global`.
  ModelSnapshot(const nn::Model& global, std::uint64_t version, double vtime,
                const LshParams& lsh);

  std::uint64_t version() const { return version_; }
  /// Virtual training time at publication.
  double vtime() const { return vtime_; }
  const nn::ModelInfo& info() const { return model_.info(); }
  const nn::Model& model() const { return model_; }

  /// Serialized HGPU bytes of the model, built on each call (publication
  /// never serializes). Byte-identical to the global model record of a
  /// checkpoint taken at the same merge boundary, and loadable by
  /// nn::load_any_model.
  std::string blob() const;

  // --- scoring -------------------------------------------------------------

  /// Runs the model's hidden stack (nn::Model::forward_hidden) on a CSR
  /// wave of queries: acts.back() holds the final hidden activations
  /// (wave x H_last). Serial kernels — worker threads are the parallelism,
  /// and per-row independence keeps results identical no matter how
  /// requests are grouped into waves.
  void forward_hidden(const sparse::CsrMatrix& x, QueryScratch& s) const;

  /// The model's output layer (nn::Model::forward_output) over
  /// acts.back(): s.logits = acts * Wout + bias.
  void score_output(QueryScratch& s) const;

  /// Exact top-k of wave row `row` from s.logits (score_output first).
  void topk_exact(const QueryScratch& s, std::size_t row, std::size_t k,
                  std::vector<ScoredLabel>& out) const;

  /// SLIDE top-k of wave row `row` from acts.back() (forward_hidden first):
  /// queries the per-snapshot LshIndex for candidate neurons and scores
  /// only those. Returns true when the candidate set was used; false when
  /// it was thinner than max(k, min_candidates) and the row fell back to an
  /// exact scan. Both paths share the deterministic tie-break.
  bool topk_lsh(std::size_t row, std::size_t k, QueryScratch& s,
                std::vector<ScoredLabel>& out) const;

  /// True once some query has forced the SLIDE bundle build.
  bool lsh_built() const { return lsh_built_.load(std::memory_order_acquire); }

 private:
  // SimHash ranks by cosine, but serving top-k ranks by inner product plus
  // bias, which trained output layers dominate with per-class norms. The
  // index therefore hashes the asymmetric MIPS transform (Shrivastava &
  // Li): item c becomes [w_c, b_c, sqrt(M^2 - |w_c|^2 - b_c^2)] with
  // M = max_c sqrt(|w_c|^2 + b_c^2), a query becomes [h, 1, 0]. Every
  // augmented item has norm M, so collision probability is monotone in
  // dot(h, w_c) + b_c — exactly the serving score.
  // Candidate generation is hybrid. A static *head list* — the classes
  // with the largest output-weight norms, which dominate trained
  // extreme-classification top-k — is seeded as mandatory candidates, and
  // the LSH tables add query-dependent tail candidates on top (the
  // pre-seeded-`out` idiom of LshIndex::query).
  struct LshBundle {
    tensor::Matrix wout_t;  // C x H transpose of the output weights
    tensor::Matrix aug;     // C x (H+2) augmented vectors fed to the index
    std::vector<std::uint32_t> head;  // norm-ranked mandatory candidates
    slide::LshIndex index;
    std::size_t max_candidates = 0;
  };

  const LshBundle& lsh_bundle() const;
  float candidate_score(std::span<const float> h, std::uint32_t label) const;
  const tensor::Matrix& output_weights() const;  // H_last x C
  std::span<const float> output_bias() const;

  nn::Model model_;
  std::uint64_t version_ = 0;
  double vtime_ = 0.0;
  LshParams lsh_;

  mutable std::once_flag lsh_once_;
  mutable std::unique_ptr<LshBundle> bundle_;
  mutable std::atomic<bool> lsh_built_{false};
};

/// Publication point between training and serving. publish() is called from
/// the training thread at merge boundaries; refresh() is the reader fast
/// path — wait-free while the cached snapshot is still the newest, which is
/// every wave except the first after a merge.
class SnapshotStore {
 public:
  explicit SnapshotStore(LshParams lsh = {}) : lsh_(lsh) {}

  /// Copies `global` into a new immutable snapshot (version = previous + 1)
  /// and swaps it in. Returns the published snapshot. The version counter
  /// is bumped last, so a version observed by refresh() always has its
  /// snapshot already in place.
  std::shared_ptr<const ModelSnapshot> publish(const nn::Model& global,
                                               double vtime);

  /// Latest published snapshot, or nullptr before the first publish.
  /// Copies the pointer under a briefly-held mutex; serving workers use
  /// refresh() instead and hit this path only when the version moved.
  std::shared_ptr<const ModelSnapshot> current() const;

  /// Returns `cached` unchanged while it is still the newest published
  /// snapshot (a single atomic version read, no locking); otherwise copies
  /// the newer snapshot under the mutex.
  std::shared_ptr<const ModelSnapshot> refresh(
      std::shared_ptr<const ModelSnapshot> cached) const;

  bool has_snapshot() const { return version() != 0; }
  std::uint64_t version() const {
    return version_.load(std::memory_order_acquire);
  }

  /// Loads a model from `path` and publishes it. Accepts either an HGPU
  /// model blob (e.g. a dump_current() file) or an HGCK training
  /// checkpoint, sniffed by magic; from a checkpoint only the global model
  /// is read (the replicas' state is skipped), and its virtual time is
  /// restored. Throws hetero::ParseError on malformed input.
  std::shared_ptr<const ModelSnapshot> publish_from_file(
      const std::string& path);

  /// Writes the current snapshot's HGPU model to `path` (loadable by
  /// publish_from_file and nn::load_any_model_file). Throws
  /// std::runtime_error if nothing has been published or on I/O failure.
  void dump_current(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::shared_ptr<const ModelSnapshot> current_;  // guarded by mutex_
  std::atomic<std::uint64_t> version_{0};
  LshParams lsh_;
};

}  // namespace hetero::serve
