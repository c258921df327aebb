// Deterministic top-k label extraction: the one ranking rule of evaluation
// and serving.
//
// Serving results must be bit-stable across worker counts, wave groupings,
// and SIMD ISAs (DESIGN.md §12), and evaluation must count the same hits at
// any thread count, so ties are never left to container or scan order: the
// selection order is *score descending, label id ascending on exact float
// equality* — the same rule in evaluation, the exact full-scan serving path
// and the LSH candidate path. Two runs that produce the same scores
// therefore produce the same top-k byte for byte.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace hetero::nn {

/// One ranked output label.
struct ScoredLabel {
  std::uint32_t label = 0;
  float score = 0.0f;

  bool operator==(const ScoredLabel&) const = default;
};

/// Strict ranking order: higher score first, lower label id on equal score.
inline bool ranks_before(const ScoredLabel& a, const ScoredLabel& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.label < b.label;
}

/// Selects the top `k` classes of a dense score vector (label = index) into
/// `out` (cleared first), sorted by ranks_before. O(C log k).
void select_topk(std::span<const float> scores, std::size_t k,
                 std::vector<ScoredLabel>& out);

/// Same selection over an explicit candidate list (LSH path). Duplicate
/// labels must not occur (the LSH index deduplicates); the result is
/// independent of the candidates' input order.
void select_topk(std::span<const ScoredLabel> candidates, std::size_t k,
                 std::vector<ScoredLabel>& out);

}  // namespace hetero::nn
