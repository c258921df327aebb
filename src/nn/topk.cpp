#include "nn/topk.h"

#include <algorithm>

namespace hetero::nn {

namespace {

// Bounded selection: `out` is kept as a max-first sorted array of at most k
// entries; insertion keeps the ranks_before order, so the final result needs
// no extra sort. k is small (≤ tens) in serving, so the O(k) shift per
// accepted candidate beats heap bookkeeping.
void insert_bounded(std::vector<ScoredLabel>& out, std::size_t k,
                    ScoredLabel cand) {
  if (out.size() == k && !ranks_before(cand, out.back())) return;
  const auto pos = std::upper_bound(
      out.begin(), out.end(), cand,
      [](const ScoredLabel& a, const ScoredLabel& b) {
        return ranks_before(a, b);
      });
  out.insert(pos, cand);
  if (out.size() > k) out.pop_back();
}

}  // namespace

void select_topk(std::span<const float> scores, std::size_t k,
                 std::vector<ScoredLabel>& out) {
  out.clear();
  if (k == 0) return;
  out.reserve(std::min(k, scores.size()));
  std::size_t c = 0;
  for (; c < scores.size() && out.size() < k; ++c) {
    insert_bounded(out, k, {static_cast<std::uint32_t>(c), scores[c]});
  }
  if (c == scores.size()) return;
  // `out` is full. Labels arrive in ascending order, so a candidate ranks
  // before exactly the kept entries with a lower score (it never ties one
  // with a lower id): a score that is not above the k-th ranks after it
  // (NaN included), and an accepted one drops the k-th and shifts the
  // lower-scored entries back one place, from the end.
  float kth = out.back().score;
  for (; c < scores.size(); ++c) {
    const float score = scores[c];
    if (!(score > kth)) continue;
    std::size_t i = k - 1;
    for (; i > 0 && out[i - 1].score < score; --i) out[i] = out[i - 1];
    out[i] = {static_cast<std::uint32_t>(c), score};
    kth = out.back().score;
  }
}

void select_topk(std::span<const ScoredLabel> candidates, std::size_t k,
                 std::vector<ScoredLabel>& out) {
  out.clear();
  if (k == 0) return;
  out.reserve(std::min(k, candidates.size()));
  for (const auto& cand : candidates) insert_bounded(out, k, cand);
}

}  // namespace hetero::nn
