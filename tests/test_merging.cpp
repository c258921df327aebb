// Algorithm 2 (Normalized Model Merging) unit tests.
#include "core/merging.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <span>
#include <vector>

#include "util/kernel_context.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace hetero::core {
namespace {

MergeInputs base_inputs() {
  MergeInputs in;
  in.updates = {25, 25, 25, 25};
  in.batch_sizes = {64, 64, 64, 64};
  in.l2_per_param = {0.5, 0.5, 0.5, 0.5};  // NOT regularized by default
  in.pert_threshold = 0.1;
  in.pert_delta = 0.1;
  return in;
}

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

TEST(Merging, EqualUpdatesNormalizeByBatchSize) {
  auto in = base_inputs();
  in.batch_sizes = {100, 50, 25, 25};
  const auto w = compute_merge_weights(in);
  EXPECT_FALSE(w.by_updates);
  EXPECT_NEAR(w.alpha[0], 0.5, 1e-12);
  EXPECT_NEAR(w.alpha[1], 0.25, 1e-12);
  EXPECT_NEAR(sum(w.alpha), 1.0, 1e-12);
}

TEST(Merging, UnequalUpdatesNormalizeByUpdates) {
  auto in = base_inputs();
  in.updates = {30, 20, 25, 25};
  const auto w = compute_merge_weights(in);
  EXPECT_TRUE(w.by_updates);
  EXPECT_NEAR(w.alpha[0], 0.30, 1e-12);
  EXPECT_NEAR(w.alpha[1], 0.20, 1e-12);
  EXPECT_NEAR(sum(w.alpha), 1.0, 1e-12);
}

TEST(Merging, NoPerturbationWhenUnregularized) {
  auto in = base_inputs();
  in.updates = {30, 20, 25, 25};
  in.l2_per_param = {0.05, 0.05, 0.5, 0.05};  // one replica skewed
  const auto w = compute_merge_weights(in);
  EXPECT_FALSE(w.perturbed);
  EXPECT_NEAR(sum(w.alpha), 1.0, 1e-12);
}

TEST(Merging, PerturbationWhenAllRegularized) {
  auto in = base_inputs();
  in.updates = {30, 20, 25, 25};
  in.l2_per_param = {0.05, 0.04, 0.06, 0.05};
  const auto w = compute_merge_weights(in);
  EXPECT_TRUE(w.perturbed);
  // Most updated (index 0) boosted, least updated (index 1) reduced.
  EXPECT_NEAR(w.alpha[0], 0.30 * 1.1, 1e-12);
  EXPECT_NEAR(w.alpha[1], 0.20 * 0.9, 1e-12);
  EXPECT_NEAR(w.alpha[2], 0.25, 1e-12);
  // Deliberate denormalization: the sum may differ from 1.
  EXPECT_NE(sum(w.alpha), 1.0);
}

TEST(Merging, PerturbationDisabledByFlag) {
  auto in = base_inputs();
  in.updates = {30, 20, 25, 25};
  in.l2_per_param = {0.05, 0.04, 0.06, 0.05};
  in.enable_perturbation = false;
  const auto w = compute_merge_weights(in);
  EXPECT_FALSE(w.perturbed);
  EXPECT_NEAR(sum(w.alpha), 1.0, 1e-12);
}

TEST(Merging, ThresholdBoundaryIsExclusive) {
  auto in = base_inputs();
  in.updates = {30, 20};
  in.batch_sizes = {64, 64};
  in.l2_per_param = {0.1, 0.05};  // exactly at threshold -> not "below"
  const auto w = compute_merge_weights(in);
  EXPECT_FALSE(w.perturbed);
}

TEST(Merging, CustomDelta) {
  auto in = base_inputs();
  in.updates = {30, 20};
  in.batch_sizes = {64, 64};
  in.l2_per_param = {0.01, 0.01};
  in.pert_delta = 0.25;
  const auto w = compute_merge_weights(in);
  EXPECT_NEAR(w.alpha[0], 0.6 * 1.25, 1e-12);
  EXPECT_NEAR(w.alpha[1], 0.4 * 0.75, 1e-12);
}

TEST(Merging, SingleGpuWeightIsOne) {
  MergeInputs in;
  in.updates = {25};
  in.batch_sizes = {64};
  in.l2_per_param = {0.01};
  const auto w = compute_merge_weights(in);
  ASSERT_EQ(w.alpha.size(), 1u);
  EXPECT_DOUBLE_EQ(w.alpha[0], 1.0);
  EXPECT_FALSE(w.perturbed);  // perturbation needs n > 1
}

TEST(Merging, TieBreaksFirstIndex) {
  auto in = base_inputs();
  in.updates = {30, 30, 20, 20};
  in.l2_per_param = {0.01, 0.01, 0.01, 0.01};
  const auto w = compute_merge_weights(in);
  EXPECT_TRUE(w.perturbed);
  EXPECT_NEAR(w.alpha[0], 0.3 * 1.1, 1e-12);  // argmax = first max
  EXPECT_NEAR(w.alpha[1], 0.3, 1e-12);
  EXPECT_NEAR(w.alpha[2], 0.2 * 0.9, 1e-12);  // argmin = first min
  EXPECT_NEAR(w.alpha[3], 0.2, 1e-12);
}

TEST(Merging, MomentumUpdateFormula) {
  // w' = merged + gamma*(w - w_prev); w_prev <- w; w <- w'.
  std::vector<float> merged{1.0f, 2.0f};
  std::vector<float> global{3.0f, 5.0f};
  std::vector<float> prev{2.0f, 5.0f};
  momentum_global_update({merged.data(), 2}, {global.data(), 2},
                         {prev.data(), 2}, 0.9);
  EXPECT_FLOAT_EQ(global[0], 1.0f + 0.9f * (3.0f - 2.0f));
  EXPECT_FLOAT_EQ(global[1], 2.0f + 0.9f * (5.0f - 5.0f));
  EXPECT_FLOAT_EQ(prev[0], 3.0f);  // previous global moved forward
  EXPECT_FLOAT_EQ(prev[1], 5.0f);
}

TEST(Merging, MomentumZeroReducesToAssignment) {
  std::vector<float> merged{7.0f};
  std::vector<float> global{1.0f};
  std::vector<float> prev{0.0f};
  momentum_global_update({merged.data(), 1}, {global.data(), 1},
                         {prev.data(), 1}, 0.0);
  EXPECT_FLOAT_EQ(global[0], 7.0f);
}

TEST(Merging, MomentumAccumulatesDirection) {
  // Repeated merges toward larger values build velocity with gamma > 0.
  std::vector<float> global{0.0f}, prev{0.0f};
  for (int i = 1; i <= 3; ++i) {
    std::vector<float> merged{static_cast<float>(i)};
    momentum_global_update({merged.data(), 1}, {global.data(), 1},
                           {prev.data(), 1}, 0.9);
  }
  // Without momentum the result would be 3.0; with momentum it overshoots.
  EXPECT_GT(global[0], 3.0f);
}

TEST(Merging, AllEqualUpdatesPerturbSameIndex) {
  // Literal Algorithm 2: with all update counts equal, argmax == argmin, so
  // the same weight receives both (1+delta) and (1-delta) — a near-no-op
  // factor of (1 - delta^2). The merge still counts as perturbed.
  auto in = base_inputs();
  in.l2_per_param = {0.01, 0.01, 0.01, 0.01};
  const auto w = compute_merge_weights(in);
  EXPECT_TRUE(w.perturbed);
  EXPECT_NEAR(w.alpha[0], 0.25 * (1.0 - 0.01), 1e-12);
  EXPECT_NEAR(w.alpha[1], 0.25, 1e-12);
}

TEST(Merging, ExplicitUpdatesNormalization) {
  auto in = base_inputs();  // equal updates
  in.batch_sizes = {100, 50, 25, 25};
  in.normalization = MergeNormalization::kUpdates;
  const auto w = compute_merge_weights(in);
  EXPECT_TRUE(w.by_updates);
  for (double a : w.alpha) EXPECT_NEAR(a, 0.25, 1e-12);  // ignores batches
}

TEST(Merging, ExplicitBatchSizeNormalization) {
  auto in = base_inputs();
  in.updates = {30, 20, 25, 25};  // unequal
  in.batch_sizes = {100, 50, 25, 25};
  in.normalization = MergeNormalization::kBatchSize;
  const auto w = compute_merge_weights(in);
  EXPECT_FALSE(w.by_updates);
  EXPECT_NEAR(w.alpha[0], 0.5, 1e-12);  // ignores updates
}

TEST(Merging, ProductNormalization) {
  // Section III-B alternative: weight by samples consumed (u_i * b_i).
  auto in = base_inputs();
  in.updates = {30, 20};
  in.batch_sizes = {64, 96};
  in.l2_per_param = {0.5, 0.5};
  in.updates.resize(2);
  in.batch_sizes.resize(2);
  in.l2_per_param.resize(2);
  in.normalization = MergeNormalization::kUpdatesTimesBatch;
  const auto w = compute_merge_weights(in);
  const double s0 = 30.0 * 64.0, s1 = 20.0 * 96.0;
  EXPECT_NEAR(w.alpha[0], s0 / (s0 + s1), 1e-12);
  EXPECT_NEAR(w.alpha[1], s1 / (s0 + s1), 1e-12);
}

class DeltaParam : public ::testing::TestWithParam<double> {};

TEST_P(DeltaParam, PerturbationMagnitude) {
  auto in = base_inputs();
  in.updates = {40, 10};
  in.batch_sizes = {64, 64};
  in.l2_per_param = {0.01, 0.01};
  in.pert_delta = GetParam();
  const auto w = compute_merge_weights(in);
  EXPECT_NEAR(w.alpha[0], 0.8 * (1.0 + GetParam()), 1e-12);
  EXPECT_NEAR(w.alpha[1], 0.2 * (1.0 - GetParam()), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Deltas, DeltaParam,
                         ::testing::Values(0.0, 0.05, 0.1, 0.2, 0.5));

// Randomized invariants of Algorithm 2 over arbitrary valid inputs.
class RandomMergeSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomMergeSweep, WeightsWellFormed) {
  util::Rng rng(GetParam());
  const std::size_t n = 1 + rng.next_below(8);
  MergeInputs in;
  for (std::size_t i = 0; i < n; ++i) {
    in.updates.push_back(1 + rng.next_below(50));
    in.batch_sizes.push_back(16 + rng.next_below(112));
    in.l2_per_param.push_back(rng.uniform(0.0, 0.3));
  }
  in.pert_threshold = rng.uniform(0.0, 0.2);
  in.pert_delta = rng.uniform(0.0, 0.5);
  in.enable_perturbation = rng.bernoulli(0.7);
  const MergeNormalization norms[] = {
      MergeNormalization::kAuto, MergeNormalization::kUpdates,
      MergeNormalization::kBatchSize, MergeNormalization::kUpdatesTimesBatch};
  in.normalization = norms[rng.next_below(4)];

  const auto w = compute_merge_weights(in);
  ASSERT_EQ(w.alpha.size(), n);
  double total = 0.0;
  for (double a : w.alpha) {
    EXPECT_GE(a, 0.0);   // weights never negative (delta <= 0.5 here)
    EXPECT_LE(a, 1.6);   // and bounded by (1+delta)
    total += a;
  }
  if (!w.perturbed) {
    EXPECT_NEAR(total, 1.0, 1e-9);  // normalized unless perturbed
  } else {
    // Perturbation moves the sum by at most delta * (alpha_r - alpha_s).
    EXPECT_NEAR(total, 1.0, in.pert_delta + 1e-9);
  }
}

TEST_P(RandomMergeSweep, MomentumUpdateIsLinear) {
  // w'(a*m1 + b*m2) == a*w'(m1) + b*w'(m2) for the merged-input argument
  // (fixed global/previous): momentum_global_update is affine in `merged`.
  util::Rng rng(GetParam() ^ 0x1234);
  const std::size_t len = 16;
  std::vector<float> m1(len), m2(len), g0(len), p0(len);
  for (std::size_t i = 0; i < len; ++i) {
    m1[i] = static_cast<float>(rng.uniform(-1, 1));
    m2[i] = static_cast<float>(rng.uniform(-1, 1));
    g0[i] = static_cast<float>(rng.uniform(-1, 1));
    p0[i] = static_cast<float>(rng.uniform(-1, 1));
  }
  const double gamma = rng.uniform(0.0, 0.95);

  auto apply = [&](const std::vector<float>& merged) {
    auto g = g0;
    auto p = p0;
    momentum_global_update({merged.data(), len}, {g.data(), len},
                           {p.data(), len}, gamma);
    return g;
  };
  std::vector<float> mix(len);
  for (std::size_t i = 0; i < len; ++i) mix[i] = 0.25f * m1[i] + 0.75f * m2[i];
  const auto g_mix = apply(mix);
  const auto g1 = apply(m1);
  const auto g2 = apply(m2);
  for (std::size_t i = 0; i < len; ++i) {
    // Affine part cancels: g_mix - base == 0.25*(g1-base) + 0.75*(g2-base)
    const float base = g0[i] + static_cast<float>(gamma) * (g0[i] - p0[i]);
    EXPECT_NEAR(g_mix[i] - base,
                0.25f * (g1[i] - base) + 0.75f * (g2[i] - base), 1e-5f);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomMergeSweep,
                         ::testing::Range<std::uint64_t>(50, 62));

TEST(Merging, CallerDecidedGateOverridesL2) {
  auto in = base_inputs();
  in.updates = {30, 20, 25, 25};
  in.l2_per_param.clear();  // not read once the gate is given
  in.all_regularized = true;
  EXPECT_TRUE(compute_merge_weights(in).perturbed);
  in.l2_per_param = {0.01, 0.01, 0.01, 0.01};
  in.all_regularized = false;
  EXPECT_FALSE(compute_merge_weights(in).perturbed);
}

// ---- certified perturbation gate -------------------------------------------

// A two-segment model by hand: an 8 x 4 sparse input layer (segment 0) and
// a 5-float dense tail.
struct GateModel {
  static constexpr std::size_t kRows = 8;
  static constexpr std::size_t kCols = 4;
  std::vector<float> w1 = std::vector<float>(kRows * kCols);
  std::vector<float> tail = std::vector<float>(5);

  std::vector<std::span<const float>> segments() const { return {w1, tail}; }

  /// ||w||_2 / P, summed like Model::l2_norm_per_parameter.
  double l2() const {
    double ss = 0.0;
    for (const float v : w1) ss += static_cast<double>(v) * v;
    for (const float v : tail) ss += static_cast<double>(v) * v;
    return std::sqrt(ss) / static_cast<double>(w1.size() + tail.size());
  }
};

GateModel random_gate_model(util::Rng& rng) {
  GateModel m;
  for (auto& v : m.w1) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (auto& v : m.tail) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return m;
}

L2Gate gate(const GateModel& replica, const GateModel& global,
            std::vector<std::uint32_t> touched, double threshold) {
  return certify_l2_below(replica.segments(), global.segments(), touched,
                          GateModel::kCols, global.l2(), threshold);
}

TEST(CertifiedGate, DecidesFarFromTheThresholdAndDefersWithinTheSlack) {
  util::Rng rng(3);
  const auto global = random_gate_model(rng);
  auto replica = global;
  replica.w1[2 * GateModel::kCols + 1] += 0.05f;  // rows 2 and 5 trained
  replica.w1[5 * GateModel::kCols + 3] -= 0.05f;
  const double exact = replica.l2();
  EXPECT_EQ(gate(replica, global, {2, 5}, 10.0 * exact), L2Gate::kBelow);
  EXPECT_EQ(gate(replica, global, {2, 5}, 0.1 * exact), L2Gate::kNotBelow);
  // At the exact value the bound straddles the threshold: the exact test
  // (exact < exact is false) must decide, not the bound.
  EXPECT_EQ(gate(replica, global, {2, 5}, exact), L2Gate::kUndecided);
  EXPECT_EQ(gate(replica, global, {2, 5}, exact * (1.0 + 1e-7)),
            L2Gate::kUndecided);
  EXPECT_EQ(gate(replica, global, {2, 5}, exact * (1.0 - 1e-7)),
            L2Gate::kUndecided);
}

TEST(CertifiedGate, NoTouchedRowsLeavesOnlyTheSlack) {
  util::Rng rng(4);
  const auto global = random_gate_model(rng);
  const auto replica = global;  // fresh from the broadcast
  const double exact = replica.l2();
  EXPECT_EQ(gate(replica, global, {}, exact * (1.0 + 1e-5)), L2Gate::kBelow);
  EXPECT_EQ(gate(replica, global, {}, exact * (1.0 - 1e-5)),
            L2Gate::kNotBelow);
  EXPECT_EQ(gate(replica, global, {}, exact), L2Gate::kUndecided);
}

TEST(CertifiedGate, CountsAChangedDenseTail) {
  util::Rng rng(5);
  const auto global = random_gate_model(rng);
  auto replica = global;
  for (auto& v : replica.tail) v *= 8.0f;  // no W1 row touched
  const double exact = replica.l2();
  ASSERT_GT(exact, 1.5 * global.l2());
  // Between the two norms: a gate that skipped the tail would see a replica
  // equal to global and answer kBelow.
  const double between = 0.5 * (global.l2() + exact);
  EXPECT_NE(gate(replica, global, {}, between), L2Gate::kBelow);
  EXPECT_EQ(gate(replica, global, {}, 2.0 * exact), L2Gate::kBelow);
}

TEST(CertifiedGate, TouchedRowEqualToGlobalAddsNothing) {
  util::Rng rng(6);
  const auto global = random_gate_model(rng);
  const auto replica = global;  // row 3 touched, then stepped back to equal
  const double exact = replica.l2();
  for (const double f : {1.0 + 1e-5, 1.0, 1.0 - 1e-5}) {
    EXPECT_EQ(gate(replica, global, {3}, exact * f),
              gate(replica, global, {}, exact * f))
        << "threshold factor " << f;
  }
  EXPECT_EQ(gate(replica, global, {3}, exact * (1.0 + 1e-5)),
            L2Gate::kBelow);
}

// The gate's whole contract: a decided answer always equals the exact test,
// here at thresholds a few slack widths from the exact value and far away.
TEST(CertifiedGate, NeverContradictsTheExactTest) {
  util::Rng rng(7);
  std::size_t decided = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const auto global = random_gate_model(rng);
    auto replica = global;
    std::vector<std::uint32_t> touched;
    for (std::uint32_t r = 0; r < GateModel::kRows; ++r) {
      if (!rng.bernoulli(0.3)) continue;
      touched.push_back(r);
      const float step = static_cast<float>(rng.uniform(-0.2, 0.2));
      for (std::size_t c = 0; c < GateModel::kCols; ++c) {
        replica.w1[r * GateModel::kCols + c] += step;
      }
    }
    if (rng.bernoulli(0.5)) replica.tail[0] += 0.1f;
    const double exact = replica.l2();
    for (const double f : {0.5, 1.0 - 1e-5, 1.0 - 1e-6, 1.0, 1.0 + 1e-6,
                           1.0 + 1e-5, 2.0}) {
      const double thr = exact * f;
      const auto answer = gate(replica, global, touched, thr);
      if (answer == L2Gate::kUndecided) continue;
      ++decided;
      EXPECT_EQ(answer == L2Gate::kBelow, exact < thr)
          << "trial " << trial << " threshold factor " << f;
    }
  }
  EXPECT_GT(decided, 0u);
}

// The runtime sums G and D in fixed chunks on the kernel pool: the same G
// bits and the same answers at every thread count, and with the exact
// fallback the same decision as the exact test, including at a threshold
// inside the slack band that leaves the decision to the fallback.
TEST(CertifiedGate, PooledSumsDecideAsTheExactTest) {
  constexpr std::size_t kRows = 96;
  constexpr std::size_t kCols = 8;
  util::Rng rng(8);
  std::vector<float> w1(kRows * kCols);
  std::vector<float> tail(40);
  for (auto& v : w1) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (auto& v : tail) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  auto replica_w1 = w1;
  std::vector<std::uint32_t> touched;
  for (std::uint32_t r = 0; r < kRows; r += 3) {
    touched.push_back(r);
    for (std::size_t c = 0; c < kCols; ++c) {
      replica_w1[r * kCols + c] += static_cast<float>(rng.uniform(-0.2, 0.2));
    }
  }
  const std::vector<std::span<const float>> global{w1, tail};
  const std::vector<std::span<const float>> replica{replica_w1, tail};
  double ss = 0.0;
  for (const float v : replica_w1) ss += static_cast<double>(v) * v;
  for (const float v : tail) ss += static_cast<double>(v) * v;
  const double exact =
      std::sqrt(ss) / static_cast<double>(replica_w1.size() + tail.size());

  const double g1 = l2_per_parameter(global, {});
  for (const std::size_t threads : {1u, 2u, 4u}) {
    util::ThreadPool pool(threads);
    kernels::Context ctx{&pool, threads};
    ctx.serial_grain = 1;  // every sum on the pool
    const double g = l2_per_parameter(global, ctx);
    EXPECT_EQ(g, g1) << "threads " << threads;
    for (const double f : {0.5, 1.0 - 1e-5, 1.0 - 1e-6, 1.0, 1.0 + 1e-6,
                           1.0 + 1e-5, 2.0}) {
      const double thr = exact * f;
      const auto answer =
          certify_l2_below(replica, global, touched, kCols, g, thr, ctx);
      EXPECT_EQ(answer, certify_l2_below(replica, global, touched, kCols, g1,
                                         thr))
          << "threads " << threads << " threshold factor " << f;
      const bool below = answer == L2Gate::kUndecided
                             ? exact < thr
                             : answer == L2Gate::kBelow;
      EXPECT_EQ(below, exact < thr)
          << "threads " << threads << " threshold factor " << f;
    }
    EXPECT_EQ(certify_l2_below(replica, global, touched, kCols, g, exact, ctx),
              L2Gate::kUndecided)
        << "threads " << threads;
    EXPECT_EQ(certify_l2_below(replica, global, touched, kCols, g,
                               2.0 * exact, ctx),
              L2Gate::kBelow);
    EXPECT_EQ(certify_l2_below(replica, global, touched, kCols, g,
                               0.5 * exact, ctx),
              L2Gate::kNotBelow);
  }
}

}  // namespace
}  // namespace hetero::core
