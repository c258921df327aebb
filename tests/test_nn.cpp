// The one-hidden-layer sparse MLP (the paper's 3-layer model): parameters,
// training steps and evaluation.
#include "nn/model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <vector>

#include "nn/evaluate.h"
#include "sparse/csr.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace hetero::nn {
namespace {

constexpr std::size_t kFeatures = 12;
constexpr std::size_t kHidden = 5;
constexpr std::size_t kClasses = 7;

Model small_model() { return Model(kFeatures, {kHidden}, kClasses); }

sparse::CsrMatrix make_batch_x(std::size_t rows, std::size_t cols,
                               util::Rng& rng, double density = 0.3) {
  sparse::CsrBuilder b(cols);
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<sparse::Entry> entries;
    for (std::size_t c = 0; c < cols; ++c) {
      if (rng.bernoulli(density)) {
        entries.push_back({static_cast<std::uint32_t>(c),
                           static_cast<float>(rng.uniform(0.1, 1.0))});
      }
    }
    if (entries.empty()) entries.push_back({0, 1.0f});
    b.add_row(std::move(entries));
  }
  return b.build();
}

sparse::CsrMatrix make_batch_y(std::size_t rows, std::size_t classes,
                               util::Rng& rng, std::size_t labels_per_row = 2) {
  sparse::CsrBuilder b(classes);
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<std::uint32_t> labels;
    while (labels.size() < labels_per_row) {
      const auto c = static_cast<std::uint32_t>(rng.next_below(classes));
      if (std::find(labels.begin(), labels.end(), c) == labels.end()) {
        labels.push_back(c);
      }
    }
    b.add_indicator_row(std::move(labels));
  }
  return b.build();
}

TEST(OneHiddenMlp, ParameterCount) {
  const Model m = small_model();
  EXPECT_EQ(m.num_parameters(), 12u * 5 + 5 + 5 * 7 + 7);
  EXPECT_EQ(m.num_bytes(), m.num_parameters() * sizeof(float));
}

TEST(OneHiddenMlp, FlatRoundTrip) {
  util::Rng rng(1);
  Model a = small_model();
  a.init(rng);
  const auto flat = a.to_flat();
  ASSERT_EQ(flat.size(), a.num_parameters());
  Model b = small_model();
  b.from_flat(flat);
  EXPECT_DOUBLE_EQ(a.squared_distance(b), 0.0);
}

TEST(OneHiddenMlp, InitIsSeedDeterministic) {
  util::Rng r1(5), r2(5);
  Model a = small_model(), b = small_model();
  a.init(r1);
  b.init(r2);
  EXPECT_DOUBLE_EQ(a.squared_distance(b), 0.0);
}

TEST(OneHiddenMlp, L2NormPerParameter) {
  Model m = small_model();
  auto flat = m.to_flat();
  std::fill(flat.begin(), flat.end(), 2.0f);
  m.from_flat(flat);
  const double expected =
      std::sqrt(4.0 * static_cast<double>(m.num_parameters())) /
      static_cast<double>(m.num_parameters());
  EXPECT_NEAR(m.l2_norm_per_parameter(), expected, 1e-9);
}

TEST(OneHiddenMlp, BiasesStartZero) {
  util::Rng rng(2);
  Model m = small_model();
  m.init(rng);
  for (float b : m.biases(0)) EXPECT_EQ(b, 0.0f);
  for (float b : m.biases(1)) EXPECT_EQ(b, 0.0f);
}

// Finite-difference gradient check: the most important test in this file.
// Perturb each of a sample of parameters and compare dL/dw to the computed
// gradient.
TEST(TrainStep, GradientsMatchFiniteDifferences) {
  util::Rng rng(3);
  Model model = small_model();
  model.init(rng);
  const auto x = make_batch_x(4, kFeatures, rng, 0.4);
  const auto y = make_batch_y(4, kClasses, rng);

  ModelWorkspace ws;
  model.compute_gradients(x, y, ws);

  // Gather analytic gradients in flat order (W1, b1, W2, b2). The layer-1
  // gradient is stored over touched rows only; scatter it dense for the
  // element-wise comparison.
  tensor::Matrix grad_w1_dense;
  ws.grad_w1.to_dense(grad_w1_dense);
  std::vector<float> analytic;
  analytic.insert(analytic.end(), grad_w1_dense.flat().begin(),
                  grad_w1_dense.flat().end());
  analytic.insert(analytic.end(), ws.grad_b[0].begin(), ws.grad_b[0].end());
  analytic.insert(analytic.end(), ws.grad_w[0].flat().begin(),
                  ws.grad_w[0].flat().end());
  analytic.insert(analytic.end(), ws.grad_b[1].begin(), ws.grad_b[1].end());

  auto flat = model.to_flat();
  const double eps = 1e-3;
  ModelWorkspace ws2;
  // Check a deterministic sample of parameters across all four tensors.
  for (std::size_t i = 0; i < flat.size(); i += 7) {
    const float saved = flat[i];
    flat[i] = saved + static_cast<float>(eps);
    model.from_flat(flat);
    const double lp = model.forward_loss(x, y, ws2);
    flat[i] = saved - static_cast<float>(eps);
    model.from_flat(flat);
    const double lm = model.forward_loss(x, y, ws2);
    flat[i] = saved;
    const double numeric = (lp - lm) / (2 * eps);
    EXPECT_NEAR(numeric, analytic[i], 2e-2 * std::max(1.0, std::abs(numeric)))
        << "param " << i;
  }
  model.from_flat(flat);
}

TEST(TrainStep, LossDecreasesOnRepeatedSteps) {
  util::Rng rng(4);
  Model model = small_model();
  model.init(rng);
  const auto x = make_batch_x(8, kFeatures, rng);
  const auto y = make_batch_y(8, kClasses, rng);
  ModelWorkspace ws;
  const double initial = model.forward_loss(x, y, ws);
  for (int i = 0; i < 100; ++i) model.train_step(x, y, 0.2f, ws);
  const double after = model.forward_loss(x, y, ws);
  // With 2 uniform labels per sample the loss floor is log(2) ~= 0.69, so
  // require meaningful progress toward it rather than halving.
  EXPECT_LT(after, initial * 0.75);
}

TEST(TrainStep, SgdStepEqualsComputePlusApply) {
  util::Rng rng(5);
  Model a = small_model(), b = small_model();
  a.init(rng);
  b.from_flat(a.to_flat());
  const auto x = make_batch_x(4, kFeatures, rng);
  const auto y = make_batch_y(4, kClasses, rng);
  ModelWorkspace wa, wb;
  a.train_step(x, y, 0.1f, wa);
  b.compute_gradients(x, y, wb);
  b.apply_gradients(wb, 0.1f);
  EXPECT_NEAR(a.squared_distance(b), 0.0, 1e-12);
}

TEST(TrainStep, ComputeGradientsDoesNotTouchModel) {
  util::Rng rng(6);
  Model model = small_model();
  model.init(rng);
  const auto before = model.to_flat();
  const auto x = make_batch_x(4, kFeatures, rng);
  const auto y = make_batch_y(4, kClasses, rng);
  ModelWorkspace ws;
  model.compute_gradients(x, y, ws);
  EXPECT_EQ(model.to_flat(), before);
}

TEST(TrainStep, UntouchedW1RowsKeepValues) {
  // Sparse update property: feature rows absent from the batch must not
  // change (this is what makes sparse training cheap).
  util::Rng rng(7);
  Model model = small_model();
  model.init(rng);
  sparse::CsrBuilder bx(kFeatures);
  bx.add_row({{3, 1.0f}, {5, 0.5f}});
  const auto x = bx.build();
  const auto y = make_batch_y(1, kClasses, rng);
  const auto before = model.weights(0);
  ModelWorkspace ws;
  model.train_step(x, y, 0.5f, ws);
  bool touched_changed = false;
  for (std::size_t f = 0; f < kFeatures; ++f) {
    for (std::size_t h = 0; h < kHidden; ++h) {
      if (f == 3 || f == 5) {
        touched_changed |= (model.weights(0)(f, h) != before(f, h));
        continue;
      }
      EXPECT_EQ(model.weights(0)(f, h), before(f, h)) << "row " << f;
    }
  }
  // Some hidden units may be ReLU-dead, but not the whole rows.
  EXPECT_TRUE(touched_changed);
}

TEST(TrainStep, StatsReportBatchShape) {
  util::Rng rng(8);
  Model model = small_model();
  model.init(rng);
  const auto x = make_batch_x(6, kFeatures, rng);
  const auto y = make_batch_y(6, kClasses, rng);
  ModelWorkspace ws;
  const auto stats = model.train_step(x, y, 0.1f, ws);
  EXPECT_EQ(stats.batch_size, 6u);
  EXPECT_EQ(stats.batch_nnz, x.nnz());
  EXPECT_GT(stats.loss, 0.0);
}

TEST(TrainStep, KernelDescriptorsCoverPipeline) {
  util::Rng rng(9);
  const auto x = make_batch_x(4, kFeatures, rng);
  const auto kernels = small_model().step_kernels(x);
  EXPECT_GE(kernels.size(), 10u);
  double total_flops = 0.0;
  int sparse_count = 0;
  for (const auto& k : kernels) {
    EXPECT_GE(k.flops, 0.0);
    EXPECT_GE(k.bytes, 0.0);
    total_flops += k.flops;
    sparse_count += k.sparse;
  }
  EXPECT_GT(total_flops, 0.0);
  EXPECT_GE(sparse_count, 3);  // spmm fwd, spmm_t bwd, sparse update
}

TEST(TrainStep, KernelFlopsScaleWithNnz) {
  sparse::CsrBuilder b1(kFeatures), b2(kFeatures);
  b1.add_row({{0, 1.0f}});
  b2.add_row({{0, 1.0f}, {1, 1.0f}, {2, 1.0f}, {3, 1.0f}});
  const Model model = small_model();
  const auto k1 = model.step_kernels(b1.build());
  const auto k2 = model.step_kernels(b2.build());
  double f1 = 0, f2 = 0;
  for (const auto& k : k1)
    if (k.sparse) f1 += k.flops;
  for (const auto& k : k2)
    if (k.sparse) f2 += k.flops;
  EXPECT_GT(f2, 2 * f1);
}

TEST(TrainStep, MemoryEstimateMonotoneInBatch) {
  const Model model = small_model();
  EXPECT_LT(model.step_memory_bytes(16, 10.0), model.step_memory_bytes(64, 10.0));
  EXPECT_LT(model.step_memory_bytes(16, 10.0), model.step_memory_bytes(16, 40.0));
}

TEST(Evaluate, PerfectModelScoresFullAccuracy) {
  // Construct a model that maps feature f deterministically to class
  // f % classes, and a test set consistent with it.
  Model model(8, {8}, 4);
  // W1 = identity-ish: feature f activates hidden f.
  for (std::size_t f = 0; f < 8; ++f) model.weights(0)(f, f) = 1.0f;
  // W2: hidden h votes for class h % 4.
  for (std::size_t h = 0; h < 8; ++h) model.weights(1)(h, h % 4) = 5.0f;

  sparse::CsrBuilder fx(8);
  sparse::CsrBuilder fy(4);
  for (std::uint32_t f = 0; f < 8; ++f) {
    fx.add_row({{f, 1.0f}});
    fy.add_indicator_row({f % 4});
  }
  sparse::LabeledDataset test{fx.build(), fy.build()};
  const auto result = evaluate(model, test);
  EXPECT_EQ(result.samples, 8u);
  EXPECT_DOUBLE_EQ(result.top1, 1.0);
  EXPECT_DOUBLE_EQ(result.top5, 1.0);
}

TEST(TrainStep, WeightDecayShrinksParameters) {
  util::Rng rng(21);
  Model with_decay = small_model(), without = small_model();
  with_decay.init(rng);
  without.from_flat(with_decay.to_flat());
  const auto x = make_batch_x(4, kFeatures, rng);
  const auto y = make_batch_y(4, kClasses, rng);
  ModelWorkspace wa, wb;
  for (int i = 0; i < 10; ++i) {
    with_decay.train_step(x, y, 0.1f, wa, /*weight_decay=*/0.1f);
    without.train_step(x, y, 0.1f, wb);
  }
  EXPECT_LT(with_decay.l2_norm_per_parameter(),
            without.l2_norm_per_parameter());
}

TEST(TrainStep, ZeroWeightDecayIsNoOp) {
  util::Rng rng(22);
  Model a = small_model(), b = small_model();
  a.init(rng);
  b.from_flat(a.to_flat());
  const auto x = make_batch_x(4, kFeatures, rng);
  const auto y = make_batch_y(4, kClasses, rng);
  ModelWorkspace wa, wb;
  a.train_step(x, y, 0.1f, wa, 0.0f);
  b.train_step(x, y, 0.1f, wb);
  EXPECT_DOUBLE_EQ(a.squared_distance(b), 0.0);
}

TEST(TrainStep, WeightDecayOnlyTouchedW1Rows) {
  util::Rng rng(23);
  Model model = small_model();
  model.init(rng);
  sparse::CsrBuilder bx(kFeatures);
  bx.add_row({{2, 1.0f}});
  const auto x = bx.build();
  const auto y = make_batch_y(1, kClasses, rng);
  const auto before = model.weights(0);
  ModelWorkspace ws;
  model.train_step(x, y, 0.1f, ws, 0.5f);
  // Untouched rows keep their exact values even with decay enabled.
  for (std::size_t h = 0; h < kHidden; ++h) {
    EXPECT_EQ(model.weights(0)(7, h), before(7, h));
  }
}

TEST(Evaluate, PrecisionAtKConsistency) {
  util::Rng rng(24);
  Model model = small_model();
  model.init(rng);
  sparse::LabeledDataset test{make_batch_x(60, kFeatures, rng),
                              make_batch_y(60, kClasses, rng, 3)};
  const auto r = evaluate(model, test);
  // P@1 == top1 by definition; precision can only dilute as k grows past
  // the number of true labels (3 here), so P@5 <= P@3 * (3/5)... at least
  // the weak bounds must hold.
  EXPECT_GE(r.p_at_3, 0.0);
  EXPECT_LE(r.p_at_3, 1.0);
  EXPECT_LE(r.p_at_5, r.p_at_3 + 1e-12);  // 3 labels cannot fill 5 slots
  EXPECT_GE(3.0 * r.p_at_3, r.top1 - 1e-12);  // top1 hit counts in p@3
}

TEST(Evaluate, PerfectModelPrecisionAtK) {
  // One true label per sample, perfectly ranked: P@1 = 1, P@3 = 1/3,
  // P@5 = 1/5.
  Model model(4, {4}, 8);
  for (std::size_t f = 0; f < 4; ++f) model.weights(0)(f, f) = 1.0f;
  for (std::size_t h = 0; h < 4; ++h) model.weights(1)(h, h) = 5.0f;
  sparse::CsrBuilder fx(4);
  sparse::CsrBuilder fy(8);
  for (std::uint32_t f = 0; f < 4; ++f) {
    fx.add_row({{f, 1.0f}});
    fy.add_indicator_row({f});
  }
  sparse::LabeledDataset test{fx.build(), fy.build()};
  const auto r = evaluate(model, test);
  EXPECT_DOUBLE_EQ(r.top1, 1.0);
  EXPECT_NEAR(r.p_at_3, 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(r.p_at_5, 1.0 / 5.0, 1e-12);
}

TEST(Evaluate, Top5AtLeastTop1) {
  util::Rng rng(10);
  Model model = small_model();
  model.init(rng);
  sparse::LabeledDataset test{make_batch_x(50, kFeatures, rng),
                              make_batch_y(50, kClasses, rng)};
  const auto result = evaluate(model, test);
  EXPECT_GE(result.top5, result.top1);
  EXPECT_LE(result.top5, 1.0);
}

// Differential test: the partial-selection top-5 evaluator against a naive
// full-sort reference, over random models and datasets.
TEST(Evaluate, MatchesFullSortReference) {
  for (std::uint64_t seed = 100; seed < 108; ++seed) {
    util::Rng rng(seed);
    Model model = small_model();
    model.init(rng);
    sparse::LabeledDataset test{make_batch_x(40, kFeatures, rng),
                                make_batch_y(40, kClasses, rng, 2)};
    const auto fast = evaluate(model, test);

    // Reference: full forward + full sort per row.
    ModelWorkspace ws;
    std::size_t top1 = 0, top5 = 0, p3 = 0, p5 = 0;
    for (std::size_t r = 0; r < 40; ++r) {
      const auto x = test.features.slice_rows(r, r + 1);
      const auto y = test.labels.slice_rows(r, r + 1);
      model.forward_loss(x, y, ws);
      std::vector<std::pair<float, std::size_t>> scored;
      for (std::size_t c = 0; c < kClasses; ++c) {
        scored.push_back({ws.probs(0, c), c});
      }
      std::stable_sort(scored.begin(), scored.end(),
                       [](const auto& a, const auto& b) {
                         return a.first > b.first;
                       });
      const auto is_true = [&](std::size_t c) {
        return test.labels.row_contains(r, static_cast<std::uint32_t>(c));
      };
      if (is_true(scored[0].second)) ++top1;
      bool any5 = false;
      for (std::size_t k = 0; k < 5; ++k) {
        if (is_true(scored[k].second)) {
          any5 = true;
          if (k < 3) ++p3;
          ++p5;
        }
      }
      if (any5) ++top5;
    }
    EXPECT_NEAR(fast.top1, top1 / 40.0, 1e-12) << seed;
    EXPECT_NEAR(fast.top5, top5 / 40.0, 1e-12) << seed;
    EXPECT_NEAR(fast.p_at_3, p3 / (3.0 * 40.0), 1e-12) << seed;
    EXPECT_NEAR(fast.p_at_5, p5 / (5.0 * 40.0), 1e-12) << seed;
  }
}

TEST(Evaluate, ThreadedWorkspaceMatchesSerialBits) {
  util::Rng rng(31);
  Model model(40, {8}, 30);
  model.init(rng);
  // 90 rows in batches of 32: the last batch (26 rows) splits unevenly.
  sparse::LabeledDataset test{make_batch_x(90, 40, rng),
                              make_batch_y(90, 30, rng, 3)};
  const auto serial = evaluate(model, test, 0, 32);

  util::ThreadPool pool(4);
  ModelWorkspace ws;
  ws.ctx = kernels::Context{&pool, 4};
  ws.ctx.serial_grain = 0;
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (int rep = 0; rep < 2; ++rep) {  // the workspace is reused
    const auto threaded = evaluate(model, test, ws, 0, 32);
    EXPECT_EQ(bits(threaded.top1), bits(serial.top1));
    EXPECT_EQ(bits(threaded.top5), bits(serial.top5));
    EXPECT_EQ(bits(threaded.p_at_3), bits(serial.p_at_3));
    EXPECT_EQ(bits(threaded.p_at_5), bits(serial.p_at_5));
    EXPECT_EQ(bits(threaded.loss), bits(serial.loss));
    EXPECT_EQ(threaded.samples, serial.samples);
  }
}

// Evaluation frozen bit for bit: top1, top5, P@3, P@5 and loss of seeded
// models with non-zero biases (one and two hidden layers) over 90 rows in
// batches of 32, through the serial call and a pooled workspace.
TEST(Evaluate, PinnedAtFixedSeed) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  struct Case {
    std::vector<std::size_t> hidden;
    std::uint64_t top1, top5, p_at_3, p_at_5, loss;
  };
  const Case cases[] = {
      {{8}, 0x3fac71c71c71c71cull, 0x3fd5555555555555ull,
       0x3fae573ac901e574ull, 0x3fb23456789abcdfull, 0x400d452dd2f684bfull},
      {{8, 6}, 0x3fb999999999999aull, 0x3fd8e38e38e38e39ull,
       0x3fb7b425ed097b42ull, 0x3fb50c83fb72ea62ull, 0x400ca7f4d97b425eull},
  };
  util::ThreadPool pool(3);
  for (const auto& c : cases) {
    util::Rng rng(2028);
    Model model(40, c.hidden, 30);
    model.init(rng);
    for (std::size_t l = 0; l < model.info().num_layers(); ++l) {
      for (float& b : model.biases(l)) {
        b = static_cast<float>(rng.uniform(-0.5, 0.5));
      }
    }
    const sparse::LabeledDataset test{make_batch_x(90, 40, rng),
                                      make_batch_y(90, 30, rng, 3)};
    ModelWorkspace pooled;
    pooled.ctx = kernels::Context{&pool, 3};
    pooled.ctx.serial_grain = 0;
    for (const auto& r : {evaluate(model, test, 0, 32),
                          evaluate(model, test, pooled, 0, 32)}) {
      const auto got = [&](double v) {
        std::ostringstream os;
        os << "hidden layers " << c.hidden.size() << ": 0x" << std::hex
           << bits(v) << "ull";
        return os.str();
      };
      EXPECT_EQ(bits(r.top1), c.top1) << got(r.top1);
      EXPECT_EQ(bits(r.top5), c.top5) << got(r.top5);
      EXPECT_EQ(bits(r.p_at_3), c.p_at_3) << got(r.p_at_3);
      EXPECT_EQ(bits(r.p_at_5), c.p_at_5) << got(r.p_at_5);
      EXPECT_EQ(bits(r.loss), c.loss) << got(r.loss);
      EXPECT_EQ(r.samples, 90u);
    }
  }
}

// A zero output layer scores every class equally: ranking must put labels
// 0..4 first, in order, so top1, top5, P@3 and P@5 count only the true
// labels among them.
TEST(Evaluate, TiedScoresRankLowerLabelsFirst) {
  util::Rng rng(2029);
  Model model(40, {8}, 30);
  model.init(rng);
  model.weights(1).fill(0.0f);
  std::fill(model.biases(1).begin(), model.biases(1).end(), 0.0f);
  const std::size_t n = 90;
  const sparse::LabeledDataset test{make_batch_x(n, 40, rng),
                                    make_batch_y(n, 30, rng, 3)};
  std::size_t top1 = 0, top5 = 0, p3 = 0, p5 = 0;
  for (std::size_t r = 0; r < n; ++r) {
    std::size_t in3 = 0, in5 = 0;
    for (const auto label : test.labels.row_cols(r)) {
      in3 += label < 3;
      in5 += label < 5;
    }
    top1 += test.labels.row_contains(r, 0);
    top5 += in5 > 0;
    p3 += in3;
    p5 += in5;
  }
  ASSERT_GT(top1, 0u);  // the data exercises hits and misses
  ASSERT_LT(top5, n);
  const auto d = [](std::size_t v) { return static_cast<double>(v); };
  const auto r = evaluate(model, test, 0, 32);
  EXPECT_DOUBLE_EQ(r.top1, d(top1) / d(n));
  EXPECT_DOUBLE_EQ(r.top5, d(top5) / d(n));
  EXPECT_DOUBLE_EQ(r.p_at_3, d(p3) / (3.0 * d(n)));
  EXPECT_DOUBLE_EQ(r.p_at_5, d(p5) / (5.0 * d(n)));
}

TEST(Evaluate, MaxSamplesLimits) {
  util::Rng rng(11);
  Model model = small_model();
  model.init(rng);
  sparse::LabeledDataset test{make_batch_x(50, kFeatures, rng),
                              make_batch_y(50, kClasses, rng)};
  EXPECT_EQ(evaluate(model, test, 10).samples, 10u);
  EXPECT_EQ(evaluate(model, test, 0).samples, 50u);
  EXPECT_EQ(evaluate(model, test, 500).samples, 50u);
}

}  // namespace
}  // namespace hetero::nn
