// nn::Optimizer tests (DESIGN.md §11): the sgd path's bit-identity to the
// fused train_step / apply_gradients, the lazy sparse-Adam contract against
// a per-row dense-Adam oracle (including exact K-step-skip catch-up),
// weight-decay semantics per algorithm, thread x ISA bit-identity for every
// optimizer, and the golden pin that fixes the refactored adaptive trainer
// to the pre-refactor sgd_step bit for bit.
#include "nn/optimizer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "core/adaptive_sgd.h"
#include "data/synthetic.h"
#include "sim/profiles.h"
#include "sparse/csr.h"
#include "tensor/vec/vec.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace hetero::nn {
namespace {

constexpr std::size_t kFeatures = 24;
constexpr std::size_t kHidden = 17;  // ragged against every SIMD lane width
constexpr std::size_t kClasses = 9;

Model small_model(util::Rng& rng) {
  Model m(kFeatures, {kHidden}, kClasses);
  m.init(rng);
  return m;
}

sparse::CsrMatrix make_batch_x(std::size_t rows, util::Rng& rng,
                               double density = 0.3) {
  sparse::CsrBuilder b(kFeatures);
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<sparse::Entry> entries;
    for (std::size_t c = 0; c < kFeatures; ++c) {
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

sparse::CsrMatrix make_batch_y(std::size_t rows, util::Rng& rng) {
  sparse::CsrBuilder b(kClasses);
  for (std::size_t r = 0; r < rows; ++r) {
    b.add_indicator_row({static_cast<std::uint32_t>(rng.next_below(kClasses))});
  }
  return b.build();
}

/// A batch whose feature rows come only from `features` (one sample per
/// feature) — the tool for steering which W1 rows a step touches.
sparse::CsrMatrix batch_touching(std::span<const std::uint32_t> features) {
  sparse::CsrBuilder b(kFeatures);
  for (const auto f : features) b.add_row({{f, 1.0f}});
  return b.build();
}

void expect_models_bit_equal(Model& a, Model& b, const char* what) {
  EXPECT_EQ(a.to_flat(), b.to_flat()) << what;
}

TEST(OptimizerKindNames, RoundTripAndRejects) {
  for (const auto kind : {OptimizerKind::kSgd, OptimizerKind::kAdam,
                          OptimizerKind::kAdamW, OptimizerKind::kAdagrad}) {
    const auto parsed = parse_optimizer_kind(to_string(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
    const auto from_byte =
        optimizer_kind_from_byte(static_cast<std::uint8_t>(kind));
    ASSERT_TRUE(from_byte.has_value());
    EXPECT_EQ(*from_byte, kind);
  }
  EXPECT_FALSE(parse_optimizer_kind("momentum").has_value());
  EXPECT_FALSE(parse_optimizer_kind("").has_value());
  EXPECT_FALSE(optimizer_kind_from_byte(4).has_value());
  EXPECT_FALSE(optimizer_kind_from_byte(0xff).has_value());
}

TEST(OptimizerShapes, SlotsAlignWithSegments) {
  util::Rng rng(1);
  auto model = small_model(rng);
  const struct {
    OptimizerKind kind;
    std::size_t slots;
    bool lazy;
  } expected[] = {{OptimizerKind::kSgd, 0, false},
                  {OptimizerKind::kAdam, 2, true},
                  {OptimizerKind::kAdamW, 2, true},
                  {OptimizerKind::kAdagrad, 1, false}};
  for (const auto& e : expected) {
    OptimizerConfig cfg;
    cfg.kind = e.kind;
    auto opt = Optimizer::make(cfg, model);
    EXPECT_EQ(opt->kind(), e.kind);
    EXPECT_EQ(opt->num_slots(), e.slots);
    EXPECT_EQ(opt->row_steps().size(), e.lazy ? kFeatures : 0u);
    const auto segs = model.segment_views();
    for (std::size_t slot = 0; slot < opt->num_slots(); ++slot) {
      const auto views = opt->slot_views(slot);
      ASSERT_EQ(views.size(), segs.size());
      for (std::size_t s = 0; s < segs.size(); ++s) {
        EXPECT_EQ(views[s].size(), segs[s].size()) << "slot " << slot;
      }
    }
  }
}

// The tentpole contract: the sgd optimizer is the pre-refactor update. Both
// against apply_gradients and against the fused train_step.
TEST(SgdOptimizer, BitIdenticalToApplyGradientsAndTrainStep) {
  util::Rng rng(2);
  auto a = small_model(rng);
  Model b = a;
  Model c = a;
  auto opt = Optimizer::make({}, a);
  ModelWorkspace wa;
  ModelWorkspace wb;
  ModelWorkspace wc;
  util::Rng data_rng(3);
  for (int step = 0; step < 5; ++step) {
    const auto x = make_batch_x(4, data_rng);
    const auto y = make_batch_y(4, data_rng);
    const float wd = step % 2 == 0 ? 0.0f : 1e-3f;
    a.compute_gradients(x, y, wa);
    opt->apply(a, wa, 0.2f, wd);
    b.compute_gradients(x, y, wb);
    b.apply_gradients(wb, 0.2f, wd);
    c.train_step(x, y, 0.2f, wc, wd);
    expect_models_bit_equal(a, b, "sgd optimizer vs apply_gradients");
    expect_models_bit_equal(a, c, "sgd optimizer vs fused train_step");
  }
}

// Reference Adam/AdamW oracle: dense per-row state advanced only on touched
// steps, with the test (not the optimizer) keeping the per-row counters.
// Runs the scalar kernel row by row, so any divergence in the lazy
// bookkeeping (counter order, bias corrections, segment offsets) shows up
// as a bit mismatch.
struct AdamOracle {
  explicit AdamOracle(Model& model, bool decoupled) : decoupled_(decoupled) {
    for (const auto seg : model.segment_views()) sizes_.push_back(seg.size());
    for (const auto s : sizes_) {
      m_.emplace_back(s, 0.0f);
      v_.emplace_back(s, 0.0f);
    }
    row_t_.assign(kFeatures, 0);
  }

  static float bias(double beta, std::uint64_t t) {
    return static_cast<float>(
        1.0 / (1.0 - std::pow(beta, static_cast<double>(t))));
  }

  void step(Model& model, const ModelWorkspace& ws, float lr, float wd) {
    const auto& vk = *vec::kernels_for(vec::Isa::kScalar);
    auto segs = model.segment_views();
    vec::AdamParams p;
    p.lr = lr;
    p.weight_decay = decoupled_ ? 0.0f : wd;
    p.keep = decoupled_ ? 1.0f - lr * wd : 1.0f;
    const auto& sg = ws.grad_w1;
    const auto rows = sg.rows();
    for (std::size_t s = 0; s < rows.size(); ++s) {
      const std::size_t r = rows[s];
      const std::uint32_t t = ++row_t_[r];
      vec::AdamParams pr = p;
      pr.bias1 = bias(0.9, t);
      pr.bias2 = bias(0.999, t);
      vk.adam_update(segs[0].data() + r * kHidden, sg.slot_values(s).data(),
                     m_[0].data() + r * kHidden, v_[0].data() + r * kHidden,
                     pr, kHidden);
    }
    const std::uint64_t t = ++step_;
    vec::AdamParams pd = p;
    pd.bias1 = bias(0.9, t);
    pd.bias2 = bias(0.999, t);
    for (std::size_t seg = 1; seg < segs.size(); ++seg) {
      vk.adam_update(segs[seg].data(), ws.dense_gradient(seg).data(),
                     m_[seg].data(), v_[seg].data(), pd, segs[seg].size());
    }
  }

  bool decoupled_;
  std::vector<std::size_t> sizes_;
  std::vector<std::vector<float>> m_, v_;
  std::vector<std::uint32_t> row_t_;
  std::uint64_t step_ = 0;
};

void expect_state_matches_oracle(Optimizer& opt, const AdamOracle& oracle,
                                 int step) {
  const std::vector<std::vector<float>>* slots[2] = {&oracle.m_, &oracle.v_};
  for (std::size_t slot = 0; slot < 2; ++slot) {
    const auto views = opt.slot_views(slot);
    for (std::size_t seg = 0; seg < views.size(); ++seg) {
      ASSERT_EQ(views[seg].size(), (*slots[slot])[seg].size());
      EXPECT_EQ(0, std::memcmp(views[seg].data(), (*slots[slot])[seg].data(),
                               views[seg].size() * sizeof(float)))
          << "slot " << slot << " seg " << seg << " step " << step;
    }
  }
  const auto steps = opt.row_steps();
  ASSERT_EQ(steps.size(), oracle.row_t_.size());
  for (std::size_t r = 0; r < steps.size(); ++r) {
    EXPECT_EQ(steps[r], oracle.row_t_[r]) << "row " << r << " step " << step;
  }
  EXPECT_EQ(opt.step(), oracle.step_);
}

TEST(LazyAdam, MatchesDenseOracleOnTouchedRows) {
  for (const bool decoupled : {false, true}) {
    util::Rng rng(4);
    auto model = small_model(rng);
    Model reference = model;
    OptimizerConfig cfg;
    cfg.kind = decoupled ? OptimizerKind::kAdamW : OptimizerKind::kAdam;
    auto opt = Optimizer::make(cfg, model);
    AdamOracle oracle(reference, decoupled);
    ModelWorkspace ws;
    ModelWorkspace wr;
    util::Rng data_rng(5);
    for (int step = 0; step < 12; ++step) {
      // Sparse batches: most rows are skipped on most steps, so the lazy
      // counters diverge from the dense step counter almost immediately.
      const auto x = make_batch_x(3, data_rng, 0.15);
      const auto y = make_batch_y(3, data_rng);
      const float wd = 1e-3f;
      model.compute_gradients(x, y, ws);
      opt->apply(model, ws, 0.05f, wd);
      reference.compute_gradients(x, y, wr);
      oracle.step(reference, wr, 0.05f, wd);
      expect_models_bit_equal(model, reference,
                              decoupled ? "adamw vs oracle" : "adam vs oracle");
      expect_state_matches_oracle(*opt, oracle, step);
    }
  }
}

// A row skipped for K steps and then revisited must see bias corrections
// for t=2 (its second touched step) — not t=K+2 — and its moments must be
// exactly the dense-Adam moments of its two-step touched subsequence.
TEST(LazyAdam, KStepSkipCatchesUpExactly) {
  constexpr std::uint32_t kRow = 3;
  constexpr int kSkip = 7;
  util::Rng rng(6);
  auto model = small_model(rng);
  auto opt = Optimizer::make({OptimizerKind::kAdam}, model);
  ModelWorkspace ws;
  util::Rng data_rng(7);

  const auto apply_once = [&](const sparse::CsrMatrix& x) {
    const auto y = make_batch_y(x.rows(), data_rng);
    model.compute_gradients(x, y, ws);
    // Capture the gradient of kRow before apply (the optimizer does not
    // modify the workspace, but copy for clarity).
    std::vector<float> g;
    const auto& sg = ws.grad_w1;
    const auto rows = sg.rows();
    for (std::size_t s = 0; s < rows.size(); ++s) {
      if (rows[s] == kRow) {
        const auto vals = sg.slot_values(s);
        g.assign(vals.begin(), vals.end());
      }
    }
    opt->apply(model, ws, 0.05f, 0.0f);
    return g;
  };

  // Step 1: touch kRow (alone). Steps 2..K+1: avoid kRow. Step K+2: kRow.
  const std::uint32_t only[] = {kRow};
  const std::uint32_t others[] = {0, 1, 5};
  const auto g1 = apply_once(batch_touching(only));
  ASSERT_EQ(g1.size(), kHidden);
  // Snapshot kRow's state after its first touch.
  std::vector<float> m1(opt->slot_views(0)[0].begin() + kRow * kHidden,
                        opt->slot_views(0)[0].begin() + (kRow + 1) * kHidden);
  std::vector<float> v1(opt->slot_views(1)[0].begin() + kRow * kHidden,
                        opt->slot_views(1)[0].begin() + (kRow + 1) * kHidden);
  std::vector<float> w1(model.segment_views()[0].begin() + kRow * kHidden,
                        model.segment_views()[0].begin() +
                            (kRow + 1) * kHidden);
  for (int i = 0; i < kSkip; ++i) apply_once(batch_touching(others));
  EXPECT_EQ(opt->row_steps()[kRow], 1u);  // untouched: counter frozen
  // Row state must be untouched bit for bit across the skip.
  EXPECT_EQ(0, std::memcmp(m1.data(),
                           opt->slot_views(0)[0].data() + kRow * kHidden,
                           kHidden * sizeof(float)));
  EXPECT_EQ(0, std::memcmp(w1.data(),
                           model.segment_views()[0].data() + kRow * kHidden,
                           kHidden * sizeof(float)));

  const auto g2 = apply_once(batch_touching(only));
  ASSERT_EQ(g2.size(), kHidden);
  EXPECT_EQ(opt->row_steps()[kRow], 2u);  // t advanced to 2, not kSkip + 2

  // Oracle for the revisit: dense Adam's step-2 update applied to the
  // snapshot, with bias corrections for t=2.
  const auto& vk = *vec::kernels_for(vec::Isa::kScalar);
  vec::AdamParams p;
  p.lr = 0.05f;
  p.bias1 = AdamOracle::bias(0.9, 2);
  p.bias2 = AdamOracle::bias(0.999, 2);
  auto w = w1;
  auto m = m1;
  auto v = v1;
  vk.adam_update(w.data(), g2.data(), m.data(), v.data(), p, kHidden);
  EXPECT_EQ(0, std::memcmp(w.data(),
                           model.segment_views()[0].data() + kRow * kHidden,
                           kHidden * sizeof(float)));
  EXPECT_EQ(0, std::memcmp(m.data(),
                           opt->slot_views(0)[0].data() + kRow * kHidden,
                           kHidden * sizeof(float)));
  EXPECT_EQ(0, std::memcmp(v.data(),
                           opt->slot_views(1)[0].data() + kRow * kHidden,
                           kHidden * sizeof(float)));
}

// Weight-decay semantics (satellite: explicit per optimizer). AdamW's decay
// is decoupled — the moments never see it; Adam's and Adagrad's is coupled —
// the state does see it.
TEST(WeightDecay, AdamWDecoupledAdamAdagradCoupled) {
  util::Rng rng(8);
  auto base = small_model(rng);
  util::Rng data_rng(9);
  const auto x = make_batch_x(4, data_rng);
  const auto y = make_batch_y(4, data_rng);

  const auto run_one = [&](OptimizerKind kind, float wd) {
    Model model = base;
    OptimizerConfig cfg;
    cfg.kind = kind;
    auto opt = Optimizer::make(cfg, model);
    ModelWorkspace ws;
    model.compute_gradients(x, y, ws);
    opt->apply(model, ws, 0.05f, wd);
    std::vector<std::vector<float>> state;
    for (std::size_t slot = 0; slot < opt->num_slots(); ++slot) {
      auto& flat = state.emplace_back();
      for (const auto seg : opt->slot_views(slot)) {
        flat.insert(flat.end(), seg.begin(), seg.end());
      }
    }
    return std::pair{model.to_flat(), state};
  };

  const auto [w_adamw_wd, s_adamw_wd] = run_one(OptimizerKind::kAdamW, 0.1f);
  const auto [w_adamw_0, s_adamw_0] = run_one(OptimizerKind::kAdamW, 0.0f);
  EXPECT_NE(w_adamw_wd, w_adamw_0);  // the decay does shrink parameters
  EXPECT_EQ(s_adamw_wd, s_adamw_0);  // but never enters the moments

  const auto [w_adam_wd, s_adam_wd] = run_one(OptimizerKind::kAdam, 0.1f);
  const auto [w_adam_0, s_adam_0] = run_one(OptimizerKind::kAdam, 0.0f);
  EXPECT_NE(w_adam_wd, w_adam_0);
  EXPECT_NE(s_adam_wd, s_adam_0);  // coupled: g' = g + wd*w feeds moments

  const auto [w_ada_wd, s_ada_wd] = run_one(OptimizerKind::kAdagrad, 0.1f);
  const auto [w_ada_0, s_ada_0] = run_one(OptimizerKind::kAdagrad, 0.0f);
  EXPECT_NE(w_ada_wd, w_ada_0);
  EXPECT_NE(s_ada_wd, s_ada_0);  // coupled: decay enters the accumulator

  // AdamW with wd=0 degenerates to Adam with wd=0, bit for bit.
  EXPECT_EQ(w_adamw_0, w_adam_0);
  EXPECT_EQ(s_adamw_0, s_adam_0);
}

TEST(WeightDecay, UntouchedRowsNeverDecay) {
  // The lazy-decay contract: segment-0 rows absent from the batch are
  // neither updated nor decayed, on every optimizer.
  for (const auto kind : {OptimizerKind::kSgd, OptimizerKind::kAdam,
                          OptimizerKind::kAdamW, OptimizerKind::kAdagrad}) {
    util::Rng rng(10);
    auto model = small_model(rng);
    OptimizerConfig cfg;
    cfg.kind = kind;
    auto opt = Optimizer::make(cfg, model);
    ModelWorkspace ws;
    util::Rng data_rng(11);
    const std::uint32_t touched[] = {2, 4};
    const auto x = batch_touching(touched);
    const auto y = make_batch_y(x.rows(), data_rng);
    const auto before = model.to_flat();
    model.compute_gradients(x, y, ws);
    opt->apply(model, ws, 0.1f, 0.5f);
    const auto after = model.to_flat();
    const auto seg0 = model.segment_views()[0];
    for (std::size_t r = 0; r < kFeatures; ++r) {
      if (r == 2 || r == 4) continue;
      EXPECT_EQ(0, std::memcmp(before.data() + r * kHidden,
                               seg0.data() + r * kHidden,
                               kHidden * sizeof(float)))
          << to_string(kind) << " row " << r;
    }
    EXPECT_NE(before, after) << to_string(kind);
  }
}

TEST(OptimizerReset, ZeroesAllState) {
  util::Rng rng(12);
  auto model = small_model(rng);
  for (const auto kind : {OptimizerKind::kAdam, OptimizerKind::kAdamW,
                          OptimizerKind::kAdagrad}) {
    OptimizerConfig cfg;
    cfg.kind = kind;
    auto opt = Optimizer::make(cfg, model);
    ModelWorkspace ws;
    util::Rng data_rng(13);
    for (int i = 0; i < 3; ++i) {
      const auto x = make_batch_x(4, data_rng);
      const auto y = make_batch_y(4, data_rng);
      model.compute_gradients(x, y, ws);
      opt->apply(model, ws, 0.05f, 0.0f);
    }
    EXPECT_GT(opt->step(), 0u);
    opt->reset_state();
    EXPECT_EQ(opt->step(), 0u);
    for (std::size_t slot = 0; slot < opt->num_slots(); ++slot) {
      for (const auto seg : opt->slot_views(slot)) {
        for (const float x : seg) EXPECT_EQ(x, 0.0f) << to_string(kind);
      }
    }
    for (const auto t : opt->row_steps()) EXPECT_EQ(t, 0u);
  }
}

// Thread x ISA bit-identity: every optimizer's apply produces the same bits
// under any vec table and any workspace thread count as the serial-scalar
// reference.
TEST(OptimizerDeterminism, ThreadAndIsaBitIdentity) {
  struct IsaGuard {
    vec::Isa saved = vec::active_isa();
    ~IsaGuard() { vec::set_isa(saved); }
  } guard;

  std::vector<vec::Isa> isas;
  for (const auto isa :
       {vec::Isa::kScalar, vec::Isa::kAvx2, vec::Isa::kAvx512}) {
    if (vec::isa_supported(isa)) isas.push_back(isa);
  }

  for (const auto kind : {OptimizerKind::kSgd, OptimizerKind::kAdam,
                          OptimizerKind::kAdamW, OptimizerKind::kAdagrad}) {
    // Reference: scalar ISA, serial workspace.
    util::Rng rng(14);
    auto ref_model = small_model(rng);
    const auto init = ref_model.to_flat();
    OptimizerConfig cfg;
    cfg.kind = kind;

    std::vector<sparse::CsrMatrix> xs, ys;
    util::Rng data_rng(15);
    for (int i = 0; i < 6; ++i) {
      xs.push_back(make_batch_x(5, data_rng, 0.25));
      ys.push_back(make_batch_y(5, data_rng));
    }

    const auto run = [&](vec::Isa isa, std::size_t threads) {
      vec::set_isa(isa);
      Model model = ref_model;
      model.from_flat(init);
      auto opt = Optimizer::make(cfg, model);
      ModelWorkspace ws;
      util::ThreadPool pool(threads == 0 ? 1 : threads);
      if (threads > 0) {
        ws.ctx = kernels::Context{&pool, threads};
        ws.ctx.serial_grain = 0;  // parallelize even tiny shapes
      }
      for (std::size_t i = 0; i < xs.size(); ++i) {
        model.compute_gradients(xs[i], ys[i], ws);
        opt->apply(model, ws, 0.05f, 1e-3f);
      }
      std::vector<float> state;
      for (std::size_t slot = 0; slot < opt->num_slots(); ++slot) {
        for (const auto seg : opt->slot_views(slot)) {
          state.insert(state.end(), seg.begin(), seg.end());
        }
      }
      return std::pair{model.to_flat(), state};
    };

    const auto [ref_w, ref_s] = run(vec::Isa::kScalar, 0);
    for (const auto isa : isas) {
      for (const std::size_t threads : {std::size_t{0}, std::size_t{2},
                                        std::size_t{5}}) {
        const auto [w, s] = run(isa, threads);
        EXPECT_EQ(w, ref_w) << to_string(kind) << " isa "
                            << vec::isa_name(isa) << " threads " << threads;
        EXPECT_EQ(s, ref_s) << to_string(kind) << " isa "
                            << vec::isa_name(isa) << " threads " << threads;
      }
    }
  }
}

// ---- golden pin: --optimizer sgd through the full adaptive trainer --------
//
// Captured from the pre-refactor binary (sgd_step fused path) at commit
// "Compress merge payloads". The refactored compute_gradients +
// SgdOptimizer::apply pipeline must reproduce these bits exactly; any
// change here is a behavioral break of the default training path.

std::uint64_t fnv1a(const std::vector<float>& v) {
  std::uint64_t h = 1469598103934665603ull;
  for (const float f : v) {
    std::uint32_t bits;
    std::memcpy(&bits, &f, sizeof(bits));
    for (int i = 0; i < 4; ++i) {
      h ^= (bits >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

std::uint32_t word_bits(const std::vector<float>& v, std::size_t i) {
  std::uint32_t bits;
  std::memcpy(&bits, &v[i], sizeof(bits));
  return bits;
}

core::TrainerConfig golden_config() {
  core::TrainerConfig cfg;
  cfg.hidden = 16;
  cfg.batch_max = 32;
  cfg.batches_per_megabatch = 16;
  cfg.num_megabatches = 3;
  cfg.learning_rate = 0.5;
  cfg.eval_samples = 200;
  cfg.compute_scale = 2000.0;
  cfg.seed = 20220429;
  return cfg;
}

const data::XmlDataset& golden_dataset() {
  static const data::XmlDataset dataset = [] {
    auto tiny = data::tiny_profile();
    tiny.num_train = 2000;
    return data::generate_xml_dataset(tiny);
  }();
  return dataset;
}

TEST(GoldenSgd, AdaptiveTrainerBitIdenticalToPreRefactor) {
  core::AdaptiveSgdTrainer trainer(golden_dataset(), golden_config(),
                                   sim::v100_heterogeneous(3, 0.32));
  const auto result = trainer.train();
  const auto flat = trainer.runtime().global_model().to_flat();
  ASSERT_EQ(flat.size(), 9296u);
  EXPECT_EQ(fnv1a(flat), 0x9279a5510df03864ull);
  EXPECT_EQ(word_bits(flat, 0), 0x3e38a8d6u);
  EXPECT_EQ(word_bits(flat, flat.size() / 2), 0x3d4f9772u);
  EXPECT_EQ(word_bits(flat, flat.size() - 1), 0xbe06c48au);
  EXPECT_DOUBLE_EQ(result.final_top1(), 0.665);
}

TEST(GoldenSgd, WeightDecaySparseMergeBitIdenticalToPreRefactor) {
  auto cfg = golden_config();
  cfg.weight_decay = 1e-4;
  cfg.sparse_merge = true;
  core::AdaptiveSgdTrainer trainer(golden_dataset(), cfg,
                                   sim::v100_heterogeneous(3, 0.32));
  const auto result = trainer.train();
  const auto flat = trainer.runtime().global_model().to_flat();
  ASSERT_EQ(flat.size(), 9296u);
  EXPECT_EQ(fnv1a(flat), 0xd6c29f47527b8280ull);
  EXPECT_EQ(word_bits(flat, 0), 0x3e38b7bcu);
  EXPECT_EQ(word_bits(flat, flat.size() / 2), 0x3d4f776du);
  EXPECT_EQ(word_bits(flat, flat.size() - 1), 0xbe06b7a4u);
  EXPECT_DOUBLE_EQ(result.final_top1(), 0.665);
}

// All four optimizers drive the full adaptive trainer to a working model,
// deterministically: same config, same bits, run to run.
TEST(OptimizerTrainers, AllKindsTrainAndRepeatBitIdentically) {
  for (const auto kind : {OptimizerKind::kAdam, OptimizerKind::kAdamW,
                          OptimizerKind::kAdagrad}) {
    auto cfg = golden_config();
    cfg.optimizer.kind = kind;
    cfg.learning_rate = kind == OptimizerKind::kAdagrad ? 0.1 : 0.02;
    cfg.weight_decay = 1e-4;
    core::AdaptiveSgdTrainer a(golden_dataset(), cfg,
                               sim::v100_heterogeneous(3, 0.32));
    const auto ra = a.train();
    EXPECT_GT(ra.final_top1(), ra.curve.front().top1) << to_string(kind);
    core::AdaptiveSgdTrainer b(golden_dataset(), cfg,
                               sim::v100_heterogeneous(3, 0.32));
    b.train();
    EXPECT_EQ(a.runtime().global_model().to_flat(),
              b.runtime().global_model().to_flat())
        << to_string(kind);
    for (std::size_t g = 0; g < a.runtime().num_gpus(); ++g) {
      auto& oa = a.runtime().optimizer(g);
      auto& ob = b.runtime().optimizer(g);
      EXPECT_EQ(oa.step(), ob.step());
      for (std::size_t slot = 0; slot < ob.num_slots(); ++slot) {
        const auto va = oa.slot_views(slot);
        const auto vb = ob.slot_views(slot);
        for (std::size_t seg = 0; seg < vb.size(); ++seg) {
          EXPECT_EQ(0, std::memcmp(va[seg].data(), vb[seg].data(),
                                   vb[seg].size() * sizeof(float)))
              << to_string(kind) << " slot " << slot << " seg " << seg;
        }
      }
    }
  }
}

}  // namespace
}  // namespace hetero::nn
