#include "core/trainer.h"

#include <gtest/gtest.h>

#include "core/adaptive_sgd.h"
#include "data/synthetic.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "pinned_run.h"
#include "sim/profiles.h"

namespace hetero::core {
namespace {

const data::XmlDataset& tiny_dataset() {
  static const data::XmlDataset dataset = [] {
    auto cfg = data::tiny_profile();
    cfg.num_train = 2000;
    return data::generate_xml_dataset(cfg);
  }();
  return dataset;
}

TrainerConfig fast_config() {
  TrainerConfig cfg;
  cfg.hidden = 16;
  cfg.batch_max = 32;
  cfg.batches_per_megabatch = 16;
  cfg.num_megabatches = 4;
  cfg.learning_rate = 0.5;
  cfg.eval_samples = 200;
  // Large enough that per-batch compute dominates kernel-launch overhead —
  // otherwise the simulated GPUs look homogeneous (see TrainerConfig docs).
  cfg.compute_scale = 2000.0;
  return cfg;
}

TrainResult run(Method method, TrainerConfig cfg, std::size_t gpus,
                double gap = 0.32) {
  auto trainer = make_trainer(method, tiny_dataset(), cfg,
                              sim::v100_heterogeneous(gpus, gap));
  return trainer->train();
}

TEST(Trainers, AllMethodsImproveAccuracy) {
  for (auto method : {Method::kAdaptive, Method::kElastic, Method::kSync,
                      Method::kCrossbow}) {
    const auto result = run(method, fast_config(), 2);
    ASSERT_GE(result.curve.size(), 2u) << to_string(method);
    EXPECT_GT(result.final_top1(), result.curve.front().top1 + 0.15)
        << to_string(method);
    EXPECT_GT(result.total_vtime, 0.0);
  }
}

TEST(Trainers, CurveHasExpectedCadence) {
  auto cfg = fast_config();
  cfg.num_megabatches = 3;
  const auto result = run(Method::kAdaptive, cfg, 2);
  ASSERT_EQ(result.curve.size(), 4u);  // initial + 3 mega-batches
  EXPECT_EQ(result.curve[0].samples, 0u);
  for (std::size_t i = 1; i < result.curve.size(); ++i) {
    EXPECT_EQ(result.curve[i].samples - result.curve[i - 1].samples,
              cfg.megabatch_samples());
    EXPECT_GT(result.curve[i].vtime, result.curve[i - 1].vtime);
  }
}

TEST(Trainers, AdaptiveFasterThanElasticOnHeterogeneousServer) {
  // The core claim: with the same total work, dynamic scheduling finishes a
  // mega-batch sooner than static partitioning under GPU heterogeneity.
  const auto adaptive = run(Method::kAdaptive, fast_config(), 4);
  const auto elastic = run(Method::kElastic, fast_config(), 4);
  EXPECT_LT(adaptive.total_vtime, elastic.total_vtime);
}

TEST(Trainers, AdaptiveMatchesElasticOnHomogeneousSingleGpu) {
  // Section V: with one GPU both degrade to mini-batch SGD and are
  // "identical" — same samples, same update rule, same accuracy curve.
  auto cfg = fast_config();
  auto a = make_trainer(Method::kAdaptive, tiny_dataset(), cfg,
                        sim::v100_heterogeneous(1));
  auto e = make_trainer(Method::kElastic, tiny_dataset(), cfg,
                        sim::v100_heterogeneous(1));
  const auto ra = a->train();
  const auto re = e->train();
  ASSERT_EQ(ra.curve.size(), re.curve.size());
  for (std::size_t i = 0; i < ra.curve.size(); ++i) {
    EXPECT_DOUBLE_EQ(ra.curve[i].top1, re.curve[i].top1) << i;
  }
}

TEST(Trainers, SyncSlowerThanAdaptive) {
  // Per-batch global updates + framework overhead make the TF-style
  // baseline the slowest GPU method (Fig. 4).
  const auto adaptive = run(Method::kAdaptive, fast_config(), 4);
  const auto sync = run(Method::kSync, fast_config(), 4);
  EXPECT_GT(sync.total_vtime, adaptive.total_vtime);
}

TEST(Trainers, AdaptiveUpdateCountsSkewWithHeterogeneity) {
  auto cfg = fast_config();
  cfg.enable_batch_scaling = false;  // isolate dynamic scheduling
  cfg.batches_per_megabatch = 32;
  const auto result = run(Method::kAdaptive, cfg, 4, 0.5);
  // Fastest GPU (0) must process more batches than the slowest (3).
  EXPECT_GT(result.gpus[0].total_updates, result.gpus[3].total_updates);
}

TEST(Trainers, BatchScalingKeepsBatchInBounds) {
  auto cfg = fast_config();
  cfg.num_megabatches = 6;
  const auto result = run(Method::kAdaptive, cfg, 4, 0.5);
  for (const auto& gpu : result.gpus) {
    for (auto b : gpu.batch_size) {
      EXPECT_GE(b, cfg.derived_batch_min());
      EXPECT_LE(b, cfg.batch_max);
    }
  }
}

TEST(Trainers, BatchScalingReducesUpdateSpread) {
  auto cfg = fast_config();
  cfg.batches_per_megabatch = 32;
  cfg.num_megabatches = 8;
  const auto result = run(Method::kAdaptive, cfg, 4, 0.5);
  const auto spread_at = [&](std::size_t m) {
    std::size_t mn = result.gpus[0].updates[m], mx = mn;
    for (const auto& g : result.gpus) {
      mn = std::min(mn, g.updates[m]);
      mx = std::max(mx, g.updates[m]);
    }
    return mx - mn;
  };
  // The final mega-batch should be at least as balanced as the first.
  EXPECT_LE(spread_at(result.merges - 1), spread_at(0));
}

TEST(Trainers, ScalingDisabledKeepsBatchConstant) {
  auto cfg = fast_config();
  cfg.enable_batch_scaling = false;
  const auto result = run(Method::kAdaptive, cfg, 4);
  for (const auto& gpu : result.gpus) {
    for (auto b : gpu.batch_size) EXPECT_EQ(b, cfg.batch_max);
  }
  EXPECT_EQ(result.scaling_updates, 0u);
}

TEST(Trainers, PerturbationCountedOnlyWhenEnabled) {
  auto cfg = fast_config();
  const auto with = run(Method::kAdaptive, cfg, 4);
  cfg.enable_perturbation = false;
  const auto without = run(Method::kAdaptive, cfg, 4);
  EXPECT_GT(with.perturbation_frequency(), 0.0);
  EXPECT_EQ(without.perturbed_merges, 0u);
}

TEST(Trainers, ElasticUpdatesEqualAcrossGpus) {
  const auto result = run(Method::kElastic, fast_config(), 4);
  for (std::size_t m = 0; m < result.merges; ++m) {
    for (const auto& gpu : result.gpus) {
      EXPECT_EQ(gpu.updates[m], result.gpus[0].updates[m]);
    }
  }
}

TEST(Trainers, VirtualTimeBudgetStopsEarly) {
  auto cfg = fast_config();
  cfg.num_megabatches = 100;
  cfg.virtual_time_budget = 1e-9;  // expires immediately after first merge
  const auto result = run(Method::kAdaptive, cfg, 2);
  EXPECT_EQ(result.merges, 1u);
}

TEST(Trainers, DeterministicRepeatability) {
  const auto a = run(Method::kAdaptive, fast_config(), 4);
  const auto b = run(Method::kAdaptive, fast_config(), 4);
  ASSERT_EQ(a.curve.size(), b.curve.size());
  for (std::size_t i = 0; i < a.curve.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.curve[i].top1, b.curve[i].top1);
    EXPECT_DOUBLE_EQ(a.curve[i].vtime, b.curve[i].vtime);
  }
}

TEST(Trainers, ThreadedModeMatchesDeterministicCurve) {
  auto cfg = fast_config();
  cfg.num_megabatches = 2;
  const auto det = run(Method::kAdaptive, cfg, 3);
  cfg.mode = ExecutionMode::kThreaded;
  const auto thr = run(Method::kAdaptive, cfg, 3);
  ASSERT_EQ(det.curve.size(), thr.curve.size());
  for (std::size_t i = 0; i < det.curve.size(); ++i) {
    EXPECT_DOUBLE_EQ(det.curve[i].top1, thr.curve[i].top1);
  }
}

TEST(Trainers, TimeToAccuracyInterpolates) {
  TrainResult r;
  r.curve.push_back({.vtime = 0.0, .top1 = 0.0});
  r.curve.push_back({.vtime = 10.0, .top1 = 0.5});
  const auto t = r.time_to_accuracy(0.25);
  ASSERT_TRUE(t.has_value());
  EXPECT_NEAR(*t, 5.0, 1e-12);
  EXPECT_FALSE(r.time_to_accuracy(0.9).has_value());
}

TEST(Trainers, AdaptiveUtilizationBeatsElasticUnderHeterogeneity) {
  // The straggler problem IS low utilization: Elastic's fast GPUs idle at
  // the mega-batch barrier while Adaptive fills the gaps (Figure 2).
  const auto adaptive = run(Method::kAdaptive, fast_config(), 4, 0.5);
  const auto elastic = run(Method::kElastic, fast_config(), 4, 0.5);
  EXPECT_GT(adaptive.min_utilization(), elastic.min_utilization());
  EXPECT_GT(adaptive.mean_utilization(), elastic.mean_utilization());
  EXPECT_LE(adaptive.mean_utilization(), 1.0);
}

TEST(Trainers, UtilizationZeroForEmptyResult) {
  TrainResult empty;
  EXPECT_EQ(empty.mean_utilization(), 0.0);
  EXPECT_EQ(empty.min_utilization(), 0.0);
}

TEST(Trainers, BusySecondsBelowTotal) {
  const auto result = run(Method::kAdaptive, fast_config(), 4);
  for (const auto& gpu : result.gpus) {
    EXPECT_GT(gpu.busy_seconds, 0.0);
    EXPECT_LE(gpu.busy_seconds, result.total_vtime);
  }
}

TEST(Trainers, MergesMatchMegabatches) {
  auto cfg = fast_config();
  cfg.num_megabatches = 5;
  for (auto method : {Method::kAdaptive, Method::kElastic}) {
    const auto result = run(method, cfg, 2);
    EXPECT_EQ(result.merges, 5u) << to_string(method);
  }
}

TEST(Trainers, FactoryNames) {
  auto t = make_trainer(Method::kCrossbow, tiny_dataset(), fast_config(),
                        sim::v100_heterogeneous(2));
  EXPECT_EQ(t->method_name(), "crossbow-sma");
}

TEST(Trainers, WarmupStillConverges) {
  auto cfg = fast_config();
  cfg.warmup_megabatches = 2;
  const auto r = run(Method::kAdaptive, cfg, 2);
  EXPECT_GT(r.final_top1(), r.curve.front().top1 + 0.15);
}

TEST(Trainers, WarmupChangesEarlyTrajectory) {
  auto base = fast_config();
  const auto without = run(Method::kAdaptive, base, 2);
  base.warmup_megabatches = 3;
  const auto with = run(Method::kAdaptive, base, 2);
  // Smaller effective learning rate on the first mega-batch -> different
  // (typically lower) accuracy at the first evaluation point.
  ASSERT_GE(with.curve.size(), 2u);
  EXPECT_NE(with.curve[1].top1, without.curve[1].top1);
}

TEST(Trainers, AutoBatchMaxDerivedFromMemory) {
  auto cfg = fast_config();
  cfg.batch_max = 0;  // derive from device memory
  auto devices = sim::v100_heterogeneous(2);
  auto trainer = make_trainer(Method::kAdaptive, tiny_dataset(), cfg,
                              devices);
  const auto r = trainer->train();
  // 16 GB fits far more than the 1024 cap.
  ASSERT_FALSE(r.gpus[0].batch_size.empty());
  EXPECT_EQ(r.gpus[0].batch_size[0], 1024u);
}

TEST(Trainers, AutoBatchMaxRespectsSmallMemory) {
  auto cfg = fast_config();
  cfg.batch_max = 0;
  auto devices = sim::v100_heterogeneous(2);
  for (auto& d : devices) d.memory_bytes = 4 * 1024 * 1024;  // 4 MB cards
  auto trainer = make_trainer(Method::kAdaptive, tiny_dataset(), cfg,
                              devices);
  const auto r = trainer->train();
  ASSERT_FALSE(r.gpus[0].batch_size.empty());
  EXPECT_LT(r.gpus[0].batch_size[0], 1024u);
  EXPECT_GE(r.gpus[0].batch_size[0], 16u);
}

TEST(Trainers, AdaptiveCadenceStillConverges) {
  auto cfg = fast_config();
  cfg.adaptive_scaling_cadence = true;
  cfg.num_megabatches = 6;
  const auto r = run(Method::kAdaptive, cfg, 4);
  EXPECT_GT(r.final_top1(), 0.3);
  for (const auto& gpu : r.gpus) {
    for (auto b : gpu.batch_size) {
      EXPECT_GE(b, cfg.derived_batch_min());
      EXPECT_LE(b, cfg.batch_max);
    }
  }
}

TEST(Trainers, ProductNormalizationConfigRuns) {
  auto cfg = fast_config();
  cfg.merge_normalization = MergeNormalization::kUpdatesTimesBatch;
  const auto r = run(Method::kAdaptive, cfg, 4);
  EXPECT_GT(r.final_top1(), 0.3);
}

TEST(Trainers, LrDecayScheduleFactorsIntoUpdates) {
  auto base = fast_config();
  base.num_megabatches = 4;
  const auto plain = run(Method::kElastic, base, 2);
  base.lr_decay = 0.1;  // aggressive decay to make the effect unmistakable
  base.lr_decay_every = 1;
  const auto decayed = run(Method::kElastic, base, 2);
  // After the first mega-batch the decayed run moves far less; accuracy
  // trajectories must diverge.
  ASSERT_EQ(plain.curve.size(), decayed.curve.size());
  EXPECT_EQ(plain.curve[1].top1, decayed.curve[1].top1);  // same first mb
  bool diverged = false;
  for (std::size_t i = 2; i < plain.curve.size(); ++i) {
    diverged |= plain.curve[i].top1 != decayed.curve[i].top1;
  }
  EXPECT_TRUE(diverged);
}

TEST(Trainers, EarlyStoppingCutsRunShort) {
  auto cfg = fast_config();
  cfg.num_megabatches = 50;
  cfg.learning_rate = 0.0;  // cannot improve -> stop after patience
  cfg.early_stop_patience = 2;
  cfg.early_stop_delta = 0.001;
  const auto r = run(Method::kAdaptive, cfg, 2);
  EXPECT_LE(r.merges, 4u);  // 1 boundary + ~patience mega-batches
}

TEST(Trainers, EarlyStoppingDisabledRunsFull) {
  auto cfg = fast_config();
  cfg.num_megabatches = 5;
  cfg.learning_rate = 0.0;
  cfg.early_stop_patience = 0;
  const auto r = run(Method::kAdaptive, cfg, 2);
  EXPECT_EQ(r.merges, 5u);
}

TEST(Trainers, CustomSpeedProfileSkewsWork) {
  auto cfg = fast_config();
  cfg.enable_batch_scaling = false;
  cfg.batches_per_megabatch = 32;
  auto trainer = make_trainer(Method::kAdaptive, tiny_dataset(), cfg,
                              sim::v100_custom({1.0, 1.0, 0.4}));
  const auto r = trainer->train();
  // The 0.4-speed device must process clearly fewer batches.
  EXPECT_GT(r.gpus[0].total_updates, r.gpus[2].total_updates);
  EXPECT_GT(r.gpus[1].total_updates, r.gpus[2].total_updates);
}

TEST(Trainers, WeightDecayRegularizesGlobalModel) {
  auto cfg = fast_config();
  const auto plain = run(Method::kAdaptive, cfg, 2);
  cfg.weight_decay = 0.05;
  const auto decayed = run(Method::kAdaptive, cfg, 2);
  // Both learn; decayed run keeps a tighter parameter norm (reflected in
  // the perturbation gate staying active at least as often).
  EXPECT_GT(decayed.final_top1(), 0.2);
  EXPECT_GE(decayed.perturbation_frequency(),
            plain.perturbation_frequency() - 1e-9);
}

PinnedRun run_pinned(Method method, const TrainerConfig& cfg,
                     std::size_t gpus, const std::string& plan = "") {
  auto trainer = make_trainer(method, tiny_dataset(), cfg,
                              sim::v100_heterogeneous(gpus));
  if (!plan.empty()) {
    fault::FaultInjector(fault::FaultPlan::parse(plan))
        .arm(trainer->runtime());
  }
  const auto result = trainer->train();
  return pin_run(*trainer, result);
}

// Elastic SGD's outputs, frozen bit for bit. 18 batches per mega-batch is
// not a multiple of 4 GPUs, so the static round-robin cursor matters.
TEST(Trainers, ElasticPinnedFourGpusUnevenRoundRobin) {
  auto cfg = fast_config();
  cfg.batches_per_megabatch = 18;
  const PinnedRun expected{
      0x36267884c5d81d9eull, 0x3f8ea4c955c21f8aull, 0x3f49b329b2d11d64ull,
      0x0ull, {0.03, 0.465, 0.555, 0.65, 0.74},
      {{5, 5, 5, 5}, {5, 5, 5, 5}, {4, 4, 4, 4}, {4, 4, 4, 4}}};
  EXPECT_EQ(run_pinned(Method::kElastic, cfg, 4), expected);
}

TEST(Trainers, ElasticPinnedSparseMergeCrashThenJoin) {
  auto cfg = fast_config();
  cfg.sparse_merge = true;
  const PinnedRun expected{
      0xcb730ed0701cce27ull, 0x3f9432f443f5c410ull, 0x3f3ec0e75a3f3459ull,
      0x0ull, {0.03, 0.465, 0.61, 0.745, 0.735},
      {{6, 7, 9, 6}, {5, 3, 0, 5}, {5, 6, 7, 5}}};
  EXPECT_EQ(run_pinned(Method::kElastic, cfg, 3,
                       "crash@0.006:gpu1;join@0.011:gpu1"),
            expected);
}

class GpuCountSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GpuCountSweep, AdaptiveRunsAtAnyGpuCount) {
  const auto result = run(Method::kAdaptive, fast_config(), GetParam());
  EXPECT_EQ(result.num_gpus, GetParam());
  EXPECT_GT(result.final_top1(), 0.1);
}

INSTANTIATE_TEST_SUITE_P(Counts, GpuCountSweep, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace hetero::core
