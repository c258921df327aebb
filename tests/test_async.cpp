// Asynchronous SGD baseline tests: staleness accounting and convergence
// behavior (Section II: async avoids barriers but risks poor convergence).
#include "core/trainer.h"

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "pinned_run.h"
#include "sim/profiles.h"

namespace hetero::core {
namespace {

const data::XmlDataset& dataset() {
  static const data::XmlDataset d = [] {
    auto cfg = data::tiny_profile();
    cfg.num_train = 2000;
    return data::generate_xml_dataset(cfg);
  }();
  return d;
}

TrainerConfig config() {
  TrainerConfig cfg;
  cfg.hidden = 16;
  cfg.batch_max = 32;
  cfg.batches_per_megabatch = 16;
  cfg.num_megabatches = 4;
  cfg.learning_rate = 0.3;
  cfg.eval_samples = 200;
  cfg.compute_scale = 2000.0;
  return cfg;
}

TrainResult run(std::size_t gpus, TrainerConfig cfg = config()) {
  return make_trainer(Method::kAsync, dataset(), cfg,
                      sim::v100_heterogeneous(gpus))
      ->train();
}

TEST(AsyncSgd, ImprovesAccuracy) {
  const auto r = run(2);
  EXPECT_GT(r.final_top1(), r.curve.front().top1 + 0.15);
}

TEST(AsyncSgd, SingleGpuHasZeroStaleness) {
  const auto r = run(1);
  EXPECT_DOUBLE_EQ(r.avg_staleness, 0.0);
}

TEST(AsyncSgd, StalenessNearGpuCountMinusOne) {
  // In steady state each apply sees the other n-1 GPUs' interleaved
  // updates.
  const auto r = run(4);
  EXPECT_GT(r.avg_staleness, 1.5);
  EXPECT_LT(r.avg_staleness, 4.0);
}

TEST(AsyncSgd, StalenessGrowsWithGpuCount) {
  EXPECT_LT(run(2).avg_staleness, run(4).avg_staleness);
}

TEST(AsyncSgd, NoCommunicationCharged) {
  // No barriers, no merging: the shared model lives host-side.
  const auto r = run(4);
  EXPECT_DOUBLE_EQ(r.comm_seconds, 0.0);
}

TEST(AsyncSgd, NoBarrierMeansNoStragglerWait) {
  // With heterogeneous GPUs, total time is governed by throughput, not by
  // the slowest device's barrier arrival: async should finish the same
  // sample budget at least as fast as elastic.
  auto cfg = config();
  const auto async_r = make_trainer(Method::kAsync, dataset(), cfg,
                                    sim::v100_heterogeneous(4, 0.5))
                           ->train();
  const auto elastic_r = make_trainer(Method::kElastic, dataset(), cfg,
                                      sim::v100_heterogeneous(4, 0.5))
                             ->train();
  EXPECT_LE(async_r.total_vtime, elastic_r.total_vtime);
}

TEST(AsyncSgd, Deterministic) {
  const auto a = run(3);
  const auto b = run(3);
  ASSERT_EQ(a.curve.size(), b.curve.size());
  for (std::size_t i = 0; i < a.curve.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.curve[i].top1, b.curve[i].top1);
    EXPECT_DOUBLE_EQ(a.curve[i].vtime, b.curve[i].vtime);
  }
}

TEST(AsyncSgd, UpdateCountsSkewWithSpeed) {
  auto cfg = config();
  cfg.batches_per_megabatch = 32;
  const auto r = make_trainer(Method::kAsync, dataset(), cfg,
                              sim::v100_heterogeneous(4, 0.5))
                     ->train();
  EXPECT_GT(r.gpus[0].total_updates, r.gpus[3].total_updates);
}

TEST(AsyncSgd, SamplesAccountedPerMegabatch) {
  auto cfg = config();
  cfg.num_megabatches = 3;
  const auto r = run(2, cfg);
  std::size_t total = 0;
  for (const auto& g : r.gpus) total += g.total_samples;
  // Every mega-batch processes at least megabatch_samples (the event loop
  // may overshoot by at most one batch per GPU).
  EXPECT_GE(total, cfg.megabatch_samples() * cfg.num_megabatches);
  EXPECT_LE(total, cfg.megabatch_samples() * cfg.num_megabatches +
                       cfg.num_megabatches * 2 * cfg.batch_max);
}

TEST(AsyncSgd, MethodName) {
  EXPECT_EQ(to_string(Method::kAsync), "async-sgd");
  auto t = make_trainer(Method::kAsync, dataset(), config(),
                        sim::v100_heterogeneous(2));
  EXPECT_EQ(t->method_name(), "async-sgd");
}

PinnedRun run_pinned(std::size_t gpus, const std::string& plan = "") {
  auto trainer = make_trainer(Method::kAsync, dataset(), config(),
                              sim::v100_heterogeneous(gpus));
  if (!plan.empty()) {
    fault::FaultInjector(fault::FaultPlan::parse(plan))
        .arm(trainer->runtime());
  }
  const auto result = trainer->train();
  return pin_run(*trainer, result);
}

// Asynchronous SGD's outputs, frozen bit for bit: model, virtual time,
// staleness, curve and the per-GPU update counts of the event loop.
TEST(AsyncSgd, PinnedFourGpus) {
  const PinnedRun expected{
      0x415f1c7c326bddacull, 0x3f8a0471c5c76668ull, 0x0ull,
      0x4007400000000000ull, {0.03, 0.58, 0.405, 0.765, 0.705},
      {{4, 5, 5, 4}, {4, 4, 4, 5}, {4, 4, 3, 4}, {4, 3, 4, 3}}};
  EXPECT_EQ(run_pinned(4), expected);
}

TEST(AsyncSgd, PinnedStallAndSlowdown) {
  const PinnedRun expected{
      0x054b3aab6227e618ull, 0x3f925df1aac919efull, 0x0ull,
      0x3fff400000000000ull, {0.03, 0.62, 0.7, 0.765, 0.82},
      {{6, 8, 7, 6}, {5, 4, 5, 6}, {5, 4, 4, 4}}};
  EXPECT_EQ(
      run_pinned(3, "stall@0.004+0.003:gpu1;slow@0.006+0.005x0.5:gpu2"),
      expected);
}

}  // namespace
}  // namespace hetero::core
