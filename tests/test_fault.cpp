// Fault-tolerance subsystem tests: fault plans, injection, elastic
// membership (degraded merging), OOM clamping, and checkpointed recovery.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "comm/quant.h"
#include "core/adaptive_sgd.h"
#include "core/batch_scaling.h"
#include "core/merging.h"
#include "core/param_server.h"
#include "core/runtime.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "fault/checkpoint.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "nn/model.h"
#include "nn/serialize.h"
#include "pinned_run.h"
#include "sim/profiles.h"
#include "sim/trace.h"
#include "util/error.h"
#include "util/rng.h"

namespace hetero {
namespace {

// save_checkpoint's bytes at the trainer's current boundary.
std::string checkpoint_bytes(core::AdaptiveSgdTrainer& trainer) {
  std::ostringstream out(std::ios::binary);
  fault::save_checkpoint(out, fault::capture_checkpoint(trainer));
  return out.str();
}

fault::TrainingCheckpoint load_from_bytes(const std::string& bytes) {
  std::istringstream in(bytes, std::ios::binary);
  return fault::load_checkpoint(in);
}

fault::TrainingCheckpoint restore_from_bytes(core::AdaptiveSgdTrainer& trainer,
                                             const std::string& bytes) {
  std::istringstream in(bytes, std::ios::binary);
  return fault::restore_checkpoint(trainer, in);
}

// One model record of the trainer's checkpoints: the u64 byte count, then
// the nn::save_model bytes. The global and momentum records are the last
// two records of every checkpoint version.
std::size_t model_record_bytes(core::AdaptiveSgdTrainer& trainer) {
  return 8 + nn::serialized_size(trainer.runtime().global_model());
}

// The v4 run section: the method byte, then seven u64 counters and two f64
// times.
constexpr std::size_t kRunSection = 1 + 9 * 8;

// A v4 checkpoint as a v3 writer lays it out: the run section, right
// before the two model records, cut out and the version word set to 3.
std::string without_run_section(std::string bytes, std::size_t record) {
  std::uint32_t version = 0;
  std::memcpy(&version, bytes.data() + 4, sizeof(version));
  EXPECT_EQ(version, 4u);
  const std::uint32_t v3 = 3;
  std::memcpy(bytes.data() + 4, &v3, sizeof(v3));
  bytes.erase(bytes.size() - 2 * record - kRunSection, kRunSection);
  return bytes;
}

class FaultTest : public ::testing::Test {
 protected:
  FaultTest() : dataset_(data::generate_xml_dataset(data::tiny_profile())) {}

  core::TrainerConfig config() const {
    core::TrainerConfig cfg;
    cfg.hidden = 16;
    cfg.batch_max = 32;
    cfg.batches_per_megabatch = 8;
    cfg.eval_samples = 100;
    cfg.compute_scale = 100.0;
    cfg.num_megabatches = 4;
    return cfg;
  }

  static std::string temp_path(const std::string& name) {
    return ::testing::TempDir() + name;
  }

  // A fresh 2-GPU trainer for tiny_checkpoint_bytes() to restore into.
  std::unique_ptr<core::AdaptiveSgdTrainer> tiny_trainer() const {
    auto cfg = config();
    cfg.num_megabatches = 2;
    return std::make_unique<core::AdaptiveSgdTrainer>(
        dataset_, cfg, sim::v100_heterogeneous(2));
  }

  // A real checkpoint small enough to corrupt surgically: tiny_trainer()'s
  // run after its 2 mega-batches.
  std::string tiny_checkpoint_bytes() const {
    const auto trainer = tiny_trainer();
    trainer->train();
    return checkpoint_bytes(*trainer);
  }

  // Both readers reject `bytes` as malformed: load_checkpoint, and a
  // restore into a fresh tiny_trainer().
  void expect_corrupt(const std::string& bytes, const std::string& what) {
    EXPECT_THROW(load_from_bytes(bytes), hetero::ParseError) << what;
    EXPECT_THROW(restore_from_bytes(*tiny_trainer(), bytes),
                 hetero::ParseError)
        << what;
  }

  data::XmlDataset dataset_;
};

// ---- fault plans ----------------------------------------------------------

TEST_F(FaultTest, PlanParsesAllEventKinds) {
  const auto plan = fault::FaultPlan::parse(
      "slow@0.5+1.0x0.4:gpu0;stall@1.0+0.25:gpu2;crash@2.5:gpu1;"
      "join@4.0:gpu1;oom@0.25+3.0x0.5:gpu3");
  ASSERT_EQ(plan.events.size(), 5u);
  // Sorted by time.
  EXPECT_EQ(plan.events[0].kind, fault::FaultKind::kOom);
  EXPECT_DOUBLE_EQ(plan.events[0].time, 0.25);
  EXPECT_EQ(plan.events[0].device, 3u);
  EXPECT_EQ(plan.events[1].kind, fault::FaultKind::kSlowdown);
  EXPECT_DOUBLE_EQ(plan.events[1].duration, 1.0);
  EXPECT_DOUBLE_EQ(plan.events[1].factor, 0.4);
  EXPECT_EQ(plan.events[4].kind, fault::FaultKind::kJoin);
  EXPECT_NO_THROW(plan.validate(4));
}

TEST_F(FaultTest, PlanRoundTripsThroughToString) {
  const auto plan = fault::FaultPlan::parse(
      "slow@0.125+0.75x0.333:gpu1;crash@2.5:gpu1;join@3.75:gpu1");
  const auto reparsed = fault::FaultPlan::parse(plan.to_string());
  ASSERT_EQ(reparsed.events.size(), plan.events.size());
  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    EXPECT_EQ(reparsed.events[i].kind, plan.events[i].kind);
    EXPECT_EQ(reparsed.events[i].device, plan.events[i].device);
    EXPECT_DOUBLE_EQ(reparsed.events[i].time, plan.events[i].time);
    EXPECT_DOUBLE_EQ(reparsed.events[i].duration, plan.events[i].duration);
    EXPECT_DOUBLE_EQ(reparsed.events[i].factor, plan.events[i].factor);
  }
}

TEST_F(FaultTest, PlanRejectsMalformedSpecs) {
  EXPECT_THROW(fault::FaultPlan::parse("melt@1.0:gpu0"),
               hetero::ParseError);
  EXPECT_THROW(fault::FaultPlan::parse("crash@:gpu0"), hetero::ParseError);
  EXPECT_THROW(fault::FaultPlan::parse("crash@1.0"), hetero::ParseError);
  EXPECT_THROW(fault::FaultPlan::parse("crash@1.0:cpu0"),
               hetero::ParseError);
  EXPECT_THROW(fault::FaultPlan::parse("slow@1.0+abcx0.5:gpu0"),
               hetero::ParseError);
}

TEST_F(FaultTest, PlanValidateCatchesBadMembershipAndWindows) {
  // Crash of an already-dead device.
  EXPECT_THROW(
      fault::FaultPlan::parse("crash@1.0:gpu1;crash@2.0:gpu1").validate(2),
      hetero::ParseError);
  // Join of an alive device.
  EXPECT_THROW(fault::FaultPlan::parse("join@1.0:gpu0").validate(2),
               hetero::ParseError);
  // Device index out of range.
  EXPECT_THROW(fault::FaultPlan::parse("crash@1.0:gpu5").validate(2),
               hetero::ParseError);
  // Slowdown without a duration; factor out of range.
  EXPECT_THROW(fault::FaultPlan::parse("slow@1.0x0.5:gpu0").validate(2),
               hetero::ParseError);
  EXPECT_THROW(fault::FaultPlan::parse("slow@1.0+1.0x1.5:gpu0").validate(2),
               hetero::ParseError);
  // A plan may not kill every device.
  EXPECT_THROW(
      fault::FaultPlan::parse("crash@1.0:gpu0;crash@1.0:gpu1").validate(2),
      hetero::ParseError);
}

TEST_F(FaultTest, RandomPlanIsSeededAndSparesDeviceZero) {
  fault::RandomFaultConfig rcfg;
  rcfg.horizon = 8.0;
  rcfg.slowdown_rate = 2.0;
  rcfg.stall_rate = 1.0;
  rcfg.crash_fraction = 0.5;
  rcfg.rejoin = true;
  const auto a = fault::FaultPlan::random(4, rcfg, 7);
  const auto b = fault::FaultPlan::random(4, rcfg, 7);
  const auto c = fault::FaultPlan::random(4, rcfg, 8);
  EXPECT_EQ(a.to_string(), b.to_string());
  EXPECT_NE(a.to_string(), c.to_string());
  EXPECT_FALSE(a.empty());
  EXPECT_NO_THROW(a.validate(4));
  for (const auto& ev : a.events) {
    if (ev.kind == fault::FaultKind::kCrash) {
      EXPECT_NE(ev.device, 0u);
    }
  }
}

// ---- scheduling around faulted devices (satellite 2) ----------------------

TEST_F(FaultTest, NoDispatchInsideStallOrAfterCrash) {
  auto cfg = config();
  // Healthy probe run to scale the fault times to the run's actual span.
  core::AdaptiveSgdTrainer probe(dataset_, cfg, sim::v100_heterogeneous(3));
  const double span = probe.train().total_vtime;
  const double stall_end = 0.3 * span;
  const double crash_at = 0.5 * span;

  core::AdaptiveSgdTrainer trainer(dataset_, cfg,
                                   sim::v100_heterogeneous(3));
  fault::FaultPlan plan;
  plan.events.push_back(
      {fault::FaultKind::kStall, 0, 0.0, stall_end, 1.0, 0});
  plan.events.push_back({fault::FaultKind::kCrash, 1, crash_at, 0.0, 1.0, 0});
  fault::FaultInjector(plan).arm(trainer.runtime());

  sim::Tracer tracer;
  trainer.runtime().set_tracer(&tracer);
  const auto result = trainer.train();

  ASSERT_GT(tracer.size(), 0u);
  for (const auto& ev : tracer.events()) {
    if (ev.category != "compute") continue;
    if (ev.device == 0) {
      EXPECT_FALSE(ev.start >= 0.0 && ev.start < stall_end)
          << "compute started inside gpu0's stall window at " << ev.start;
    }
    if (ev.device == 1) {
      EXPECT_LT(ev.start, crash_at) << "compute started on crashed gpu1";
    }
  }
  EXPECT_EQ(result.faults.stalls, 1u);
  EXPECT_EQ(result.faults.crashes, 1u);
  EXPECT_GE(result.faults.degraded_merges, 1u);
  // The crashed replica is out of the merge group by the end.
  EXPECT_EQ(result.curve.back().alive_gpus, 2u);
}

TEST_F(FaultTest, NextFreeGpuSkipsStalledDeviceUntilWindowEnds) {
  core::MultiGpuRuntime rt(dataset_, config(), sim::v100_heterogeneous(2));
  rt.gpu(0).add_stall(0.0, 5.0);
  // Both devices idle at t=0, but gpu0 cannot start work before 5.0.
  EXPECT_EQ(rt.next_free_gpu(), 1u);
  EXPECT_DOUBLE_EQ(rt.gpu_free_at(0), 5.0);
}

TEST_F(FaultTest, AllReplicasCrashedThrows) {
  auto cfg = config();
  core::AdaptiveSgdTrainer trainer(dataset_, cfg,
                                   sim::v100_heterogeneous(2));
  trainer.runtime().schedule_crash(0, 0.0);
  trainer.runtime().schedule_crash(1, 0.0);
  EXPECT_THROW(trainer.train(), std::runtime_error);
}

// ---- degraded-mode merging (tentpole + satellite 3) -----------------------

TEST_F(FaultTest, CrashRenormalizationBitIdenticalToSurvivorOracle) {
  for (const bool sparse : {false, true}) {
    auto cfg = config();
    cfg.sparse_merge = sparse;
    core::MultiGpuRuntime rt(dataset_, cfg, sim::v100_heterogeneous(3));
    for (int i = 0; i < 6; ++i) {
      const auto g = static_cast<std::size_t>(i % 3);
      rt.run_update_step(g, rt.next_batch(32), 0.2, rt.gpu_free_at(g));
    }
    rt.math_barrier();
    const auto r0 = rt.replica(0).to_flat();
    const auto r2 = rt.replica(2).to_flat();
    auto oracle_global = rt.global_model().to_flat();
    auto oracle_prev = rt.prev_global_model().to_flat();

    double now = 0.0;
    for (std::size_t g = 0; g < 3; ++g) {
      now = std::max(now, rt.gpu(g).device_free_at());
    }
    rt.schedule_crash(1, now);
    const auto crashed = rt.apply_crashes_until(now);
    ASSERT_EQ(crashed, (std::vector<std::size_t>{1}));
    EXPECT_FALSE(rt.replica_alive(1));
    EXPECT_EQ(rt.num_alive(), 2u);

    const std::vector<double> survivor_w{0.7, 0.3};
    const std::vector<std::size_t> alive_idx{0, 2};
    const auto full = core::expand_alive_weights(survivor_w, alive_idx, 3);
    EXPECT_EQ(full, (std::vector<double>{0.7, 0.0, 0.3}));
    rt.merge_and_update(full, now);

    // Survivor-only oracle: the fused merge kernel applied to exactly the
    // two surviving replicas with the compacted weights.
    const float* bases[2] = {r0.data(), r2.data()};
    const core::MergeUpdate u{survivor_w, cfg.momentum_gamma,
                              cfg.enable_momentum};
    core::merge_segment(std::span<const float* const>(bases, 2),
                        oracle_global.size(), u,
                        {oracle_global.data(), oracle_global.size()},
                        {oracle_prev.data(), oracle_prev.size()},
                        /*min_shards=*/1, {});
    EXPECT_EQ(rt.global_model().to_flat(), oracle_global)
        << "sparse=" << sparse;
    EXPECT_EQ(rt.prev_global_model().to_flat(), oracle_prev)
        << "sparse=" << sparse;
    EXPECT_EQ(rt.fault_stats().degraded_merges, 1u);
  }
}

// Satellite 3: an N-replica run in which one replica crashes mid-stream is
// bit-identical to an (N-1)-replica run started from the pre-crash global
// model, with the crashed replica's batches drawn and discarded.
TEST_F(FaultTest, CrashRunMatchesSurvivorOnlyRun) {
  for (const bool sparse : {false, true}) {
    auto cfg = config();
    cfg.sparse_merge = sparse;

    // --- run A: 3 replicas, gpu1 crashes before the second merge -----------
    core::MultiGpuRuntime a(dataset_, cfg, sim::v100_heterogeneous(3));
    // Phase 1 (healthy): 6 steps round-robin, merge over all three.
    for (int i = 0; i < 6; ++i) {
      const auto g = static_cast<std::size_t>(i % 3);
      a.run_update_step(g, a.next_batch(32), 0.2, a.gpu_free_at(g));
    }
    a.math_barrier();
    double sync_a = 0.0;
    for (std::size_t g = 0; g < 3; ++g) {
      sync_a = std::max(sync_a, a.gpu(g).device_free_at());
    }
    const std::vector<double> healthy_w{1.0 / 3, 1.0 / 3, 1.0 / 3};
    a.merge_and_update(healthy_w, sync_a);
    const std::size_t phase1_samples = a.samples_served();

    // --- run B: 2 replicas seeded from A's post-phase-1 state --------------
    core::MultiGpuRuntime b(dataset_, cfg, sim::v100_heterogeneous(2));
    b.global_model().copy_from(a.global_model());
    b.prev_global_model().copy_from(a.prev_global_model());
    b.broadcast_global();
    b.skip_samples(phase1_samples);

    // Phase 2: gpu1 is dead on A (killed at its current clock); B replays
    // the same dispatch schedule, drawing and discarding gpu1's batches.
    a.schedule_crash(1, a.gpu(1).device_free_at());
    for (int i = 0; i < 6; ++i) {
      const auto g = static_cast<std::size_t>(i % 3);
      auto batch_a = a.next_batch(32);
      if (g == 1) {
        EXPECT_THROW(
            a.run_update_step(1, std::move(batch_a), 0.2, a.gpu_free_at(1)),
            sim::DeviceUnavailable);
        b.next_batch(32);  // discard the crashed replica's batch
        continue;
      }
      a.run_update_step(g, std::move(batch_a), 0.2, a.gpu_free_at(g));
      const std::size_t bg = g == 0 ? 0 : 1;
      b.run_update_step(bg, b.next_batch(32), 0.2, b.gpu_free_at(bg));
    }
    a.math_barrier();
    b.math_barrier();

    double all_free_a = 0.0;
    for (std::size_t g = 0; g < 3; ++g) {
      all_free_a = std::max(all_free_a, a.gpu(g).device_free_at());
    }
    ASSERT_EQ(a.apply_crashes_until(all_free_a),
              (std::vector<std::size_t>{1}));

    const std::vector<double> survivor_w{0.6, 0.4};
    const auto full =
        core::expand_alive_weights(survivor_w, std::vector<std::size_t>{0, 2},
                                   3);
    a.merge_and_update(full, all_free_a);

    double sync_b = 0.0;
    for (std::size_t g = 0; g < 2; ++g) {
      sync_b = std::max(sync_b, b.gpu(g).device_free_at());
    }
    b.merge_and_update(survivor_w, sync_b);

    EXPECT_EQ(a.global_model().to_flat(), b.global_model().to_flat())
        << "sparse=" << sparse;
    EXPECT_EQ(a.prev_global_model().to_flat(),
              b.prev_global_model().to_flat())
        << "sparse=" << sparse;
  }
}

// Replica 1 steps in mega-batch 3 and then crashes inside it, after two
// merges. A dead replica keeps what the last merge handed it plus its own
// steps since, so the merge after the crash must not move it: its bits are
// pinned, and reading every replica before the crash must not change them.
TEST_F(FaultTest, CrashedSparseReplicaKeepsItsState) {
  constexpr std::uint64_t kReplica1 = 0xb6cc17812fa23df3ull;
  constexpr std::uint64_t kGlobal = 0x01b4a262a500adceull;
  auto cfg = config();
  cfg.sparse_merge = true;
  for (const auto mode :
       {core::ExecutionMode::kDeterministic, core::ExecutionMode::kThreaded}) {
    cfg.mode = mode;
    for (const bool read_replicas : {false, true}) {
      core::MultiGpuRuntime rt(dataset_, cfg, sim::v100_heterogeneous(4));
      const std::vector<double> healthy_w{0.3, 0.2, 0.25, 0.35};
      const std::vector<double> survivor_w{0.35, 0.25, 0.4};
      const std::vector<std::size_t> survivors{0, 2, 3};
      const auto read_all = [&] {
        rt.math_barrier();
        for (std::size_t g = 0; g < rt.num_gpus(); ++g) {
          rt.replica(g).to_flat();
        }
      };
      for (std::size_t mb = 0; mb < 3; ++mb) {
        for (std::size_t g = 0; g < rt.num_gpus(); ++g) {
          for (int s = 0; s < 2; ++s) {
            rt.run_update_step(g, rt.next_batch(24), 0.2, rt.gpu_free_at(g));
          }
        }
        if (mb == 2) {
          rt.schedule_crash(1, rt.gpu(1).device_free_at());
          EXPECT_THROW(rt.run_update_step(1, rt.next_batch(24), 0.2,
                                          rt.gpu_free_at(1)),
                       sim::DeviceUnavailable);
          if (read_replicas) read_all();
        }
        double all_free = 0.0;
        for (std::size_t g = 0; g < rt.num_gpus(); ++g) {
          all_free = std::max(all_free, rt.gpu(g).device_free_at());
        }
        rt.math_barrier();
        rt.apply_crashes_until(all_free);
        rt.merge_and_update(
            mb < 2 ? healthy_w
                   : core::expand_alive_weights(survivor_w, survivors, 4),
            all_free);
        if (read_replicas && mb < 2) read_all();
      }
      ASSERT_FALSE(rt.replica_alive(1));
      const auto replica1 = core::fnv1a(rt.replica(1).to_flat());
      const auto global = core::fnv1a(rt.global_model().to_flat());
      const bool threaded = mode == core::ExecutionMode::kThreaded;
      EXPECT_EQ(replica1, kReplica1)
          << "threaded " << threaded << " read " << read_replicas << std::hex
          << " got 0x" << replica1;
      EXPECT_EQ(global, kGlobal)
          << "threaded " << threaded << " read " << read_replicas << std::hex
          << " got 0x" << global;
    }
  }
}

// ---- certified perturbation gate under faults -------------------------------

// Exact-L2 replay of AdaptiveSgdTrainer::run_megabatch through public
// runtime calls — the loop e2ebench/e2e_bench.cpp mirrors, plus the crash
// and join handling: every alive replica's l2_norm_per_parameter() goes to
// compute_merge_weights, so no bound is involved. Beside it, the replay
// walks the gate's replica order with the bound over every W1 row (the
// rows a replica did not touch add exactly zero) and counts the replicas
// the bound leaves to the exact sweep, by the sweep's answer.
struct ExactGateReplay {
  std::size_t merges = 0;
  std::size_t perturbed = 0;
  std::size_t fallback_below = 0;
  std::size_t fallback_not_below = 0;
  std::vector<std::vector<double>> l2;  // per merge: alive replicas' L2
  std::vector<float> global;
};

ExactGateReplay replay_with_exact_l2(const data::XmlDataset& dataset,
                                     const core::TrainerConfig& cfg,
                                     std::size_t gpus,
                                     const fault::FaultPlan& plan) {
  core::MultiGpuRuntime rt(dataset, cfg, sim::v100_heterogeneous(gpus));
  fault::FaultInjector(plan).arm(rt);
  std::vector<core::GpuSgdState> sgd(
      gpus, core::GpuSgdState{cfg.batch_max, cfg.learning_rate, 0});
  const std::size_t mega = cfg.megabatch_samples();
  const auto& info = rt.model_info();
  std::vector<std::uint32_t> all_rows(info.input_rows());
  for (std::size_t r = 0; r < all_rows.size(); ++r) {
    all_rows[r] = static_cast<std::uint32_t>(r);
  }
  const auto& global = rt.global_model();
  ExactGateReplay out;
  for (std::size_t m = 1; m <= cfg.num_megabatches; ++m) {
    for (auto& s : sgd) s.updates = 0;
    for (std::size_t assigned = 0; assigned < mega;) {
      const std::size_t g = rt.next_free_gpu();
      const std::size_t b = std::min(sgd[g].batch_size, mega - assigned);
      assigned += b;
      try {
        rt.run_update_step(g, rt.next_batch(b), sgd[g].learning_rate,
                           rt.gpu_free_at(g));
      } catch (const sim::DeviceUnavailable&) {
        continue;
      }
      sgd[g].updates += 1;
    }
    double all_free = 0.0;
    for (std::size_t g = 0; g < gpus; ++g) {
      all_free = std::max(all_free, rt.gpu(g).device_free_at());
    }
    rt.math_barrier();
    rt.apply_crashes_until(all_free);
    core::MergeInputs inputs;
    inputs.pert_threshold = cfg.pert_threshold;
    inputs.pert_delta = cfg.pert_delta;
    inputs.enable_perturbation = cfg.enable_perturbation;
    inputs.normalization = cfg.merge_normalization;
    std::vector<std::size_t> alive;
    double sync = 0.0;
    for (std::size_t g = 0; g < gpus; ++g) {
      if (!rt.replica_alive(g)) continue;
      alive.push_back(g);
      sync = std::max(sync, rt.gpu(g).device_free_at());
      inputs.updates.push_back(sgd[g].updates);
      inputs.batch_sizes.push_back(sgd[g].batch_size);
      inputs.l2_per_param.push_back(rt.replica(g).l2_norm_per_parameter());
    }
    for (std::size_t i = 0; i < alive.size(); ++i) {
      const nn::Model& replica = rt.replica(alive[i]);
      const auto gate = core::certify_l2_below(
          replica.segment_views(), global.segment_views(),
          all_rows, info.input_cols(), global.l2_norm_per_parameter(),
          cfg.pert_threshold);
      if (gate == core::L2Gate::kNotBelow) break;
      if (gate == core::L2Gate::kBelow) continue;
      if (inputs.l2_per_param[i] >= cfg.pert_threshold) {
        ++out.fallback_not_below;
        break;
      }
      ++out.fallback_below;
    }
    const auto weights = core::compute_merge_weights(inputs);
    out.perturbed += weights.perturbed ? 1 : 0;
    out.l2.push_back(inputs.l2_per_param);
    const auto timing = rt.merge_and_update(
        core::expand_alive_weights(weights.alpha, alive, gpus), sync);
    ++out.merges;
    core::BatchScalingParams params;
    params.batch_min = cfg.derived_batch_min();
    params.batch_max = cfg.batch_max;
    params.beta = cfg.derived_beta();
    std::vector<core::GpuSgdState> alive_sgd;
    for (const std::size_t g : alive) alive_sgd.push_back(sgd[g]);
    core::scale_batch_sizes(alive_sgd, params);
    for (std::size_t i = 0; i < alive.size(); ++i) sgd[alive[i]] = alive_sgd[i];
    for (const std::size_t g : rt.apply_joins_until(timing.finish)) {
      sgd[g] = core::GpuSgdState{cfg.batch_max, cfg.learning_rate, 0};
    }
  }
  out.global = rt.global_model().to_flat();
  return out;
}

TEST_F(FaultTest, PerturbationGateMatchesExactL2ReplayAcrossFallbacks) {
  auto cfg = config();
  cfg.sparse_merge = true;
  cfg.num_megabatches = 8;
  constexpr std::size_t kGpus = 4;

  core::AdaptiveSgdTrainer healthy(dataset_, cfg,
                                   sim::v100_heterogeneous(kGpus));
  const double total = healthy.train().total_vtime;
  fault::FaultPlan plan;
  plan.events.push_back(
      {fault::FaultKind::kCrash, 2, 0.3 * total, 0.0, 1.0, 0});
  plan.events.push_back(
      {fault::FaultKind::kJoin, 2, 0.55 * total, 0.0, 1.0, 0});

  // Mega-batch 1 runs identically whatever the threshold, so a threshold
  // just above its largest exact L2 value puts the largest replica where
  // the bound cannot decide; the later merges then straddle it as the
  // norms drift.
  const auto first = replay_with_exact_l2(dataset_, cfg, kGpus, plan);
  const auto& l2 = first.l2.front();
  ASSERT_EQ(l2.size(), kGpus);
  cfg.pert_threshold = std::nextafter(*std::max_element(l2.begin(), l2.end()),
                                      1.0);
  const auto exact = replay_with_exact_l2(dataset_, cfg, kGpus, plan);
  // The decision changes across merges, and the exact sweep decides both
  // ways: a fallback that answered either way without it fails below.
  ASSERT_GT(exact.perturbed, 0u);
  ASSERT_LT(exact.perturbed, exact.merges);
  ASSERT_GT(exact.fallback_below, 0u);
  ASSERT_GT(exact.fallback_not_below, 0u);
  for (const auto mode :
       {core::ExecutionMode::kDeterministic, core::ExecutionMode::kThreaded}) {
    cfg.mode = mode;
    core::AdaptiveSgdTrainer trainer(dataset_, cfg,
                                     sim::v100_heterogeneous(kGpus));
    fault::FaultInjector(plan).arm(trainer.runtime());
    const auto result = trainer.train();
    const bool threaded = mode == core::ExecutionMode::kThreaded;
    EXPECT_EQ(result.faults.crashes, 1u);
    EXPECT_EQ(result.faults.joins, 1u);
    EXPECT_EQ(result.merges, exact.merges);
    EXPECT_EQ(result.perturbed_merges, exact.perturbed)
        << "threaded " << threaded;
    EXPECT_EQ(trainer.runtime().global_model().to_flat(), exact.global)
        << "threaded " << threaded;
  }
}

// ---- OOM clamping (satellite 1) -------------------------------------------

TEST_F(FaultTest, OomClampsBatchToLargestThatFits) {
  auto cfg = config();
  core::AdaptiveSgdTrainer trainer(dataset_, cfg,
                                   sim::v100_heterogeneous(2));
  auto& rt = trainer.runtime();
  // Cap gpu1's memory so its resident state plus an 8-sample step fits but
  // the full 32-sample step does not.
  const double avg_nnz = dataset_.train.features.avg_row_nnz();
  const auto cap = 2 * rt.global_model().num_bytes() +
                   rt.global_model().step_memory_bytes(8, avg_nnz);
  rt.gpu(1).add_memory_cap(0.0, std::numeric_limits<double>::infinity(), cap);

  const auto result = trainer.train();
  EXPECT_GE(result.faults.oom_clamps, 1u);
  const auto& sgd = trainer.sgd_state();
  EXPECT_LT(sgd[1].batch_size, 32u);
  EXPECT_GE(sgd[1].batch_size, 1u);
  // The clamped learning rate follows the linear scaling rule downward.
  EXPECT_LT(sgd[1].learning_rate, cfg.learning_rate);
  // The run completed all mega-batches despite the pressure.
  EXPECT_EQ(result.curve.back().megabatch, cfg.num_megabatches);
}

// Elastic SGD runs on the adaptive loop, so an OOM window that bites clamps
// its batch too instead of aborting the run. The merge weights follow the
// batch sizes, so the clamped replica weighs less from then on.
TEST_F(FaultTest, ElasticOomClampsInsteadOfAborting) {
  auto cfg = config();
  core::AdaptiveSgdTrainer trainer(dataset_, cfg, sim::v100_heterogeneous(2),
                                   core::Method::kElastic);
  auto& rt = trainer.runtime();
  const double avg_nnz = dataset_.train.features.avg_row_nnz();
  const auto cap = 2 * rt.global_model().num_bytes() +
                   rt.global_model().step_memory_bytes(8, avg_nnz);
  rt.gpu(1).add_memory_cap(0.0, std::numeric_limits<double>::infinity(), cap);

  const auto result = trainer.train();
  EXPECT_EQ(result.method, "elastic-sgd");
  EXPECT_GE(result.faults.oom_clamps, 1u);
  EXPECT_LT(trainer.sgd_state()[1].batch_size, cfg.batch_max);
  EXPECT_EQ(result.curve.back().megabatch, cfg.num_megabatches);
  for (const float v : rt.global_model().to_flat()) {
    ASSERT_TRUE(std::isfinite(v));
  }
}

// ---- crash + rejoin at the trainer level ----------------------------------

TEST_F(FaultTest, CrashThenJoinShrinksAndRestoresMembership) {
  auto cfg = config();
  cfg.num_megabatches = 6;

  // Healthy run to place the crash/join times inside the run.
  core::AdaptiveSgdTrainer healthy(dataset_, cfg,
                                   sim::v100_heterogeneous(3));
  const auto healthy_result = healthy.train();
  const double total = healthy_result.total_vtime;

  core::AdaptiveSgdTrainer trainer(dataset_, cfg,
                                   sim::v100_heterogeneous(3));
  fault::FaultPlan plan;
  plan.events.push_back(
      {fault::FaultKind::kCrash, 1, 0.35 * total, 0.0, 1.0, 0});
  plan.events.push_back(
      {fault::FaultKind::kJoin, 1, 0.6 * total, 0.0, 1.0, 0});
  fault::FaultInjector(plan).arm(trainer.runtime());

  const auto result = trainer.train();
  EXPECT_EQ(result.faults.crashes, 1u);
  EXPECT_EQ(result.faults.joins, 1u);
  EXPECT_GE(result.faults.degraded_merges, 1u);
  EXPECT_GT(result.faults.recovery_seconds, 0.0);

  std::size_t min_alive = 3;
  for (const auto& p : result.curve) {
    min_alive = std::min(min_alive, p.alive_gpus);
  }
  EXPECT_EQ(min_alive, 2u);
  EXPECT_EQ(result.curve.back().alive_gpus, 3u);
  // The rejoined replica restarts at b_max with the base learning rate.
  EXPECT_EQ(trainer.sgd_state()[1].batch_size, cfg.batch_max);
}

// The asynchronous, SSP and CROSSBOW loops keep every device a member: a
// crash armed through the library is a typed error before training, not a
// dead-device failure mid-run.
TEST_F(FaultTest, ParamServerAndCrossbowRejectArmedMembershipPlans) {
  const auto devices = sim::v100_heterogeneous(3);
  std::vector<std::unique_ptr<core::Trainer>> trainers;
  trainers.push_back(
      core::make_trainer(core::Method::kAsync, dataset_, config(), devices));
  trainers.push_back(std::make_unique<core::ParamServerTrainer>(
      dataset_, config(), devices, /*staleness_bound=*/2));
  trainers.push_back(
      core::make_trainer(core::Method::kCrossbow, dataset_, config(), devices));
  for (auto& trainer : trainers) {
    fault::FaultInjector(fault::FaultPlan::parse("crash@0.001:gpu1"))
        .arm(trainer->runtime());
    EXPECT_THROW(trainer->train(), std::invalid_argument)
        << trainer->method_name();
    EXPECT_EQ(trainer->runtime().samples_served(), 0u)
        << trainer->method_name();
  }
}

TEST_F(FaultTest, SamePlanSameSeedReproducesBitIdenticalRuns) {
  const auto run = [&]() {
    auto cfg = config();
    core::AdaptiveSgdTrainer trainer(dataset_, cfg,
                                     sim::v100_heterogeneous(3));
    fault::FaultInjector(
        fault::FaultPlan::parse("slow@0.2+0.4x0.5:gpu2;crash@0.9:gpu1"))
        .arm(trainer.runtime());
    auto result = trainer.train();
    return std::make_pair(std::move(result),
                          trainer.runtime().global_model().to_flat());
  };
  const auto [r1, m1] = run();
  const auto [r2, m2] = run();
  EXPECT_EQ(m1, m2);
  ASSERT_EQ(r1.curve.size(), r2.curve.size());
  for (std::size_t i = 0; i < r1.curve.size(); ++i) {
    EXPECT_DOUBLE_EQ(r1.curve[i].vtime, r2.curve[i].vtime);
    EXPECT_DOUBLE_EQ(r1.curve[i].top1, r2.curve[i].top1);
    EXPECT_EQ(r1.curve[i].alive_gpus, r2.curve[i].alive_gpus);
  }
  EXPECT_EQ(r1.faults.crashes, r2.faults.crashes);
  EXPECT_EQ(r1.faults.degraded_merges, r2.faults.degraded_merges);
  EXPECT_DOUBLE_EQ(r1.faults.recovery_seconds, r2.faults.recovery_seconds);
}

// ---- checkpointed recovery (tentpole) -------------------------------------

std::uint64_t fnv1a_bytes(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// The whole save_checkpoint output of six 3-mega-batch runs on 3 GPUs, one
// per section layout the writer produces, with the v4 run section cut out:
// the HGCK v3 bytes the format had before the writer streamed from the
// runtime, pinned.
TEST_F(FaultTest, CheckpointBytesMatchPinnedV3Files) {
  struct Case {
    const char* name;
    std::uint64_t fnv;
    std::size_t bytes;
  };
  const Case cases[] = {
      {"fp32 dense", 0x3fff56763011c605ull, 74876},
      {"fp32 sparse_merge", 0xe05bc339737ccc2eull, 74876},
      {"int8 adam", 0x215aadad622e2c95ull, 415796},
      {"fp16", 0xcd3078db0c51520aull, 186476},
      {"elastic", 0xb4f1a5fcf64f23a6ull, 74876},
      {"crashed replica", 0xf0a8bf3987d0b246ull, 74876},
  };
  auto base = config();
  base.num_megabatches = 3;
  const double span =
      core::AdaptiveSgdTrainer(dataset_, base, sim::v100_heterogeneous(3))
          .train()
          .total_vtime;
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    auto cfg = base;
    auto method = core::Method::kAdaptive;
    fault::FaultPlan plan;
    switch (i) {
      case 1:
        cfg.sparse_merge = true;
        break;
      case 2:
        cfg.merge_precision = comm::MergePrecision::kInt8;
        cfg.optimizer.kind = nn::OptimizerKind::kAdam;
        cfg.moment_merge = core::MomentMerge::kAverage;
        break;
      case 3:
        cfg.merge_precision = comm::MergePrecision::kFp16;
        break;
      case 4:
        method = core::Method::kElastic;
        break;
      case 5:
        plan.events.push_back(
            {fault::FaultKind::kCrash, 1, 0.4 * span, 0.0, 1.0, 0});
        break;
    }
    core::AdaptiveSgdTrainer trainer(dataset_, cfg,
                                     sim::v100_heterogeneous(3), method);
    fault::FaultInjector(plan).arm(trainer.runtime());
    trainer.train();
    if (i == 5) {
      ASSERT_FALSE(trainer.runtime().replica_alive(1));
    }
    const std::string bytes = without_run_section(
        checkpoint_bytes(trainer), model_record_bytes(trainer));
    EXPECT_EQ(bytes.size(), cases[i].bytes) << cases[i].name;
    EXPECT_EQ(fnv1a_bytes(bytes), cases[i].fnv)
        << cases[i].name << ": 0x" << std::hex << fnv1a_bytes(bytes);
  }
}

TEST_F(FaultTest, CheckpointFileRoundTripsAllFields) {
  auto cfg = config();
  cfg.num_megabatches = 2;
  core::AdaptiveSgdTrainer trainer(dataset_, cfg,
                                   sim::v100_heterogeneous(2));
  trainer.train();
  const auto ckpt = fault::capture_checkpoint(trainer);

  const auto path = temp_path("fault_roundtrip.ckpt");
  fault::save_checkpoint_file(path, ckpt);
  const auto loaded = fault::load_checkpoint_file(path);

  EXPECT_EQ(loaded.version, 4u);
  EXPECT_EQ(loaded.seed, ckpt.seed);
  EXPECT_EQ(loaded.megabatches_completed, ckpt.megabatches_completed);
  EXPECT_EQ(loaded.samples_served, ckpt.samples_served);
  EXPECT_EQ(loaded.round_robin_cursor, ckpt.round_robin_cursor);
  EXPECT_DOUBLE_EQ(loaded.vtime, ckpt.vtime);
  EXPECT_DOUBLE_EQ(loaded.best_top1, ckpt.best_top1);
  EXPECT_EQ(loaded.stagnation, ckpt.stagnation);
  ASSERT_EQ(loaded.gpus.size(), ckpt.gpus.size());
  for (std::size_t g = 0; g < ckpt.gpus.size(); ++g) {
    EXPECT_EQ(loaded.gpus[g].batch_size, ckpt.gpus[g].batch_size);
    EXPECT_DOUBLE_EQ(loaded.gpus[g].learning_rate,
                     ckpt.gpus[g].learning_rate);
    EXPECT_EQ(loaded.gpus[g].alive, ckpt.gpus[g].alive);
    EXPECT_DOUBLE_EQ(loaded.gpus[g].busy_seconds, ckpt.gpus[g].busy_seconds);
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(loaded.gpus[g].rng.s[i], ckpt.gpus[g].rng.s[i]);
    }
  }
  EXPECT_EQ(loaded.scaling.interval, ckpt.scaling.interval);
  EXPECT_EQ(loaded.scaling.previous, ckpt.scaling.previous);
  EXPECT_EQ(loaded.method, core::Method::kAdaptive);
  EXPECT_EQ(loaded.totals.merges, 2u);
  EXPECT_EQ(loaded.totals.perturbed_merges, ckpt.totals.perturbed_merges);
  EXPECT_EQ(loaded.totals.scaling_updates, ckpt.totals.scaling_updates);
  EXPECT_GT(loaded.totals.comm_seconds, 0.0);
  EXPECT_EQ(loaded.totals.comm_seconds, ckpt.totals.comm_seconds);

  // The model records hold the live global and momentum models: a restore
  // reproduces both bit for bit, and load_checkpoint stops at the global
  // model's bytes.
  core::AdaptiveSgdTrainer restored(dataset_, cfg,
                                    sim::v100_heterogeneous(2));
  fault::restore_checkpoint_file(restored, path);
  EXPECT_EQ(restored.runtime().global_model().to_flat(),
            trainer.runtime().global_model().to_flat());
  EXPECT_EQ(restored.runtime().prev_global_model().to_flat(),
            trainer.runtime().prev_global_model().to_flat());
  std::ifstream in(path, std::ios::binary);
  fault::load_checkpoint(in);
  EXPECT_EQ(nn::load_any_model(in).to_flat(),
            trainer.runtime().global_model().to_flat());
  std::remove(path.c_str());
}

// ---- corrupt / hostile checkpoint bytes (untrusted-input hardening) -------

void write_u64_at(std::string& bytes, std::size_t offset, std::uint64_t v) {
  ASSERT_LE(offset + sizeof(v), bytes.size());
  std::memcpy(bytes.data() + offset, &v, sizeof(v));
}

TEST_F(FaultTest, CorruptCheckpointWrongMagicIsTypedError) {
  auto bytes = tiny_checkpoint_bytes();
  bytes[0] = 'X';
  try {
    load_from_bytes(bytes);
    FAIL() << "expected ParseError";
  } catch (const hetero::ParseError& e) {
    EXPECT_EQ(e.source(), "checkpoint");
    EXPECT_NE(e.offset(), hetero::ParseError::npos);
  }
  expect_corrupt(bytes, "bad magic");
}

TEST_F(FaultTest, CorruptCheckpointHostileBlobLengthIsTypedErrorNotBadAlloc) {
  // The global model record's length field sits before the last two model
  // records. A hostile 2^63 length must be rejected against the remaining
  // stream size before anything is allocated or written.
  auto bytes = tiny_checkpoint_bytes();
  const std::size_t record = model_record_bytes(*tiny_trainer());
  const std::size_t global_len_at = bytes.size() - 2 * record;
  write_u64_at(bytes, global_len_at, std::uint64_t{1} << 63);
  expect_corrupt(bytes, "2^63 model record length");

  // A length just past the bytes actually present is equally hostile.
  auto near = tiny_checkpoint_bytes();
  write_u64_at(near, global_len_at, 2 * record + 1024);
  expect_corrupt(near, "model record past the end");

  // So is one that disagrees with the model it frames.
  auto off = tiny_checkpoint_bytes();
  write_u64_at(off, global_len_at, record - 8 - 4);
  EXPECT_THROW(restore_from_bytes(*tiny_trainer(), off), hetero::ParseError);
}

TEST_F(FaultTest, CorruptCheckpointHostileGpuCountIsTypedError) {
  // num_gpus lives at byte 64 (magic+version+6 u64/f64 header fields); a
  // corrupt count must fail the remaining-size check, not resize() a
  // multi-exabyte vector.
  auto bytes = tiny_checkpoint_bytes();
  write_u64_at(bytes, 64, std::uint64_t{1} << 62);
  expect_corrupt(bytes, "2^62 GPUs");
}

TEST_F(FaultTest, TruncatedCheckpointTailIsTypedError) {
  const auto bytes = tiny_checkpoint_bytes();
  // Every proper prefix must produce a clean typed error (torn write /
  // partial download), never UB or a crash: a restore reads every record.
  for (const double frac : {0.0, 0.1, 0.5, 0.9, 0.999}) {
    const auto cut = static_cast<std::size_t>(
        frac * static_cast<double>(bytes.size()));
    EXPECT_THROW(restore_from_bytes(*tiny_trainer(), bytes.substr(0, cut)),
                 hetero::ParseError)
        << "prefix of " << cut << " bytes";
  }
}

TEST_F(FaultTest, CheckpointUnsupportedVersionIsTypedError) {
  auto bytes = tiny_checkpoint_bytes();
  bytes[4] = 9;  // version u32 follows the 4-byte magic
  expect_corrupt(bytes, "version 9");
}

TEST_F(FaultTest, ResumeFromCorruptFileIsTypedError) {
  // End-to-end through the file API --resume-from uses.
  auto bytes = tiny_checkpoint_bytes();
  const auto path = temp_path("fault_corrupt.ckpt");
  {
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() / 2));
  }
  EXPECT_THROW(fault::restore_checkpoint_file(*tiny_trainer(), path),
               hetero::ParseError);
  EXPECT_THROW(fault::load_checkpoint_file(path), hetero::ParseError);
  std::remove(path.c_str());
}

TEST_F(FaultTest, ResumedRunBitIdenticalToUninterrupted) {
  // The sparse_merge variant also runs the certified perturbation gate,
  // whose bound holds only because restore re-broadcasts the global model.
  for (const bool sparse : {false, true}) {
    auto cfg = config();
    cfg.num_megabatches = 6;
    cfg.adaptive_scaling_cadence = true;  // exercise the scheduler snapshot
    cfg.sparse_merge = sparse;

    // Uninterrupted reference.
    core::AdaptiveSgdTrainer full(dataset_, cfg, sim::v100_heterogeneous(3));
    const auto full_result = full.train();
    EXPECT_GT(full_result.perturbed_merges, 0u) << "sparse=" << sparse;

    // Interrupted run: stop after 3 mega-batches, checkpoint, resume.
    auto cfg3 = cfg;
    cfg3.num_megabatches = 3;
    core::AdaptiveSgdTrainer first_half(dataset_, cfg3,
                                        sim::v100_heterogeneous(3));
    first_half.train();
    const auto path = temp_path("fault_resume.ckpt");
    fault::save_checkpoint_file(path, fault::capture_checkpoint(first_half));

    core::AdaptiveSgdTrainer resumed(dataset_, cfg,
                                     sim::v100_heterogeneous(3));
    fault::restore_checkpoint_file(resumed, path);
    const auto resumed_result = resumed.train();

    // The resumed curve re-records the restored boundary, then continues
    // with mega-batches 4..6 — every shared boundary must match bit-exactly.
    ASSERT_EQ(resumed_result.curve.size(), 4u);
    ASSERT_EQ(full_result.curve.size(), 7u);
    for (std::size_t i = 0; i < resumed_result.curve.size(); ++i) {
      const auto& r = resumed_result.curve[i];
      const auto& f = full_result.curve[3 + i];
      EXPECT_EQ(r.megabatch, f.megabatch);
      EXPECT_DOUBLE_EQ(r.vtime, f.vtime) << "megabatch " << f.megabatch;
      EXPECT_EQ(r.samples, f.samples);
      EXPECT_DOUBLE_EQ(r.top1, f.top1) << "megabatch " << f.megabatch;
      EXPECT_DOUBLE_EQ(r.top5, f.top5);
      EXPECT_DOUBLE_EQ(r.test_loss, f.test_loss);
      if (i > 0) {
        EXPECT_DOUBLE_EQ(r.train_loss, f.train_loss);
      }
    }
    EXPECT_EQ(resumed.runtime().global_model().to_flat(),
              full.runtime().global_model().to_flat())
        << "sparse=" << sparse;
    EXPECT_EQ(resumed.runtime().prev_global_model().to_flat(),
              full.runtime().prev_global_model().to_flat())
        << "sparse=" << sparse;
    const auto& sgd_full = full.sgd_state();
    const auto& sgd_resumed = resumed.sgd_state();
    for (std::size_t g = 0; g < sgd_full.size(); ++g) {
      EXPECT_EQ(sgd_resumed[g].batch_size, sgd_full[g].batch_size);
      EXPECT_DOUBLE_EQ(sgd_resumed[g].learning_rate,
                       sgd_full[g].learning_rate);
    }
    std::remove(path.c_str());
  }
}

// Elastic SGD is checkpointable through the adaptive trainer it runs on: a
// run resumed at mega-batch 3 matches the uninterrupted one, also when a
// replica crashes before the checkpoint and rejoins after it.
TEST_F(FaultTest, ElasticResumedRunBitIdenticalToUninterrupted) {
  auto cfg = config();
  cfg.num_megabatches = 6;
  const auto elastic = [&](const core::TrainerConfig& c) {
    return std::make_unique<core::AdaptiveSgdTrainer>(
        dataset_, c, sim::v100_heterogeneous(3), core::Method::kElastic);
  };
  const double span = elastic(cfg)->train().total_vtime;
  fault::FaultPlan crash_join;
  crash_join.events.push_back(
      {fault::FaultKind::kCrash, 1, 0.25 * span, 0.0, 1.0, 0});
  crash_join.events.push_back(
      {fault::FaultKind::kJoin, 1, 0.65 * span, 0.0, 1.0, 0});

  for (const auto& plan : {fault::FaultPlan{}, crash_join}) {
    const auto label = plan.empty() ? "healthy" : "crash+join";
    auto full = elastic(cfg);
    fault::FaultInjector(plan).arm(full->runtime());
    const auto full_result = full->train();
    EXPECT_EQ(full_result.method, "elastic-sgd");
    EXPECT_EQ(full_result.faults.joins, plan.empty() ? 0u : 1u) << label;

    auto cfg3 = cfg;
    cfg3.num_megabatches = 3;
    auto first_half = elastic(cfg3);
    fault::FaultInjector(plan).arm(first_half->runtime());
    first_half->train();
    const auto path = temp_path("fault_resume_elastic.ckpt");
    fault::save_checkpoint_file(path, fault::capture_checkpoint(*first_half));

    auto resumed = elastic(cfg);
    const auto ckpt = fault::restore_checkpoint_file(*resumed, path);
    if (!plan.empty()) {
      ASSERT_EQ(ckpt.gpus[1].alive, 0u) << "the crash lands before the save";
    }
    fault::FaultInjector(plan).arm(resumed->runtime(), ckpt.vtime);
    const auto resumed_result = resumed->train();
    EXPECT_EQ(resumed_result.faults.joins, full_result.faults.joins) << label;

    ASSERT_EQ(resumed_result.curve.size(), 4u);
    ASSERT_EQ(full_result.curve.size(), 7u);
    for (std::size_t i = 0; i < resumed_result.curve.size(); ++i) {
      const auto& r = resumed_result.curve[i];
      const auto& f = full_result.curve[3 + i];
      EXPECT_EQ(r.megabatch, f.megabatch) << label;
      EXPECT_EQ(r.vtime, f.vtime) << label << " megabatch " << f.megabatch;
      EXPECT_EQ(r.samples, f.samples) << label;
      EXPECT_EQ(r.top1, f.top1) << label << " megabatch " << f.megabatch;
      EXPECT_EQ(r.alive_gpus, f.alive_gpus) << label;
    }
    EXPECT_EQ(resumed->runtime().global_model().to_flat(),
              full->runtime().global_model().to_flat())
        << label;
    std::remove(path.c_str());
  }
}

// A resumed run reports the uninterrupted run's totals, not just those of
// the part after the resume: merges, perturbed merges, scaling updates,
// communication time and the fault counters, for both methods, healthy and
// with an OOM window and a crash before the checkpoint and a join after it.
TEST_F(FaultTest, ResumedRunTotalsEqualUninterrupted) {
  auto cfg = config();
  cfg.num_megabatches = 6;
  for (const auto method : {core::Method::kAdaptive, core::Method::kElastic}) {
    const auto trainer = [&](const core::TrainerConfig& c) {
      return std::make_unique<core::AdaptiveSgdTrainer>(
          dataset_, c, sim::v100_heterogeneous(3), method);
    };
    const auto probe = trainer(cfg);
    const double span = probe->train().total_vtime;
    const double avg_nnz = dataset_.train.features.avg_row_nnz();
    const auto& model = probe->runtime().global_model();
    fault::FaultPlan faults;
    faults.events.push_back(
        {fault::FaultKind::kOom, 2, 0.05 * span, 0.3 * span, 1.0,
         2 * model.num_bytes() + model.step_memory_bytes(8, avg_nnz)});
    faults.events.push_back(
        {fault::FaultKind::kCrash, 1, 0.25 * span, 0.0, 1.0, 0});
    faults.events.push_back(
        {fault::FaultKind::kJoin, 1, 0.65 * span, 0.0, 1.0, 0});

    for (const auto& plan : {fault::FaultPlan{}, faults}) {
      const std::string label =
          core::to_string(method) + (plan.empty() ? " healthy" : " faults");
      auto full = trainer(cfg);
      fault::FaultInjector(plan).arm(full->runtime());
      const auto want = full->train();
      EXPECT_EQ(want.merges, 6u) << label;
      if (!plan.empty()) {
        EXPECT_GT(want.faults.oom_clamps, 0u) << label;
        EXPECT_EQ(want.faults.crashes, 1u) << label;
        EXPECT_EQ(want.faults.joins, 1u) << label;
        EXPECT_GT(want.faults.degraded_merges, 0u) << label;
        EXPECT_GT(want.faults.recovery_seconds, 0.0) << label;
      }

      auto cfg3 = cfg;
      cfg3.num_megabatches = 3;
      auto first_half = trainer(cfg3);
      fault::FaultInjector(plan).arm(first_half->runtime());
      first_half->train();
      auto resumed = trainer(cfg);
      const auto ckpt =
          restore_from_bytes(*resumed, checkpoint_bytes(*first_half));
      if (!plan.empty()) {
        ASSERT_EQ(ckpt.gpus[1].alive, 0u) << "the crash lands before the save";
      }
      fault::FaultInjector(plan).arm(resumed->runtime(), ckpt.vtime);
      const auto got = resumed->train();

      EXPECT_EQ(got.total_vtime, want.total_vtime) << label;
      EXPECT_EQ(got.merges, want.merges) << label;
      EXPECT_EQ(got.perturbed_merges, want.perturbed_merges) << label;
      EXPECT_EQ(got.scaling_updates, want.scaling_updates) << label;
      EXPECT_EQ(got.comm_seconds, want.comm_seconds) << label;
      EXPECT_EQ(got.faults.events_injected, want.faults.events_injected)
          << label;
      EXPECT_EQ(got.faults.oom_events, want.faults.oom_events) << label;
      EXPECT_EQ(got.faults.oom_clamps, want.faults.oom_clamps) << label;
      EXPECT_EQ(got.faults.crashes, want.faults.crashes) << label;
      EXPECT_EQ(got.faults.joins, want.faults.joins) << label;
      EXPECT_EQ(got.faults.degraded_merges, want.faults.degraded_merges)
          << label;
      EXPECT_EQ(got.faults.recovery_seconds, want.faults.recovery_seconds)
          << label;
    }
  }
}

// ---- compressed-merge state in checkpoints (format v2) --------------------

TEST_F(FaultTest, QuantizedResumedRunBitIdenticalToUninterrupted) {
  // The error-feedback residuals are part of the merge state: if the
  // checkpoint dropped them, the resumed run's first merge would quantize
  // different values and diverge bitwise from the uninterrupted run.
  for (const auto precision :
       {comm::MergePrecision::kFp16, comm::MergePrecision::kInt8}) {
    auto cfg = config();
    cfg.num_megabatches = 6;
    cfg.merge_precision = precision;

    core::AdaptiveSgdTrainer full(dataset_, cfg, sim::v100_heterogeneous(3));
    const auto full_result = full.train();

    auto cfg3 = cfg;
    cfg3.num_megabatches = 3;
    core::AdaptiveSgdTrainer first_half(dataset_, cfg3,
                                        sim::v100_heterogeneous(3));
    first_half.train();
    const auto path = temp_path("fault_resume_quant.ckpt");
    fault::save_checkpoint_file(path, fault::capture_checkpoint(first_half));

    core::AdaptiveSgdTrainer resumed(dataset_, cfg,
                                     sim::v100_heterogeneous(3));
    fault::restore_checkpoint_file(resumed, path);
    const auto resumed_result = resumed.train();

    ASSERT_EQ(resumed_result.curve.size(), 4u);
    ASSERT_EQ(full_result.curve.size(), 7u);
    for (std::size_t i = 0; i < resumed_result.curve.size(); ++i) {
      EXPECT_DOUBLE_EQ(resumed_result.curve[i].vtime,
                       full_result.curve[3 + i].vtime)
          << comm::precision_name(precision) << " megabatch "
          << full_result.curve[3 + i].megabatch;
      EXPECT_DOUBLE_EQ(resumed_result.curve[i].top1,
                       full_result.curve[3 + i].top1)
          << comm::precision_name(precision);
    }
    EXPECT_EQ(resumed.runtime().global_model().to_flat(),
              full.runtime().global_model().to_flat())
        << comm::precision_name(precision);
    EXPECT_EQ(resumed.runtime().prev_global_model().to_flat(),
              full.runtime().prev_global_model().to_flat());
    for (std::size_t g = 0; g < resumed.runtime().num_gpus(); ++g) {
      const auto a = resumed.runtime().residual_state(g);
      const auto b = full.runtime().residual_state(g);
      ASSERT_EQ(a.size(), b.size());
      EXPECT_EQ(0, std::memcmp(a.data(), b.data(),
                               a.size() * sizeof(float)))
          << comm::precision_name(precision) << " residual replica " << g;
    }
    std::remove(path.c_str());
  }
}

TEST_F(FaultTest, CheckpointRoundTripsCompressionState) {
  auto cfg = config();
  cfg.num_megabatches = 2;
  cfg.merge_precision = comm::MergePrecision::kInt8;
  core::AdaptiveSgdTrainer trainer(dataset_, cfg,
                                   sim::v100_heterogeneous(2));
  trainer.train();
  const auto ckpt = fault::capture_checkpoint(trainer);
  EXPECT_EQ(ckpt.compressed, 1u);
  bool any = false;
  for (std::size_t g = 0; g < 2; ++g) {
    const auto res = trainer.runtime().residual_state(g);
    EXPECT_EQ(res.size(), trainer.runtime().global_model().num_parameters());
    for (const float v : res) any |= (v != 0.0f);
  }
  EXPECT_TRUE(any) << "int8 merges must leave a nonzero residual";

  const auto path = temp_path("fault_quant_roundtrip.ckpt");
  fault::save_checkpoint_file(path, ckpt);
  const auto loaded = fault::load_checkpoint_file(path);
  EXPECT_EQ(loaded.compressed, ckpt.compressed);
  EXPECT_EQ(loaded.loss_scale, ckpt.loss_scale);
  EXPECT_EQ(loaded.loss_scale_streak, ckpt.loss_scale_streak);

  // Each replica's residual comes back bit for bit.
  core::AdaptiveSgdTrainer restored(dataset_, cfg,
                                    sim::v100_heterogeneous(2));
  fault::restore_checkpoint_file(restored, path);
  for (std::size_t g = 0; g < 2; ++g) {
    const auto a = restored.runtime().residual_state(g);
    const auto b = trainer.runtime().residual_state(g);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size_bytes()))
        << "residual replica " << g;
  }
  EXPECT_EQ(restored.runtime().loss_scale_guard().scale, ckpt.loss_scale);
  EXPECT_EQ(restored.runtime().loss_scale_guard().good_streak,
            ckpt.loss_scale_streak);
  std::remove(path.c_str());
}

TEST_F(FaultTest, RestoreRejectsCompressionMismatch) {
  auto cfg = config();
  cfg.num_megabatches = 2;
  cfg.merge_precision = comm::MergePrecision::kFp16;
  core::AdaptiveSgdTrainer quant(dataset_, cfg, sim::v100_heterogeneous(2));
  quant.train();
  const auto bytes = checkpoint_bytes(quant);

  // A checkpoint carrying residuals cannot restore into an fp32 runtime.
  auto cfg_fp32 = cfg;
  cfg_fp32.merge_precision = comm::MergePrecision::kFp32;
  core::AdaptiveSgdTrainer plain(dataset_, cfg_fp32,
                                 sim::v100_heterogeneous(2));
  EXPECT_THROW(restore_from_bytes(plain, bytes), hetero::MismatchError);

  // The reverse direction is allowed: an fp32 checkpoint restores into a
  // compressed runtime with zero residuals and the default loss scale.
  core::AdaptiveSgdTrainer plain2(dataset_, cfg_fp32,
                                  sim::v100_heterogeneous(2));
  plain2.train();
  const auto plain_ckpt = fault::capture_checkpoint(plain2);
  EXPECT_EQ(plain_ckpt.compressed, 0u);
  const auto plain_bytes = checkpoint_bytes(plain2);
  core::AdaptiveSgdTrainer quant2(dataset_, cfg, sim::v100_heterogeneous(2));
  // Dirty the error-feedback state first: restore must reset it
  // explicitly rather than trust the runtime to be freshly constructed.
  quant2.runtime().loss_scale_guard().scale = 64.0f;
  quant2.runtime().loss_scale_guard().good_streak = 7;
  for (std::size_t g = 0; g < quant2.runtime().num_gpus(); ++g) {
    auto res = quant2.runtime().residual_state(g);
    ASSERT_FALSE(res.empty());
    res[0] = 0.5f;
  }
  restore_from_bytes(quant2, plain_bytes);
  for (std::size_t g = 0; g < quant2.runtime().num_gpus(); ++g) {
    for (const float v : quant2.runtime().residual_state(g)) {
      ASSERT_EQ(v, 0.0f);
    }
  }
  EXPECT_EQ(quant2.runtime().loss_scale_guard().scale,
            comm::LossScaleGuard{}.scale);
  EXPECT_EQ(quant2.runtime().loss_scale_guard().good_streak, 0u);
}

TEST_F(FaultTest, CheckpointVersion1StillLoads) {
  // A v1 checkpoint is a v4 one minus the merge-compression section (a
  // single 0 flag byte when uncompressed), the optimizer section (3
  // metadata bytes, a u64 record count and one u64 step per replica for
  // stateless sgd) and the run section. Rewrite the version field and strip
  // all three.
  const auto source = tiny_trainer();
  source->train();
  auto bytes = checkpoint_bytes(*source);
  const std::uint32_t v1 = 1;
  std::memcpy(bytes.data() + 4, &v1, sizeof(v1));
  const std::size_t opt_section = 3 + 8 + 2 * 8;
  const std::size_t strip = 1 + opt_section + kRunSection;
  const std::size_t flag_at =
      bytes.size() - (strip + 2 * model_record_bytes(*source));
  ASSERT_EQ(bytes[flag_at], 0);  // the compressed=0 flag
  bytes.erase(flag_at, strip);
  const auto loaded = load_from_bytes(bytes);
  EXPECT_EQ(loaded.version, 1u);
  EXPECT_EQ(loaded.compressed, 0u);
  EXPECT_TRUE(loaded.opt_steps.empty());

  // It restores both models, and the run's totals start at zero.
  const auto restored = tiny_trainer();
  restore_from_bytes(*restored, bytes);
  EXPECT_EQ(restored->runtime().global_model().to_flat(),
            source->runtime().global_model().to_flat());
  EXPECT_EQ(restored->runtime().prev_global_model().to_flat(),
            source->runtime().prev_global_model().to_flat());
  EXPECT_EQ(restored->run_totals().merges, 0u);
  EXPECT_EQ(restored->run_totals().comm_seconds, 0.0);
}

TEST_F(FaultTest, CorruptCheckpointHostileResidualCountIsTypedError) {
  // A compressed checkpoint, then blast the residual count field.
  auto cfg = config();
  cfg.num_megabatches = 2;
  cfg.merge_precision = comm::MergePrecision::kInt8;
  const auto trainer = [&] {
    return std::make_unique<core::AdaptiveSgdTrainer>(
        dataset_, cfg, sim::v100_heterogeneous(2));
  };
  const auto source = trainer();
  source->train();
  const auto bytes = checkpoint_bytes(*source);
  // The residual count u64 sits before two size-prefixed residuals, the
  // sgd optimizer section (3 + 8 + 2 steps), the run section and the two
  // model records.
  const std::size_t residual = 8 + source->runtime().residual_state(0).size_bytes();
  const std::size_t count_at =
      bytes.size() - (8 + 2 * residual + 3 + 8 + 2 * 8 + kRunSection +
                      2 * model_record_bytes(*source));
  auto bad_count = bytes;
  write_u64_at(bad_count, count_at, std::uint64_t{1} << 61);
  EXPECT_THROW(load_from_bytes(bad_count), hetero::ParseError);
  EXPECT_THROW(restore_from_bytes(*trainer(), bad_count), hetero::ParseError);

  // Out-of-range loss scale is rejected as well (f64 before the streak and
  // the residual count).
  auto bad_scale = bytes;
  const double huge = 1e300;
  std::memcpy(bad_scale.data() + count_at - 16, &huge, sizeof(huge));
  EXPECT_THROW(load_from_bytes(bad_scale), hetero::ParseError);
  EXPECT_THROW(restore_from_bytes(*trainer(), bad_scale), hetero::ParseError);

  // And a residual length past the bytes left.
  auto bad_len = bytes;
  write_u64_at(bad_len, count_at + 8, std::uint64_t{1} << 62);
  EXPECT_THROW(load_from_bytes(bad_len), hetero::ParseError);
  EXPECT_THROW(restore_from_bytes(*trainer(), bad_len), hetero::ParseError);

  // The pristine bytes restore.
  EXPECT_NO_THROW(restore_from_bytes(*trainer(), bytes));
}

TEST_F(FaultTest, QuantizedCrashZeroesResidualOfDeadReplica) {
  auto cfg = config();
  cfg.num_megabatches = 6;
  cfg.merge_precision = comm::MergePrecision::kInt8;

  core::AdaptiveSgdTrainer healthy(dataset_, cfg, sim::v100_heterogeneous(3));
  const double total = healthy.train().total_vtime;
  for (std::size_t g = 0; g < healthy.runtime().num_gpus(); ++g) {
    bool any = false;
    for (const float v : healthy.runtime().residual_state(g)) {
      any |= (v != 0.0f);
    }
    EXPECT_TRUE(any) << "healthy replica " << g;
  }

  // Crash gpu1 mid-run with no rejoin: its residual is zeroed at the crash
  // and never written again, while survivors keep accumulating.
  core::AdaptiveSgdTrainer trainer(dataset_, cfg, sim::v100_heterogeneous(3));
  fault::FaultPlan plan;
  plan.events.push_back(
      {fault::FaultKind::kCrash, 1, 0.35 * total, 0.0, 1.0, 0});
  fault::FaultInjector(plan).arm(trainer.runtime());
  const auto result = trainer.train();
  ASSERT_EQ(result.faults.crashes, 1u);
  for (const float v : trainer.runtime().residual_state(1)) {
    ASSERT_EQ(v, 0.0f);
  }
  bool any = false;
  for (const float v : trainer.runtime().residual_state(0)) {
    any |= (v != 0.0f);
  }
  EXPECT_TRUE(any) << "survivor residual should be nonzero";
}

TEST_F(FaultTest, PeriodicCheckpointHookWritesAtCadenceAndEnd) {
  auto cfg = config();
  cfg.num_megabatches = 3;
  core::AdaptiveSgdTrainer trainer(dataset_, cfg,
                                   sim::v100_heterogeneous(2));
  const auto path = temp_path("fault_periodic.ckpt");
  fault::enable_periodic_checkpoint(trainer, path, 2);
  trainer.train();
  // Written at mega-batch 2 and overwritten at the final (3rd) boundary.
  const auto ckpt = fault::load_checkpoint_file(path);
  EXPECT_EQ(ckpt.megabatches_completed, 3u);
  EXPECT_EQ(ckpt.samples_served, trainer.runtime().samples_served());
  EXPECT_FALSE(std::ifstream(path + ".tmp").good()) << "temp file left";
  std::remove(path.c_str());
}

// A checkpoint file is written beside its path and renamed over it: a
// write that fails leaves the previous checkpoint byte for byte.
TEST_F(FaultTest, FailedCheckpointWriteKeepsThePreviousFile) {
  const auto read_file = [](const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  };
  const auto trainer = tiny_trainer();
  trainer->train();
  const auto path = temp_path("fault_crash_safe.ckpt");
  const auto tmp = path + ".tmp";
  fault::save_checkpoint_file(path, fault::capture_checkpoint(*trainer));
  const auto good = read_file(path);
  ASSERT_EQ(good, checkpoint_bytes(*trainer));
  EXPECT_FALSE(std::ifstream(tmp).good()) << "temp file left";

  // The write fails part-way: a checkpoint that was not captured has no
  // payload to stream.
  EXPECT_THROW(fault::save_checkpoint_file(path, fault::TrainingCheckpoint{}),
               std::invalid_argument);
  EXPECT_EQ(read_file(path), good);
  EXPECT_FALSE(std::ifstream(tmp).good()) << "temp file left";

  // The temporary file cannot be opened: a directory holds its name.
  ASSERT_TRUE(std::filesystem::create_directory(tmp));
  EXPECT_THROW(
      fault::save_checkpoint_file(path, fault::capture_checkpoint(*trainer)),
      std::runtime_error);
  EXPECT_EQ(read_file(path), good);
  std::filesystem::remove(tmp);
  std::remove(path.c_str());
}

TEST_F(FaultTest, RestoreRejectsMismatchedTrainer) {
  auto cfg = config();
  cfg.num_megabatches = 2;
  core::AdaptiveSgdTrainer trainer(dataset_, cfg,
                                   sim::v100_heterogeneous(2));
  trainer.train();
  const auto bytes = checkpoint_bytes(trainer);

  // Wrong GPU count.
  core::AdaptiveSgdTrainer three(dataset_, cfg, sim::v100_heterogeneous(3));
  EXPECT_THROW(restore_from_bytes(three, bytes), hetero::MismatchError);
  // Wrong seed.
  auto cfg_seed = cfg;
  cfg_seed.seed = 999;
  core::AdaptiveSgdTrainer other_seed(dataset_, cfg_seed,
                                      sim::v100_heterogeneous(2));
  EXPECT_THROW(restore_from_bytes(other_seed, bytes), hetero::MismatchError);
  // Mega-batches of another size: the sample position does not fit.
  auto cfg_mega = cfg;
  cfg_mega.batches_per_megabatch = 4;
  core::AdaptiveSgdTrainer other_mega(dataset_, cfg_mega,
                                      sim::v100_heterogeneous(2));
  EXPECT_THROW(restore_from_bytes(other_mega, bytes), hetero::MismatchError);
  // A run shorter than the checkpointed part.
  auto cfg_short = cfg;
  cfg_short.num_megabatches = 1;
  core::AdaptiveSgdTrainer short_run(dataset_, cfg_short,
                                     sim::v100_heterogeneous(2));
  EXPECT_THROW(restore_from_bytes(short_run, bytes), hetero::MismatchError);
}

// A v4 checkpoint names its method: resuming it as another method fails
// with both names; a v3 one carries no method and restores either way.
TEST_F(FaultTest, RestoreRejectsMethodMismatch) {
  auto cfg = config();
  cfg.num_megabatches = 2;
  const auto trainer = [&](core::Method method) {
    return std::make_unique<core::AdaptiveSgdTrainer>(
        dataset_, cfg, sim::v100_heterogeneous(2), method);
  };
  const auto adaptive = trainer(core::Method::kAdaptive);
  adaptive->train();
  const auto bytes = checkpoint_bytes(*adaptive);
  try {
    restore_from_bytes(*trainer(core::Method::kElastic), bytes);
    ADD_FAILURE() << "resumed an adaptive-sgd checkpoint as elastic-sgd";
  } catch (const hetero::MismatchError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("adaptive-sgd"), std::string::npos) << what;
    EXPECT_NE(what.find("elastic-sgd"), std::string::npos) << what;
  }
  EXPECT_NO_THROW(restore_from_bytes(*trainer(core::Method::kAdaptive), bytes));

  const auto v3 = without_run_section(bytes, model_record_bytes(*adaptive));
  const auto elastic = trainer(core::Method::kElastic);
  EXPECT_EQ(restore_from_bytes(*elastic, v3).version, 3u);
  EXPECT_EQ(elastic->runtime().global_model().to_flat(),
            adaptive->runtime().global_model().to_flat());
  EXPECT_EQ(elastic->run_totals().merges, 0u);
}

// Restoring a model of another shape but the same parameter count must fail
// with both shapes named, before any parameter is copied.
void expect_shape_rejected(core::AdaptiveSgdTrainer& source,
                           core::AdaptiveSgdTrainer& target,
                           std::size_t features,
                           std::span<const std::size_t> hidden,
                           std::size_t classes, const std::string& got,
                           const std::string& want) {
  const nn::Model impostor(features, {hidden.begin(), hidden.end()}, classes);
  ASSERT_EQ(impostor.num_parameters(),
            target.runtime().global_model().num_parameters());
  // The source's checkpoint with both model records swapped for the
  // impostor's.
  std::string bytes = checkpoint_bytes(source);
  bytes.resize(bytes.size() - 2 * model_record_bytes(source));
  std::ostringstream records(std::ios::binary);
  for (int i = 0; i < 2; ++i) {
    const std::uint64_t n = nn::serialized_size(impostor);
    records.write(reinterpret_cast<const char*>(&n), sizeof(n));
    nn::save_model(records, impostor);
  }
  bytes += records.str();
  const auto before = target.runtime().global_model().to_flat();
  try {
    restore_from_bytes(target, bytes);
    ADD_FAILURE() << "restored a " << got << " model into " << want;
  } catch (const hetero::MismatchError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(got), std::string::npos) << what;
    EXPECT_NE(what.find(want), std::string::npos) << what;
  }
  EXPECT_EQ(target.runtime().global_model().to_flat(), before);
}

TEST_F(FaultTest, RestoreRejectsOneHiddenModelOfSameCountOtherShape) {
  // 1089x4x64 and the runtime's 512x8x64 both hold 4680 parameters.
  auto cfg = config();
  cfg.hidden = 8;
  cfg.num_megabatches = 1;
  core::AdaptiveSgdTrainer source(dataset_, cfg, sim::v100_heterogeneous(2));
  source.train();
  core::AdaptiveSgdTrainer target(dataset_, cfg, sim::v100_heterogeneous(2));
  const std::size_t hidden[] = {4};
  expect_shape_rejected(source, target, 1089, hidden, 64, "1089x4x64",
                        "512x8x64");
}

TEST_F(FaultTest, RestoreRejectsOneHiddenModelIntoDeepRuntime) {
  // 563x7x64 and the runtime's 512x8x4x64 both hold 4460 parameters; a
  // copy across layer counts would read past the source's layer list.
  auto cfg = config();
  cfg.hidden_layers = {8, 4};
  cfg.num_megabatches = 1;
  core::AdaptiveSgdTrainer source(dataset_, cfg, sim::v100_heterogeneous(2));
  source.train();
  core::AdaptiveSgdTrainer target(dataset_, cfg, sim::v100_heterogeneous(2));
  const std::size_t hidden[] = {7};
  expect_shape_rejected(source, target, 563, hidden, 64, "563x7x64",
                        "512x8x4x64");
}

TEST_F(FaultTest, ResumeWithFaultPlanSkipsAlreadyAppliedEvents) {
  auto cfg = config();
  cfg.num_megabatches = 6;

  // Healthy probe run to place the crash inside the checkpointed half.
  core::AdaptiveSgdTrainer probe(dataset_, cfg, sim::v100_heterogeneous(3));
  const double span = probe.train().total_vtime;
  fault::FaultPlan plan;
  plan.events.push_back(
      {fault::FaultKind::kCrash, 2, 0.25 * span, 0.0, 1.0, 0});

  core::AdaptiveSgdTrainer reference(dataset_, cfg,
                                     sim::v100_heterogeneous(3));
  fault::FaultInjector(plan).arm(reference.runtime());
  const auto ref_result = reference.train();
  ASSERT_EQ(ref_result.faults.crashes, 1u);

  auto cfg3 = cfg;
  cfg3.num_megabatches = 3;
  core::AdaptiveSgdTrainer first_half(dataset_, cfg3,
                                      sim::v100_heterogeneous(3));
  fault::FaultInjector(plan).arm(first_half.runtime());
  first_half.train();
  const auto ckpt = fault::capture_checkpoint(first_half);
  ASSERT_EQ(ckpt.gpus[2].alive, 0u);  // crash applied before the checkpoint

  core::AdaptiveSgdTrainer resumed(dataset_, cfg,
                                   sim::v100_heterogeneous(3));
  restore_from_bytes(resumed, checkpoint_bytes(first_half));
  // Re-arm with the checkpoint vtime: the crash must not fire again, so the
  // restored count is the whole run's.
  fault::FaultInjector(plan).arm(resumed.runtime(), ckpt.vtime);
  const auto resumed_result = resumed.train();
  EXPECT_EQ(resumed_result.faults.crashes, ref_result.faults.crashes);
  EXPECT_EQ(resumed.runtime().global_model().to_flat(),
            reference.runtime().global_model().to_flat());
}

// ---- optimizer state: moment merge + checkpoints (format v3) --------------

namespace {

std::vector<float> flat_optimizer_state(nn::Optimizer& opt,
                                        std::size_t slot) {
  std::vector<float> flat;
  for (const auto seg : opt.slot_views(slot)) {
    flat.insert(flat.end(), seg.begin(), seg.end());
  }
  return flat;
}

}  // namespace

// The survivor-renormalized moment merge must equal the oracle computed
// over exactly the surviving replicas: renormalized weights, per-element
// double accumulation in replica index order, one rounding to float.
TEST_F(FaultTest, MomentMergeBitIdenticalToSurvivorOracle) {
  auto cfg = config();
  cfg.optimizer.kind = nn::OptimizerKind::kAdam;
  cfg.moment_merge = core::MomentMerge::kAverage;
  core::MultiGpuRuntime rt(dataset_, cfg, sim::v100_heterogeneous(3));
  for (int i = 0; i < 9; ++i) {
    const auto g = static_cast<std::size_t>(i % 3);
    rt.run_update_step(g, rt.next_batch(32), 0.02, rt.gpu_free_at(g));
  }
  rt.math_barrier();

  double now = 0.0;
  for (std::size_t g = 0; g < 3; ++g) {
    now = std::max(now, rt.gpu(g).device_free_at());
  }
  rt.schedule_crash(1, now);
  ASSERT_EQ(rt.apply_crashes_until(now), (std::vector<std::size_t>{1}));

  // Pre-merge snapshots of the survivors' state.
  std::vector<std::vector<float>> pre0, pre2;
  for (std::size_t slot = 0; slot < 2; ++slot) {
    pre0.push_back(flat_optimizer_state(rt.optimizer(0), slot));
    pre2.push_back(flat_optimizer_state(rt.optimizer(2), slot));
  }
  std::vector<std::uint32_t> steps0(rt.optimizer(0).row_steps().begin(),
                                    rt.optimizer(0).row_steps().end());
  std::vector<std::uint32_t> steps2(rt.optimizer(2).row_steps().begin(),
                                    rt.optimizer(2).row_steps().end());
  const std::uint64_t step0 = rt.optimizer(0).step();
  const std::uint64_t step2 = rt.optimizer(2).step();

  const std::vector<double> survivor_w{0.7, 0.3};
  const auto full = core::expand_alive_weights(
      survivor_w, std::vector<std::size_t>{0, 2}, 3);
  rt.merge_and_update(full, now);

  // Oracle: weights renormalized over the survivors (the perturbation may
  // denormalize Algorithm-2 weights; state must stay a convex combination).
  const double wsum = survivor_w[0] + survivor_w[1];
  const double w0 = survivor_w[0] / wsum;
  const double w2 = survivor_w[1] / wsum;
  for (std::size_t slot = 0; slot < 2; ++slot) {
    std::vector<float> expect(pre0[slot].size());
    for (std::size_t j = 0; j < expect.size(); ++j) {
      expect[j] = static_cast<float>(
          w0 * static_cast<double>(pre0[slot][j]) +
          w2 * static_cast<double>(pre2[slot][j]));
    }
    for (const std::size_t g : {std::size_t{0}, std::size_t{2}}) {
      const auto got = flat_optimizer_state(rt.optimizer(g), slot);
      ASSERT_EQ(got.size(), expect.size());
      EXPECT_EQ(0, std::memcmp(got.data(), expect.data(),
                               got.size() * sizeof(float)))
          << "slot " << slot << " replica " << g;
    }
  }
  // Row counters and dense step take the max over the survivors — written
  // back to both so the survivor set stays bit-equal.
  for (std::size_t r = 0; r < steps0.size(); ++r) {
    const auto want = std::max(steps0[r], steps2[r]);
    EXPECT_EQ(rt.optimizer(0).row_steps()[r], want) << "row " << r;
    EXPECT_EQ(rt.optimizer(2).row_steps()[r], want) << "row " << r;
  }
  EXPECT_EQ(rt.optimizer(0).step(), std::max(step0, step2));
  EXPECT_EQ(rt.optimizer(2).step(), std::max(step0, step2));
  // The crashed replica's state was reset, not merged.
  for (const float x : flat_optimizer_state(rt.optimizer(1), 0)) {
    ASSERT_EQ(x, 0.0f);
  }
}

TEST_F(FaultTest, MomentMergeKeepAndResetPolicies) {
  for (const auto policy :
       {core::MomentMerge::kKeep, core::MomentMerge::kReset}) {
    auto cfg = config();
    cfg.optimizer.kind = nn::OptimizerKind::kAdagrad;
    cfg.moment_merge = policy;
    core::MultiGpuRuntime rt(dataset_, cfg, sim::v100_heterogeneous(2));
    for (int i = 0; i < 4; ++i) {
      const auto g = static_cast<std::size_t>(i % 2);
      rt.run_update_step(g, rt.next_batch(32), 0.1, rt.gpu_free_at(g));
    }
    rt.math_barrier();
    const auto pre = flat_optimizer_state(rt.optimizer(0), 0);
    double now = 0.0;
    for (std::size_t g = 0; g < 2; ++g) {
      now = std::max(now, rt.gpu(g).device_free_at());
    }
    rt.merge_and_update(std::vector<double>{0.5, 0.5}, now);
    const auto post = flat_optimizer_state(rt.optimizer(0), 0);
    if (policy == core::MomentMerge::kKeep) {
      EXPECT_EQ(pre, post);  // local state rides through the merge
    } else {
      for (const float x : post) ASSERT_EQ(x, 0.0f);
      EXPECT_EQ(rt.optimizer(0).step(), 0u);
    }
  }
}

TEST_F(FaultTest, CheckpointV3RoundTripsOptimizerState) {
  auto cfg = config();
  cfg.optimizer.kind = nn::OptimizerKind::kAdam;
  cfg.weight_decay = 1e-4;
  core::AdaptiveSgdTrainer trainer(dataset_, cfg, sim::v100_heterogeneous(3));
  trainer.train();
  const auto ckpt = fault::capture_checkpoint(trainer);
  EXPECT_EQ(ckpt.opt_kind,
            static_cast<std::uint8_t>(nn::OptimizerKind::kAdam));
  EXPECT_EQ(ckpt.opt_num_slots, 2u);
  EXPECT_EQ(ckpt.opt_has_row_steps, 1u);
  ASSERT_EQ(ckpt.opt_steps.size(), 3u);
  for (std::size_t g = 0; g < 3; ++g) {
    EXPECT_EQ(ckpt.opt_steps[g], trainer.runtime().optimizer(g).step());
  }

  std::ostringstream out(std::ios::binary);
  fault::save_checkpoint(out, ckpt);
  const auto loaded = load_from_bytes(out.str());
  EXPECT_EQ(loaded.opt_kind, ckpt.opt_kind);
  EXPECT_EQ(loaded.opt_num_slots, ckpt.opt_num_slots);
  EXPECT_EQ(loaded.opt_has_row_steps, ckpt.opt_has_row_steps);
  EXPECT_EQ(loaded.opt_steps, ckpt.opt_steps);

  // A restore reproduces every replica's step, row counters and each slot
  // (the concatenation of its segment views) bit for bit.
  core::AdaptiveSgdTrainer restored(dataset_, cfg,
                                    sim::v100_heterogeneous(3));
  restore_from_bytes(restored, out.str());
  for (std::size_t g = 0; g < 3; ++g) {
    auto& live = trainer.runtime().optimizer(g);
    auto& back = restored.runtime().optimizer(g);
    EXPECT_EQ(back.step(), live.step()) << "replica " << g;
    const auto a = live.row_steps();
    const auto b = back.row_steps();
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size_bytes()))
        << "replica " << g;
    for (std::size_t slot = 0; slot < 2; ++slot) {
      const auto x = flat_optimizer_state(live, slot);
      const auto y = flat_optimizer_state(back, slot);
      ASSERT_EQ(x.size(), y.size());
      EXPECT_EQ(0, std::memcmp(x.data(), y.data(), x.size() * sizeof(float)))
          << "replica " << g << " slot " << slot;
    }
  }
}

TEST_F(FaultTest, AdamResumedRunBitIdenticalToUninterrupted) {
  // The v3 optimizer section is what makes a stateful-optimizer resume
  // exact: if the moments or lazy row counters were dropped, the resumed
  // run's first post-restore step would bias-correct differently and
  // diverge bitwise.
  auto cfg = config();
  cfg.num_megabatches = 6;
  cfg.optimizer.kind = nn::OptimizerKind::kAdamW;
  cfg.learning_rate = 0.02;
  cfg.weight_decay = 1e-4;

  core::AdaptiveSgdTrainer full(dataset_, cfg, sim::v100_heterogeneous(3));
  const auto full_result = full.train();

  auto cfg3 = cfg;
  cfg3.num_megabatches = 3;
  core::AdaptiveSgdTrainer first_half(dataset_, cfg3,
                                      sim::v100_heterogeneous(3));
  first_half.train();
  const auto path = temp_path("fault_resume_adam.ckpt");
  fault::save_checkpoint_file(path, fault::capture_checkpoint(first_half));

  core::AdaptiveSgdTrainer resumed(dataset_, cfg, sim::v100_heterogeneous(3));
  fault::restore_checkpoint_file(resumed, path);
  const auto resumed_result = resumed.train();

  ASSERT_EQ(resumed_result.curve.size(), 4u);
  ASSERT_EQ(full_result.curve.size(), 7u);
  for (std::size_t i = 0; i < resumed_result.curve.size(); ++i) {
    EXPECT_DOUBLE_EQ(resumed_result.curve[i].top1,
                     full_result.curve[3 + i].top1)
        << "megabatch " << full_result.curve[3 + i].megabatch;
  }
  EXPECT_EQ(resumed.runtime().global_model().to_flat(),
            full.runtime().global_model().to_flat());
  EXPECT_EQ(resumed.runtime().prev_global_model().to_flat(),
            full.runtime().prev_global_model().to_flat());
  for (std::size_t g = 0; g < full.runtime().num_gpus(); ++g) {
    auto& of = full.runtime().optimizer(g);
    auto& orr = resumed.runtime().optimizer(g);
    EXPECT_EQ(orr.step(), of.step()) << "replica " << g;
    const auto rf = of.row_steps();
    const auto rr = orr.row_steps();
    ASSERT_EQ(rf.size(), rr.size());
    EXPECT_EQ(0, std::memcmp(rf.data(), rr.data(),
                             rf.size() * sizeof(std::uint32_t)))
        << "replica " << g;
    for (std::size_t slot = 0; slot < of.num_slots(); ++slot) {
      const auto a = flat_optimizer_state(of, slot);
      const auto b = flat_optimizer_state(orr, slot);
      ASSERT_EQ(a.size(), b.size());
      EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(float)))
          << "replica " << g << " slot " << slot;
    }
  }
  std::remove(path.c_str());
}

TEST_F(FaultTest, RestoreRejectsOptimizerKindMismatch) {
  auto cfg = config();
  cfg.optimizer.kind = nn::OptimizerKind::kAdagrad;
  core::AdaptiveSgdTrainer adagrad(dataset_, cfg, sim::v100_heterogeneous(2));
  adagrad.train();
  const auto bytes = checkpoint_bytes(adagrad);

  auto adam_cfg = cfg;
  adam_cfg.optimizer.kind = nn::OptimizerKind::kAdam;
  core::AdaptiveSgdTrainer adam(dataset_, adam_cfg,
                                sim::v100_heterogeneous(2));
  EXPECT_THROW(restore_from_bytes(adam, bytes), hetero::MismatchError);
}

TEST_F(FaultTest, CorruptCheckpointHostileOptimizerSectionIsTypedError) {
  auto cfg = config();
  cfg.optimizer.kind = nn::OptimizerKind::kAdam;
  const auto trainer = [&] {
    return std::make_unique<core::AdaptiveSgdTrainer>(
        dataset_, cfg, sim::v100_heterogeneous(2));
  };
  const auto source = trainer();
  source->train();
  const std::string bytes = checkpoint_bytes(*source);

  // Locate the optimizer section tail-relative: the run section and the
  // two model records are always the final records, and the section length
  // follows from the live optimizer state.
  const std::size_t tail = kRunSection + 2 * model_record_bytes(*source);
  const std::size_t rows = source->runtime().optimizer(0).row_steps().size();
  const std::size_t params =
      source->runtime().global_model().num_parameters();
  // Per replica: step, row counters, two slots of one float per parameter.
  const std::size_t replica =
      8 + (8 + rows * sizeof(std::uint32_t)) + 2 * (8 + params * sizeof(float));
  const std::size_t start = bytes.size() - tail - (3 + 8 + 2 * replica);

  // Structural damage fails both readers; a bad float only surfaces when a
  // restore reads the state (load_checkpoint skips it).
  const auto expect_restore_error = [&](const std::string& mutated,
                                        const std::string& what) {
    try {
      restore_from_bytes(*trainer(), mutated);
      ADD_FAILURE() << "restored " << what;
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
          << e.what();
    }
  };
  const auto expect_parse_error = [&](const std::string& mutated,
                                      const std::string& what) {
    EXPECT_THROW(load_from_bytes(mutated), ParseError) << what;
    expect_restore_error(mutated, what);
  };

  // Out-of-range optimizer kind byte.
  auto bad_kind = bytes;
  bad_kind[start] = 0x07;
  expect_parse_error(bad_kind, "invalid optimizer kind");

  // Kind/shape mismatch: the sgd byte with adam-shaped slot metadata.
  auto sgd_kind = bytes;
  sgd_kind[start] = 0x00;
  expect_parse_error(sgd_kind, "optimizer shape metadata");

  // Hostile row-counter count of replica 0 (would allocate or write ~2^60
  // entries if the reader trusted it).
  auto bad_rows = bytes;
  const std::size_t row_count_at = start + 3 + 8 + 8;
  for (int i = 0; i < 8; ++i) {
    bad_rows[row_count_at + i] = static_cast<char>(0xee);
  }
  expect_parse_error(bad_rows, "row counter count");

  // Hostile element count of replica 0 slot 0 (truncated moment matrix:
  // the count claims more floats than the stream holds).
  auto bad_slot = bytes;
  const std::size_t slot_count_at =
      row_count_at + 8 + rows * sizeof(std::uint32_t);
  for (int i = 0; i < 8; ++i) {
    bad_slot[slot_count_at + i] = static_cast<char>(0xee);
  }
  expect_parse_error(bad_slot, "optimizer slot count");

  // Non-finite moment values: restored state must be arithmetic-safe.
  const auto with_float = [&](std::size_t at, float v) {
    auto mutated = bytes;
    std::memcpy(mutated.data() + at, &v, sizeof(v));
    return mutated;
  };
  const std::size_t slot1_of_replica0 =
      slot_count_at + 8 + params * sizeof(float) + 8;
  expect_restore_error(
      with_float(slot1_of_replica0 + 3 * sizeof(float),
                 std::numeric_limits<float>::quiet_NaN()),
      "non-finite optimizer state");
  const std::size_t slot0_of_replica1 = start + 3 + 8 + replica + 8 +
                                        (8 + rows * sizeof(std::uint32_t)) + 8;
  expect_restore_error(
      with_float(slot0_of_replica1, std::numeric_limits<float>::infinity()),
      "non-finite optimizer state");

  // The pristine bytes still load and restore.
  EXPECT_NO_THROW(load_from_bytes(bytes));
  EXPECT_NO_THROW(restore_from_bytes(*trainer(), bytes));
}

// ---- node-level fault events (multi-node hierarchy) -----------------------

TEST_F(FaultTest, NodeEventsParseAndRoundTrip) {
  const auto plan = fault::FaultPlan::parse(
      "slow@0.5+1.0x0.4:node1;crash@2.0:node1;partition@4.0+1.5:node0");
  ASSERT_EQ(plan.events.size(), 3u);
  for (const auto& ev : plan.events) EXPECT_TRUE(ev.node_target);
  EXPECT_EQ(plan.events[1].kind, fault::FaultKind::kCrash);
  EXPECT_EQ(plan.events[1].device, 1u);
  EXPECT_EQ(plan.events[2].kind, fault::FaultKind::kPartition);
  EXPECT_DOUBLE_EQ(plan.events[2].duration, 1.5);

  const auto reparsed = fault::FaultPlan::parse(plan.to_string());
  ASSERT_EQ(reparsed.events.size(), plan.events.size());
  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    EXPECT_EQ(reparsed.events[i].kind, plan.events[i].kind);
    EXPECT_EQ(reparsed.events[i].device, plan.events[i].device);
    EXPECT_EQ(reparsed.events[i].node_target, plan.events[i].node_target);
    EXPECT_DOUBLE_EQ(reparsed.events[i].time, plan.events[i].time);
    EXPECT_DOUBLE_EQ(reparsed.events[i].duration, plan.events[i].duration);
  }
}

TEST_F(FaultTest, NodeEventValidationRejectsBadPlans) {
  const auto topo = sim::Topology::cluster(2, 2);
  // Node index out of range.
  EXPECT_THROW(fault::FaultPlan::parse("crash@1.0:node2").validate(topo),
               hetero::ParseError);
  // partition is node-level only.
  EXPECT_THROW(
      fault::FaultPlan::parse("partition@1.0+0.5:gpu1").validate(topo),
      hetero::ParseError);
  // partition needs a heal time.
  EXPECT_THROW(fault::FaultPlan::parse("partition@1.0:node1").validate(topo),
               hetero::ParseError);
  // Crashing a node then one of its (already dead) replicas is invalid.
  EXPECT_THROW(
      fault::FaultPlan::parse("crash@1.0:node1;crash@2.0:gpu3").validate(topo),
      hetero::ParseError);
  // Crashing both nodes leaves nobody alive.
  EXPECT_THROW(
      fault::FaultPlan::parse("crash@1.0:node0;crash@1.0:node1").validate(topo),
      hetero::ParseError);
}

TEST_F(FaultTest, NodeEventsExpandToPerReplicaEvents) {
  const auto topo = sim::Topology::cluster(2, 2, 1);  // nodes: 0,0,1,1,0
  const auto plan =
      fault::FaultPlan::parse("crash@1.0:node1;partition@3.0+2.0:node0");
  const auto expanded = plan.expand(topo);
  // node1 crash -> replicas {2,3}; node0 partition -> crash+join on {0,1,4}.
  ASSERT_EQ(expanded.events.size(), 8u);
  for (const auto& ev : expanded.events) {
    EXPECT_FALSE(ev.node_target);
    EXPECT_NE(ev.kind, fault::FaultKind::kPartition);
  }
  EXPECT_EQ(expanded.events[0].kind, fault::FaultKind::kCrash);
  EXPECT_EQ(expanded.events[0].device, 2u);
  EXPECT_EQ(expanded.events[1].device, 3u);
  std::size_t crashes_at_3 = 0, joins_at_5 = 0;
  for (const auto& ev : expanded.events) {
    if (ev.kind == fault::FaultKind::kCrash && ev.time == 3.0) ++crashes_at_3;
    if (ev.kind == fault::FaultKind::kJoin && ev.time == 5.0) ++joins_at_5;
  }
  EXPECT_EQ(crashes_at_3, 3u);
  EXPECT_EQ(joins_at_5, 3u);
}

// Satellite: a whole-node crash armed through the injector produces exactly
// the survivor-renormalized merge — bit-identical to the fused merge kernel
// applied to the surviving node's replicas alone.
TEST_F(FaultTest, WholeNodeCrashRenormalizationMatchesSurvivorOracle) {
  for (const bool sparse : {false, true}) {
    auto cfg = config();
    cfg.sparse_merge = sparse;
    cfg.num_nodes = 2;
    core::MultiGpuRuntime rt(dataset_, cfg, sim::cluster_devices(2, 2));
    ASSERT_EQ(rt.links().topology().num_nodes, 2u);
    for (int i = 0; i < 8; ++i) {
      const auto g = static_cast<std::size_t>(i % 4);
      rt.run_update_step(g, rt.next_batch(32), 0.2, rt.gpu_free_at(g));
    }
    rt.math_barrier();
    const auto r0 = rt.replica(0).to_flat();
    const auto r1 = rt.replica(1).to_flat();
    auto oracle_global = rt.global_model().to_flat();
    auto oracle_prev = rt.prev_global_model().to_flat();

    double now = 0.0;
    for (std::size_t g = 0; g < 4; ++g) {
      now = std::max(now, rt.gpu(g).device_free_at());
    }
    // Kill node 1 (replicas 2 and 3) through the injector's node path.
    fault::FaultPlan plan;
    plan.events.push_back(
        {fault::FaultKind::kCrash, 1, now, 0.0, 1.0, 0, true});
    fault::FaultInjector(plan).arm(rt);
    const auto crashed = rt.apply_crashes_until(now);
    ASSERT_EQ(crashed, (std::vector<std::size_t>{2, 3}));
    EXPECT_EQ(rt.num_alive(), 2u);
    EXPECT_EQ(rt.fault_stats().node_events, 1u);

    const std::vector<double> survivor_w{0.55, 0.45};
    const std::vector<std::size_t> alive_idx{0, 1};
    const auto full = core::expand_alive_weights(survivor_w, alive_idx, 4);
    rt.merge_and_update(full, now);

    const float* bases[2] = {r0.data(), r1.data()};
    const core::MergeUpdate u{survivor_w, cfg.momentum_gamma,
                              cfg.enable_momentum};
    core::merge_segment(std::span<const float* const>(bases, 2),
                        oracle_global.size(), u,
                        {oracle_global.data(), oracle_global.size()},
                        {oracle_prev.data(), oracle_prev.size()},
                        /*min_shards=*/1, {});
    EXPECT_EQ(rt.global_model().to_flat(), oracle_global) << "sparse=" << sparse;
    EXPECT_EQ(rt.prev_global_model().to_flat(), oracle_prev)
        << "sparse=" << sparse;
    EXPECT_EQ(rt.fault_stats().degraded_merges, 1u);
  }
}

// A node partition heals: the node's replicas leave the merge group for the
// outage and are all re-admitted afterwards.
TEST_F(FaultTest, NodePartitionHealsWithFullMembership) {
  auto cfg = config();
  cfg.num_nodes = 2;
  core::AdaptiveSgdTrainer healthy(dataset_, cfg, sim::cluster_devices(2, 2));
  const double total = healthy.train().total_vtime;

  core::AdaptiveSgdTrainer trainer(dataset_, cfg, sim::cluster_devices(2, 2));
  fault::FaultInjector(
      fault::FaultPlan::parse("partition@" + std::to_string(0.3 * total) +
                              "+" + std::to_string(0.3 * total) + ":node1"))
      .arm(trainer.runtime());
  const auto result = trainer.train();
  EXPECT_EQ(result.faults.node_events, 1u);
  EXPECT_EQ(result.faults.crashes, 2u);
  EXPECT_EQ(result.faults.joins, 2u);
  EXPECT_GE(result.faults.degraded_merges, 1u);
  std::size_t min_alive = 4;
  for (const auto& p : result.curve) min_alive = std::min(min_alive, p.alive_gpus);
  EXPECT_EQ(min_alive, 2u);
  EXPECT_EQ(result.curve.back().alive_gpus, 4u);
}

}  // namespace
}  // namespace hetero
