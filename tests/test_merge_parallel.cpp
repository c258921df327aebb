// Merge-path determinism and equivalence tests.
//
// The merge pipeline promises bit-identical results across every execution
// strategy: serial vs sharded vs threaded reductions, segmented vs flat
// buffers, and the delta (touched-row) path vs the dense oracle. These tests
// enforce that contract with exact bitwise comparisons — EXPECT_EQ on float
// vectors, never EXPECT_NEAR — over fuzzed shapes, perturbed weights with
// sum != 1, momentum on and off, and 1..16 pool threads.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "comm/allreduce.h"
#include "comm/quant.h"
#include "core/merging.h"
#include "core/runtime.h"
#include "data/synthetic.h"
#include "pinned_run.h"
#include "sim/profiles.h"
#include "sparse/sparse_gradient.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace hetero {
namespace {

std::vector<float> random_params(std::size_t len, util::Rng& rng) {
  std::vector<float> v(len);
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

std::vector<double> perturbed_weights(std::size_t n, util::Rng& rng) {
  // Deliberately NOT summing to 1 (Algorithm 2 perturbation denormalizes).
  std::vector<double> w(n);
  for (auto& x : w) x = rng.uniform(0.05, 0.6);
  return w;
}

// Serial element-at-a-time reference of the fused merge + momentum update —
// the oracle every sharded/threaded/delta path must match bitwise.
void reference_merge(const std::vector<std::vector<float>>& replicas,
                     const std::vector<double>& weights,
                     std::vector<float>& global, std::vector<float>& prev,
                     double gamma, bool momentum) {
  const auto g = static_cast<float>(gamma);
  for (std::size_t j = 0; j < global.size(); ++j) {
    double acc = weights[0] * replicas[0][j];
    for (std::size_t i = 1; i < replicas.size(); ++i) {
      acc += weights[i] * replicas[i][j];
    }
    const auto merged = static_cast<float>(acc);
    if (momentum) {
      const float w = global[j];
      global[j] = merged + g * (w - prev[j]);
      prev[j] = w;
    } else {
      prev[j] = global[j];
      global[j] = merged;
    }
  }
}

kernels::Context pool_ctx(util::ThreadPool* pool, std::size_t threads) {
  kernels::Context ctx{pool, threads};
  ctx.serial_grain = 1;  // force the parallel path even on tiny inputs
  return ctx;
}

TEST(MergeSegment, BitIdenticalToSerialReferenceAcrossThreadsAndShards) {
  util::Rng rng(42);
  const std::size_t kThreadCounts[] = {1, 2, 3, 8, 16};
  const std::size_t kShapes[] = {1, 5, 511, 512, 513, 1000, 4113};
  for (const std::size_t len : kShapes) {
    for (const std::size_t n : {1u, 2u, 3u, 5u}) {
      std::vector<std::vector<float>> replicas;
      for (std::size_t i = 0; i < n; ++i) {
        replicas.push_back(random_params(len, rng));
      }
      const auto weights = perturbed_weights(n, rng);
      const auto global0 = random_params(len, rng);
      const auto prev0 = random_params(len, rng);
      for (const bool momentum : {true, false}) {
        auto ref_global = global0;
        auto ref_prev = prev0;
        reference_merge(replicas, weights, ref_global, ref_prev, 0.9,
                        momentum);
        for (const std::size_t threads : kThreadCounts) {
          util::ThreadPool pool(threads);
          const auto ctx = pool_ctx(&pool, threads);
          for (const std::size_t shards : {1u, 3u, 8u}) {
            auto global = global0;
            auto prev = prev0;
            std::vector<const float*> bases;
            for (const auto& r : replicas) bases.push_back(r.data());
            core::MergeUpdate u{weights, 0.9, momentum};
            core::merge_segment(bases, len, u,
                                {global.data(), global.size()},
                                {prev.data(), prev.size()}, shards, ctx);
            ASSERT_EQ(global, ref_global)
                << "len=" << len << " n=" << n << " threads=" << threads
                << " shards=" << shards << " momentum=" << momentum;
            ASSERT_EQ(prev, ref_prev);
          }
        }
      }
    }
  }
}

TEST(MergeSegment, DeltaPairBitIdenticalToDenseKernel) {
  util::Rng rng(7);
  const std::size_t rows = 257, cols = 48;
  const std::size_t len = rows * cols;
  for (const std::size_t n : {2u, 4u}) {
    for (const bool momentum : {true, false}) {
      const auto global0 = random_params(len, rng);
      const auto prev0 = random_params(len, rng);
      // Replicas equal global except on their own touched rows — the
      // invariant the broadcast establishes and sparse updates preserve.
      sparse::RowSet touched;
      touched.reset(rows);
      std::vector<std::vector<float>> replicas(n, global0);
      for (std::size_t i = 0; i < n; ++i) {
        std::vector<std::uint32_t> mine;
        const std::size_t k = 1 + rng.next_below(rows / 3);
        for (std::size_t t = 0; t < k; ++t) {
          mine.push_back(static_cast<std::uint32_t>(rng.next_below(rows)));
        }
        touched.add(mine);
        for (const auto r : mine) {
          for (std::size_t c = 0; c < cols; ++c) {
            replicas[i][r * cols + c] +=
                static_cast<float>(rng.uniform(-0.5, 0.5));
          }
        }
      }
      const auto weights = perturbed_weights(n, rng);
      core::MergeUpdate u{weights, 0.9, momentum};
      std::vector<const float*> bases;
      for (const auto& r : replicas) bases.push_back(r.data());

      auto dense_global = global0;
      auto dense_prev = prev0;
      core::merge_segment(bases, len, u,
                          {dense_global.data(), len},
                          {dense_prev.data(), len}, 4, {});

      util::ThreadPool pool(4);
      const auto ctx = pool_ctx(&pool, 4);
      auto delta_global = global0;
      auto delta_prev = prev0;
      std::vector<std::uint32_t> sorted;
      touched.sorted_rows(sorted);
      core::merge_touched_rows(bases, sorted, cols, u, delta_global.data(),
                               delta_prev.data(), ctx);
      core::merge_untouched_rows(touched, rows, cols, u,
                                 {delta_global.data(), len},
                                 {delta_prev.data(), len}, ctx);
      ASSERT_EQ(delta_global, dense_global)
          << "n=" << n << " momentum=" << momentum
          << " touched=" << touched.size();
      ASSERT_EQ(delta_prev, dense_prev);
    }
  }
}

TEST(RowSet, AddDedupContainsClear) {
  sparse::RowSet set;
  set.reset(100);
  EXPECT_EQ(set.size(), 0u);
  const std::uint32_t a[] = {5, 7, 5, 99, 0, 7};
  set.add(a);
  EXPECT_EQ(set.size(), 4u);
  EXPECT_TRUE(set.contains(5));
  EXPECT_TRUE(set.contains(0));
  EXPECT_TRUE(set.contains(99));
  EXPECT_FALSE(set.contains(1));
  EXPECT_FALSE(set.contains(100));  // out of range

  sparse::RowSet other;
  other.reset(100);
  const std::uint32_t b[] = {5, 42};
  other.add(b);
  set.add(other);
  EXPECT_EQ(set.size(), 5u);

  std::vector<std::uint32_t> sorted;
  set.sorted_rows(sorted);
  EXPECT_EQ(sorted, (std::vector<std::uint32_t>{0, 5, 7, 42, 99}));

  set.clear();
  EXPECT_EQ(set.size(), 0u);
  EXPECT_FALSE(set.contains(5));
  set.add(b);
  EXPECT_EQ(set.size(), 2u);
  EXPECT_FALSE(set.contains(7));  // stale pre-clear entry must not leak
}

TEST(AllReduceCost, RingMultiStreamChargesFractionalChunks) {
  comm::AllReducer reducer(comm::AllReduceAlgo::kRingMultiStream,
                           sim::default_links(4), 8);
  // With 8 streams and 4 replicas, 16- and 8-byte buffers both truncate to
  // 0-byte chunks under the old integer cast — the costs were equal. The
  // fractional fix must strictly order them.
  const auto small = reducer.cost(4, 8);
  const auto large = reducer.cost(4, 16);
  EXPECT_GT(large.seconds, small.seconds);
  EXPECT_DOUBLE_EQ(small.payload_bytes, 8.0);
  EXPECT_DOUBLE_EQ(large.payload_bytes, 16.0);
}

// ---- Runtime-level equivalence: delta merge vs dense oracle --------------

class DeltaMergeRuntimeTest : public ::testing::Test {
 protected:
  DeltaMergeRuntimeTest()
      : dataset_(data::generate_xml_dataset(data::tiny_profile())) {}

  core::TrainerConfig config(bool sparse_merge, bool momentum,
                             std::size_t kernel_threads,
                             bool threaded) const {
    core::TrainerConfig cfg;
    cfg.hidden = 16;
    cfg.batch_max = 32;
    cfg.batches_per_megabatch = 8;
    cfg.eval_samples = 100;
    cfg.compute_scale = 100.0;
    cfg.sparse_merge = sparse_merge;
    cfg.enable_momentum = momentum;
    cfg.kernel_threads = kernel_threads;
    if (threaded) cfg.mode = core::ExecutionMode::kThreaded;
    return cfg;
  }

  // Runs the same step/merge schedule on a runtime and returns the global
  // model flats observed after each of three merges.
  std::vector<std::vector<float>> run_schedule(
      core::MultiGpuRuntime& rt,
      std::vector<core::MultiGpuRuntime::MergeTiming>* timings = nullptr) {
    std::vector<std::vector<float>> globals;
    // Perturbed weights: sum = 1.1 (Algorithm 2 can denormalize).
    const std::vector<double> weights = {0.4, 0.3, 0.25, 0.15};
    for (std::size_t mb = 0; mb < 3; ++mb) {
      double sync = 0.0;
      for (std::size_t g = 0; g < rt.num_gpus(); ++g) {
        double t = rt.gpu_free_at(g);
        for (std::size_t s = 0; s < 2 + g; ++s) {
          t = rt.run_update_step(g, rt.next_batch(16 + 4 * g), 0.1, t);
        }
        sync = std::max(sync, t);
      }
      const auto timing = rt.merge_and_update(
          std::span<const double>(weights.data(), rt.num_gpus()), sync);
      if (timings != nullptr) timings->push_back(timing);
      globals.push_back(rt.global_model().to_flat());
      // Every replica must hold the broadcast global exactly.
      for (std::size_t g = 0; g < rt.num_gpus(); ++g) {
        EXPECT_EQ(rt.replica(g).to_flat(), globals.back());
      }
    }
    return globals;
  }

  // Eight merges in which replicas sit out whole mega-batches (replica g
  // steps in mega-batch m only when bit g of kActive[m] is set), so a W1
  // row a replica last touched several merges ago is read again long after
  // global moved on. Replicas are read only when `read_replicas` is set.
  std::vector<std::vector<float>> run_stale_schedule(core::MultiGpuRuntime& rt,
                                                     bool read_replicas) {
    static constexpr unsigned kActive[] = {0xF, 0xD, 0x9, 0x6,
                                           0x3, 0xD, 0xC, 0xF};
    const std::vector<double> weights = {0.4, 0.3, 0.25, 0.15};
    std::vector<std::vector<float>> globals;
    for (const unsigned active : kActive) {
      double sync = 0.0;
      for (std::size_t g = 0; g < rt.num_gpus(); ++g) {
        double t = rt.gpu_free_at(g);
        if ((active >> g) & 1u) {
          for (std::size_t s = 0; s < 2 + g; ++s) {
            t = rt.run_update_step(g, rt.next_batch(16 + 4 * g), 0.1, t);
          }
        }
        sync = std::max(sync, t);
      }
      rt.merge_and_update(weights, sync);
      globals.push_back(rt.global_model().to_flat());
      if (!read_replicas) continue;
      for (std::size_t g = 0; g < rt.num_gpus(); ++g) {
        EXPECT_EQ(rt.replica(g).to_flat(), globals.back());
      }
    }
    return globals;
  }

  data::XmlDataset dataset_;
};

TEST_F(DeltaMergeRuntimeTest, DeltaBitIdenticalToDenseOracle) {
  for (const bool momentum : {true, false}) {
    for (const bool threaded : {false, true}) {
      for (const std::size_t threads : {1u, 4u}) {
        core::MultiGpuRuntime dense(
            dataset_, config(false, momentum, threads, threaded),
            sim::v100_heterogeneous(4));
        core::MultiGpuRuntime delta(
            dataset_, config(true, momentum, threads, threaded),
            sim::v100_heterogeneous(4));
        const auto dense_globals = run_schedule(dense);
        std::vector<core::MultiGpuRuntime::MergeTiming> timings;
        const auto delta_globals = run_schedule(delta, &timings);
        ASSERT_EQ(dense_globals.size(), delta_globals.size());
        for (std::size_t m = 0; m < dense_globals.size(); ++m) {
          ASSERT_EQ(delta_globals[m], dense_globals[m])
              << "merge " << m << " momentum=" << momentum
              << " threaded=" << threaded << " threads=" << threads;
        }
        for (const auto& t : timings) {
          EXPECT_GT(t.touched_rows, 0u);
          EXPECT_LT(t.touched_rows, delta.model_info().num_features);
        }
      }
    }
  }
}

// Nothing reads a replica between merges, so a row stays stale across as
// many epochs as its replica leaves it untouched; every merge must still
// equal the dense oracle, and a replica read afterwards must hold global.
TEST_F(DeltaMergeRuntimeTest, StaleRowsAcrossEpochsMatchDenseOracle) {
  for (const bool momentum : {true, false}) {
    for (const bool threaded : {false, true}) {
      for (const std::size_t threads : {1u, 4u}) {
        core::MultiGpuRuntime dense(
            dataset_, config(false, momentum, threads, threaded),
            sim::v100_heterogeneous(4));
        core::MultiGpuRuntime delta(
            dataset_, config(true, momentum, threads, threaded),
            sim::v100_heterogeneous(4));
        const auto dense_globals = run_stale_schedule(dense, false);
        const auto delta_globals = run_stale_schedule(delta, false);
        ASSERT_EQ(dense_globals.size(), delta_globals.size());
        for (std::size_t m = 0; m < dense_globals.size(); ++m) {
          ASSERT_EQ(delta_globals[m], dense_globals[m])
              << "merge " << m << " momentum=" << momentum
              << " threaded=" << threaded << " threads=" << threads;
        }
        for (std::size_t g = 0; g < delta.num_gpus(); ++g) {
          EXPECT_EQ(delta.replica(g).to_flat(), delta_globals.back())
              << "replica " << g;
        }
      }
    }
  }
}

TEST_F(DeltaMergeRuntimeTest, DeltaMergeChargesDeltaBytes) {
  core::MultiGpuRuntime dense(dataset_, config(false, true, 1, false),
                              sim::v100_heterogeneous(4));
  core::MultiGpuRuntime delta(dataset_, config(true, true, 1, false),
                              sim::v100_heterogeneous(4));
  std::vector<core::MultiGpuRuntime::MergeTiming> dense_t, delta_t;
  run_schedule(dense, &dense_t);
  run_schedule(delta, &delta_t);
  for (std::size_t m = 0; m < delta_t.size(); ++m) {
    // tiny_profile batches touch a small fraction of features, so the delta
    // payload — and with it the virtual comm charge — must shrink.
    EXPECT_LT(delta_t[m].payload_bytes, dense_t[m].payload_bytes);
    EXPECT_LT(delta_t[m].allreduce_seconds, dense_t[m].allreduce_seconds);
    EXPECT_LT(delta_t[m].host_roundtrip_seconds,
              dense_t[m].host_roundtrip_seconds);
    EXPECT_DOUBLE_EQ(
        delta_t[m].payload_bytes,
        static_cast<double>(delta.virtual_payload_bytes(
            delta_t[m].touched_rows * delta.model_info().input_cols() +
            delta.model_info().input_cols() +
            delta.model_info().input_cols() * delta.model_info().num_classes +
            delta.model_info().num_classes)));
  }
}

TEST_F(DeltaMergeRuntimeTest, RepeatedDeltaRunsAreDeterministic) {
  const auto run_once = [&] {
    core::MultiGpuRuntime rt(dataset_, config(true, true, 4, true),
                             sim::v100_heterogeneous(4));
    return run_schedule(rt);
  };
  EXPECT_EQ(run_once(), run_once());
}

// ---- Compressed merge payloads (DESIGN.md §10) ---------------------------

class QuantizedMergeRuntimeTest : public DeltaMergeRuntimeTest {
 protected:
  core::TrainerConfig qconfig(comm::MergePrecision precision,
                              bool sparse_merge, std::size_t kernel_threads,
                              bool threaded) const {
    auto cfg = config(sparse_merge, true, kernel_threads, threaded);
    cfg.merge_precision = precision;
    return cfg;
  }
};

TEST_F(QuantizedMergeRuntimeTest, DeterministicAcrossThreadCounts) {
  for (const auto precision :
       {comm::MergePrecision::kFp16, comm::MergePrecision::kInt8}) {
    for (const bool sparse : {true, false}) {
      core::MultiGpuRuntime ref_rt(
          dataset_, qconfig(precision, sparse, 1, false),
          sim::v100_heterogeneous(4));
      const auto ref = run_schedule(ref_rt);
      for (const std::size_t threads : {1u, 4u}) {
        for (const bool threaded : {false, true}) {
          core::MultiGpuRuntime rt(
              dataset_, qconfig(precision, sparse, threads, threaded),
              sim::v100_heterogeneous(4));
          const auto got = run_schedule(rt);
          ASSERT_EQ(got, ref)
              << "precision=" << comm::precision_name(precision)
              << " sparse=" << sparse << " threads=" << threads
              << " threaded=" << threaded;
        }
      }
    }
  }
}

TEST_F(QuantizedMergeRuntimeTest, PayloadBytesShrinkExactly) {
  std::vector<core::MultiGpuRuntime::MergeTiming> fp32_t, fp16_t, int8_t_;
  {
    core::MultiGpuRuntime rt(
        dataset_, qconfig(comm::MergePrecision::kFp32, true, 1, false),
        sim::v100_heterogeneous(4));
    run_schedule(rt, &fp32_t);
  }
  {
    core::MultiGpuRuntime rt(
        dataset_, qconfig(comm::MergePrecision::kFp16, true, 1, false),
        sim::v100_heterogeneous(4));
    run_schedule(rt, &fp16_t);
  }
  {
    core::MultiGpuRuntime rt(
        dataset_, qconfig(comm::MergePrecision::kInt8, true, 1, false),
        sim::v100_heterogeneous(4));
    run_schedule(rt, &int8_t_);
  }
  ASSERT_EQ(fp32_t.size(), fp16_t.size());
  ASSERT_EQ(fp32_t.size(), int8_t_.size());
  for (std::size_t m = 0; m < fp32_t.size(); ++m) {
    // The schedule (and thus the touched-row union) is identical across
    // precisions, so element payloads are exactly 2x / 4x smaller.
    EXPECT_DOUBLE_EQ(fp16_t[m].payload_bytes * 2.0, fp32_t[m].payload_bytes)
        << "merge " << m;
    EXPECT_DOUBLE_EQ(int8_t_[m].payload_bytes * 4.0, fp32_t[m].payload_bytes)
        << "merge " << m;
    // Wire bytes bill the header/scale metadata on top of the elements —
    // strictly more than the payload, still well under the fp32 wire.
    EXPECT_GT(fp16_t[m].wire_bytes, fp16_t[m].payload_bytes);
    EXPECT_GT(int8_t_[m].wire_bytes, int8_t_[m].payload_bytes);
    EXPECT_LT(fp16_t[m].wire_bytes, fp32_t[m].wire_bytes);
    EXPECT_LT(int8_t_[m].wire_bytes, fp16_t[m].wire_bytes);
    EXPECT_DOUBLE_EQ(fp32_t[m].wire_bytes, fp32_t[m].payload_bytes);
    // Cheaper wire = cheaper simulated clock.
    EXPECT_LT(fp16_t[m].allreduce_seconds, fp32_t[m].allreduce_seconds);
    EXPECT_LT(int8_t_[m].allreduce_seconds, fp16_t[m].allreduce_seconds);
  }
}

TEST_F(QuantizedMergeRuntimeTest, ErrorFeedbackTracksFp32Oracle) {
  // Error feedback keeps the quantized global model close to the fp32
  // oracle — the residual carries each merge's rounding error into the
  // next one instead of dropping it. Loose tolerance: this is a sanity
  // bound, the real time-to-accuracy comparison lives in merge_bench.
  core::MultiGpuRuntime fp32_rt(
      dataset_, qconfig(comm::MergePrecision::kFp32, true, 1, false),
      sim::v100_heterogeneous(4));
  const auto fp32_globals = run_schedule(fp32_rt);
  for (const auto precision :
       {comm::MergePrecision::kFp16, comm::MergePrecision::kInt8}) {
    core::MultiGpuRuntime rt(dataset_, qconfig(precision, true, 1, false),
                             sim::v100_heterogeneous(4));
    const auto globals = run_schedule(rt);
    const auto& a = fp32_globals.back();
    const auto& b = globals.back();
    ASSERT_EQ(a.size(), b.size());
    float max_diff = 0.0f;
    for (std::size_t j = 0; j < a.size(); ++j) {
      max_diff = std::max(max_diff, std::fabs(a[j] - b[j]));
    }
    EXPECT_LT(max_diff, 0.05f)
        << comm::precision_name(precision) << " drifted from fp32";
    EXPECT_GT(max_diff, 0.0f);  // quantization is genuinely lossy per merge
  }
}

TEST_F(QuantizedMergeRuntimeTest, RepeatedQuantizedRunsAreDeterministic) {
  for (const auto precision :
       {comm::MergePrecision::kFp16, comm::MergePrecision::kInt8}) {
    const auto run_once = [&] {
      core::MultiGpuRuntime rt(dataset_, qconfig(precision, true, 4, true),
                               sim::v100_heterogeneous(4));
      return run_schedule(rt);
    };
    EXPECT_EQ(run_once(), run_once())
        << comm::precision_name(precision);
  }
}

TEST_F(QuantizedMergeRuntimeTest, LossScaleGrowthOnlyAffectsNextMerge) {
  // Prime the guard so the very first clean merge doubles the scale. The
  // codes for that merge were quantized with the pre-growth scale, so its
  // merged global must be bit-identical to an unprimed run — growth may
  // only change quantization from the *next* merge on.
  const auto cfg = qconfig(comm::MergePrecision::kFp16, true, 1, false);
  core::MultiGpuRuntime primed(dataset_, cfg, sim::v100_heterogeneous(4));
  core::MultiGpuRuntime plain(dataset_, cfg, sim::v100_heterogeneous(4));
  const float scale0 = plain.loss_scale_guard().scale;
  primed.loss_scale_guard().good_streak =
      comm::LossScaleGuard::kGrowEvery - 1;
  const auto primed_globals = run_schedule(primed);
  const auto plain_globals = run_schedule(plain);
  EXPECT_EQ(primed_globals[0], plain_globals[0]);
  // The growth path genuinely fired on merge 0 (all three merges in this
  // schedule are clean, so the unprimed guard never moves).
  EXPECT_EQ(plain.loss_scale_guard().scale, scale0);
  EXPECT_EQ(primed.loss_scale_guard().scale, 2.0f * scale0);
}

// Error feedback has no dense oracle, so the stale-row schedule's merged
// globals are pinned (FNV-1a of each flat); reading every replica after each
// merge must not change them.
TEST_F(QuantizedMergeRuntimeTest, StaleRowsPinnedAtParent) {
  struct Case {
    comm::MergePrecision precision;
    std::uint64_t fnv[8];
  };
  const Case cases[] = {
      {comm::MergePrecision::kFp16,
       {0x401d74cf981bfd7eull, 0x5f67d3e85c1d778cull, 0xb561cc1db5b89061ull,
        0xc85e901035184acaull, 0xc0d2d6dddc773b12ull, 0xca05a15caaf9515full,
        0xa51993350fc7f6ccull, 0xa17d1f0efa324636ull}},
      {comm::MergePrecision::kInt8,
       {0xdd5b40be658303a3ull, 0x1ef09be16b081996ull, 0x25d9a68248abb57bull,
        0x71187b7d9cc2db54ull, 0x26cc5da699efc2feull, 0x3d156cb847f1fd1cull,
        0x8ac308eaf820493eull, 0x2c8c623e90dd1e7eull}},
  };
  for (const auto& c : cases) {
    for (const bool threaded : {false, true}) {
      const std::size_t threads = threaded ? 4 : 1;
      core::MultiGpuRuntime rt(
          dataset_, qconfig(c.precision, true, threads, threaded),
          sim::v100_heterogeneous(4));
      const auto globals = run_stale_schedule(rt, false);
      ASSERT_EQ(globals.size(), std::size(c.fnv));
      for (std::size_t m = 0; m < globals.size(); ++m) {
        EXPECT_EQ(core::fnv1a(globals[m]), c.fnv[m])
            << comm::precision_name(c.precision) << " threaded=" << threaded
            << " merge " << m << std::hex << " got 0x"
            << core::fnv1a(globals[m]);
      }
      core::MultiGpuRuntime read(
          dataset_, qconfig(c.precision, true, threads, threaded),
          sim::v100_heterogeneous(4));
      EXPECT_EQ(run_stale_schedule(read, true), globals)
          << comm::precision_name(c.precision) << " threaded=" << threaded;
    }
  }
}

TEST_F(QuantizedMergeRuntimeTest, ResidualStateResetOnCrashAndJoin) {
  auto cfg = qconfig(comm::MergePrecision::kInt8, true, 1, false);
  core::MultiGpuRuntime rt(dataset_, cfg, sim::v100_heterogeneous(4));
  ASSERT_TRUE(rt.compressed_merge());
  run_schedule(rt);
  // After a few int8 merges every replica has accumulated some residual.
  for (std::size_t g = 0; g < rt.num_gpus(); ++g) {
    const auto res = rt.residual_state(g);
    ASSERT_FALSE(res.empty());
    bool any = false;
    for (const float v : res) any |= (v != 0.0f);
    EXPECT_TRUE(any) << "replica " << g << " residual never charged";
  }
}

}  // namespace
}  // namespace hetero
