// google-benchmark sweep of the mega-batch merge path (Section IV
// "All-reduce Model Merging"): model size x replicas x threads x touched-row
// fraction, measuring real wall-clock of merge_and_update's numeric work.
//
// Three implementations are compared:
//   BM_MergePr1Path    — faithful re-creation of the PR-1 merge: per-merge
//                        to_flat() staging copies into freshly allocated
//                        flats, a model-sized double accumulator
//                        (zero-filled then accumulated), write-back into
//                        every flat, a separate momentum pass, from_flat(),
//                        and the dense broadcast.
//   BM_MergeFusedDense — the sharded zero-copy path: fused reduce+momentum
//                        over the in-place model segments, then broadcast.
//   BM_MergeFusedDelta — the sparse_merge path: only the cross-replica
//                        union of touched W1 rows is reduced (a replica's
//                        untouched union row reads as global); untouched
//                        rows get the closed-form scaling. Includes the
//                        per-merge union + sort and the dense-tail
//                        hand-back, as the runtime pays them.
//
// BM_ReplicaRefresh compares the two hand-backs at train-wide-delta's
// shape: the eager broadcast against the tail copy plus first-touch pulls,
// and BM_PerturbationGate times Algorithm 2's L2 gate. BM_CheckpointSave
// and BM_CheckpointRestore time the checkpoint taken at that boundary.
//
// The headline shape is the ISSUE acceptance point: 2M features (0.005%
// density => ~100 nnz/sample => ~23% of rows touched per replica per
// mega-batch), hidden 64, 4 replicas, 8 threads. Unless the caller passes
// --benchmark_out, results are written to BENCH_merge.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <istream>
#include <memory>
#include <numeric>
#include <ostream>
#include <span>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "comm/allreduce.h"
#include "comm/quant.h"
#include "core/adaptive_sgd.h"
#include "core/merging.h"
#include "data/synthetic.h"
#include "fault/checkpoint.h"
#include "nn/model.h"
#include "sim/profiles.h"
#include "sparse/sparse_gradient.h"
#include "tensor/vec/vec.h"
#include "util/kernel_context.h"
#include "util/rng.h"
#include "util/thread_pool.h"

using namespace hetero;

namespace {

constexpr std::size_t kHidden = 64;
constexpr std::size_t kClasses = 512;
constexpr double kGamma = 0.9;
constexpr std::size_t kStreams = 4;  // paper optimum: one per GPU

// Cheap deterministic fill (init_gaussian over 2^21 x 64 would dominate
// setup); values are ordinary normalized floats so the kernels run at
// real-data speed.
void fill_pattern(std::span<float> v, std::uint32_t seed) {
  for (std::size_t i = 0; i < v.size(); ++i) {
    const std::uint32_t h = (static_cast<std::uint32_t>(i) + seed) *
                            2654435761u;
    v[i] = 0.001f * static_cast<float>(h & 1023u) - 0.5f;
  }
}

// Global, momentum and replica models over one hidden list; {kHidden} is
// the paper's 3-layer model.
struct MergeSetup {
  nn::Model global;
  nn::Model prev;
  std::vector<nn::Model> replicas;
  std::vector<double> weights;
  // Per-replica touched W1 rows (delta paths only).
  std::vector<sparse::RowSet> touched;

  MergeSetup(std::size_t features, std::vector<std::size_t> hidden,
             std::size_t classes, std::size_t num_replicas,
             std::size_t touched_permille)
      : global(features, std::move(hidden), classes), prev(global) {
    for (auto seg : global.segment_views()) fill_pattern(seg, 1);
    prev.copy_from(global);
    for (std::size_t i = 0; i < num_replicas; ++i) {
      replicas.push_back(global);
      // Perturb a slice so the first merge does real mixing work.
      auto w1 = replicas.back().segment_views()[0];
      fill_pattern(w1.subspan(0, std::min<std::size_t>(w1.size(), 4096)),
                   static_cast<std::uint32_t>(17 * (i + 1)));
    }
    const double base = 1.0 / static_cast<double>(num_replicas);
    for (std::size_t i = 0; i < num_replicas; ++i) {
      weights.push_back(base * (i % 2 == 0 ? 1.1 : 0.9));
    }
    if (touched_permille > 0) {
      util::Rng rng(99);
      const std::size_t target = features * touched_permille / 1000;
      touched.resize(num_replicas);
      for (auto& set : touched) {
        set.reset(features);
        std::uint32_t row[1];
        while (set.size() < target) {
          row[0] = static_cast<std::uint32_t>(rng.next_below(features));
          set.add(row);
        }
      }
    }
  }

  std::size_t features() const { return global.info().input_rows(); }
  std::size_t hidden() const { return global.info().input_cols(); }
  std::int64_t num_parameters() const {
    return static_cast<std::int64_t>(global.num_parameters());
  }

  void broadcast() {
    for (auto& r : replicas) r.copy_from(global);
  }

  // The sparse-merge hand-back: every segment after W1. Replica W1 rows are
  // pulled from global on first touch (BM_ReplicaRefresh times the pulls).
  void refresh_tail() {
    const auto global_segs = std::as_const(global).segment_views();
    for (auto& r : replicas) {
      const auto segs = r.segment_views();
      for (std::size_t seg = 1; seg < segs.size(); ++seg) {
        std::copy(global_segs[seg].begin(), global_segs[seg].end(),
                  segs[seg].begin());
      }
    }
  }

  // Replica i's valid W1 rows after a sparse hand-back: its touched set.
  std::vector<const sparse::RowSet*> valid() const {
    std::vector<const sparse::RowSet*> sets;
    for (const auto& t : touched) sets.push_back(&t);
    return sets;
  }
};

// The PR-1 serial reduction: zero-filled double accumulator + write-back
// into every staged flat (kept verbatim so the bench tracks the true
// before/after of this PR, independent of the current AllReducer).
void pr1_weighted_average(std::vector<std::span<float>>& views,
                          std::span<const double> weights,
                          std::vector<double>& acc) {
  const std::size_t len = views[0].size();
  acc.assign(len, 0.0);
  for (std::size_t i = 0; i < views.size(); ++i) {
    const double w = weights[i];
    const float* x = views[i].data();
    for (std::size_t j = 0; j < len; ++j) acc[j] += w * x[j];
  }
  for (auto& r : views) {
    for (std::size_t j = 0; j < len; ++j) {
      r[j] = static_cast<float>(acc[j]);
    }
  }
}

void run_pr1_merge(MergeSetup& s, std::vector<float>& global_flat,
                   std::vector<float>& prev_flat, std::vector<double>& acc) {
  std::vector<std::vector<float>> flats;
  flats.reserve(s.replicas.size());
  for (auto& r : s.replicas) flats.push_back(r.to_flat());
  std::vector<std::span<float>> views;
  views.reserve(flats.size());
  for (auto& f : flats) views.emplace_back(f.data(), f.size());
  pr1_weighted_average(views, s.weights, acc);
  core::momentum_global_update(views[0], global_flat, prev_flat, kGamma);
  s.global.from_flat(global_flat);
  s.broadcast();
}

void run_fused_dense_merge(MergeSetup& s, const kernels::Context& ctx) {
  const core::MergeUpdate u{s.weights, kGamma, true};
  auto global_segs = s.global.segment_views();
  auto prev_segs = s.prev.segment_views();
  std::vector<const float*> bases(s.replicas.size());
  for (std::size_t seg = 0; seg < global_segs.size(); ++seg) {
    for (std::size_t i = 0; i < s.replicas.size(); ++i) {
      bases[i] = s.replicas[i].segment_views()[seg].data();
    }
    core::merge_segment(bases, global_segs[seg].size(), u, global_segs[seg],
                        prev_segs[seg], kStreams, ctx);
  }
  s.broadcast();
}

// The sparse_merge path as the runtime runs it for any depth: delta-merge
// segment 0 (the sparse input layer) over the touched-row union, fused
// dense merge for every remaining [W,b] segment.
void run_fused_delta_merge(MergeSetup& s, sparse::RowSet& merge_union,
                           std::vector<std::uint32_t>& sorted,
                           const kernels::Context& ctx) {
  const core::MergeUpdate u{s.weights, kGamma, true};
  merge_union.clear();
  for (const auto& t : s.touched) merge_union.add(t);
  merge_union.sorted_rows(sorted);
  auto global_segs = s.global.segment_views();
  auto prev_segs = s.prev.segment_views();
  std::vector<const float*> bases(s.replicas.size());
  for (std::size_t i = 0; i < s.replicas.size(); ++i) {
    bases[i] = s.replicas[i].weights(0).data();
  }
  core::merge_touched_rows(bases, sorted, s.hidden(), u,
                           global_segs[0].data(), prev_segs[0].data(), ctx,
                           s.valid());
  core::merge_untouched_rows(merge_union, s.features(), s.hidden(), u,
                             global_segs[0], prev_segs[0], ctx);
  for (std::size_t seg = 1; seg < global_segs.size(); ++seg) {
    for (std::size_t i = 0; i < s.replicas.size(); ++i) {
      bases[i] = s.replicas[i].segment_views()[seg].data();
    }
    core::merge_segment(bases, global_segs[seg].size(), u, global_segs[seg],
                        prev_segs[seg], kStreams, ctx);
  }
  s.refresh_tail();
}

// Quantized delta merge (DESIGN.md §10): the same work merge_and_update
// does under --merge-precision fp16/int8 — error-feedback delta pass,
// per-group quantization, fused dequant-reduce, residual update — over the
// union-row + dense-tail payload layout the runtime ships.
struct QuantDeltaScratch {
  // One scale group per union W1 row, then 512-blocks of the dense tail.
  struct Group {
    std::size_t seg, off, dst, len;
  };
  sparse::RowSet merge_union;
  std::vector<std::uint32_t> sorted;
  std::vector<Group> groups;
  std::size_t elems = 0;
  std::vector<std::vector<float>> residual;          // packed payload layout
  std::vector<std::vector<std::uint16_t>> q16;
  std::vector<std::vector<std::int8_t>> q8;
  std::vector<std::vector<float>> scales;
  comm::LossScaleGuard guard;

  void build(MergeSetup& s) {
    merge_union.reset(s.features());
    for (const auto& t : s.touched) merge_union.add(t);
    merge_union.sorted_rows(sorted);
    const auto segs = s.global.segment_views();
    const std::size_t hidden = s.hidden();
    std::size_t dst = 0;
    for (const auto row : sorted) {
      groups.push_back({0, row * hidden, dst, hidden});
      dst += hidden;
    }
    for (std::size_t seg = 1; seg < segs.size(); ++seg) {
      for (std::size_t off = 0; off < segs[seg].size();
           off += core::kQuantGroupCols) {
        const std::size_t len =
            std::min(core::kQuantGroupCols, segs[seg].size() - off);
        groups.push_back({seg, off, dst, len});
        dst += len;
      }
    }
    elems = dst;
    const std::size_t n = s.replicas.size();
    residual.assign(n, std::vector<float>(elems, 0.0f));
    q16.assign(n, std::vector<std::uint16_t>(elems));
    q8.assign(n, std::vector<std::int8_t>(elems));
    scales.assign(n, std::vector<float>(groups.size(), 0.0f));
  }
};

void run_quantized_delta_merge(MergeSetup& s, comm::MergePrecision prec,
                               QuantDeltaScratch& qs,
                               const kernels::Context& ctx) {
  const auto& vk = *vec::kernels_for(vec::active_isa());
  const core::MergeUpdate u{s.weights, kGamma, true};
  double wsum = 0.0;
  for (const double w : s.weights) wsum += w;

  // Pass A: fold this merge's delta into each replica's residual; a union
  // row the replica did not touch reads as global.
  for (std::size_t i = 0; i < s.replicas.size(); ++i) {
    const auto rsegs = s.replicas[i].segment_views();
    const auto gsegs = s.global.segment_views();
    const auto& valid = s.touched[i];
    float* res = qs.residual[i].data();
    kernels::parallel_for_ranges(
        ctx, qs.groups.size(), qs.elems,
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t k = begin; k < end; ++k) {
            const auto& q = qs.groups[k];
            const float* src = rsegs[q.seg].data() + q.off;
            if (q.seg == 0 && !valid.contains(static_cast<std::uint32_t>(
                                  q.off / s.hidden()))) {
              src = gsegs[0].data() + q.off;
            }
            vk.ef_delta(src, gsegs[q.seg].data() + q.off, res + q.dst, q.len);
          }
        });
  }

  // Pass B: quantize the residuals into the wire codes.
  float inv_scale = 1.0f;
  if (prec == comm::MergePrecision::kInt8) {
    for (std::size_t i = 0; i < s.replicas.size(); ++i) {
      const float* res = qs.residual[i].data();
      std::int8_t* codes = qs.q8[i].data();
      float* scales = qs.scales[i].data();
      kernels::parallel_for_ranges(
          ctx, qs.groups.size(), qs.elems,
          [&](std::size_t begin, std::size_t end) {
            for (std::size_t k = begin; k < end; ++k) {
              const auto& q = qs.groups[k];
              const float amax = vk.absmax(res + q.dst, q.len);
              const bool ok = amax > 0.0f && std::isfinite(amax);
              scales[k] = ok ? amax / 127.0f : 0.0f;
              vk.quant_i8(res + q.dst, codes + q.dst,
                          ok ? 127.0f / amax : 0.0f, q.len);
            }
          });
    }
  } else {
    for (std::size_t i = 0; i < s.replicas.size(); ++i) {
      if (vk.quant_fp16(qs.residual[i].data(), qs.q16[i].data(),
                        qs.guard.scale, qs.elems) > 0) {
        qs.guard.on_overflow();
        vk.quant_fp16(qs.residual[i].data(), qs.q16[i].data(),
                      qs.guard.scale, qs.elems);
      }
    }
    inv_scale = 1.0f / qs.guard.scale;
  }

  // Pass C: fused dequant-reduce into the global/momentum models.
  std::vector<const std::uint16_t*> r16(s.replicas.size());
  std::vector<const std::int8_t*> r8(s.replicas.size());
  std::vector<const float*> rsc(s.replicas.size());
  const auto region = [&](std::size_t code_off, std::size_t scale_off) {
    core::QuantizedSources src;
    src.precision = prec;
    src.dequant_scale = inv_scale;
    for (std::size_t i = 0; i < s.replicas.size(); ++i) {
      r16[i] = qs.q16[i].data() + code_off;
      r8[i] = qs.q8[i].data() + code_off;
      rsc[i] = qs.scales[i].data() + scale_off;
    }
    src.fp16 = {r16.data(), r16.size()};
    src.i8 = {r8.data(), r8.size()};
    src.scales = {rsc.data(), rsc.size()};
    return src;
  };
  auto global_segs = s.global.segment_views();
  auto prev_segs = s.prev.segment_views();
  core::merge_touched_rows_quantized(region(0, 0), qs.sorted, s.hidden(),
                                     wsum, u, global_segs[0].data(),
                                     prev_segs[0].data(), ctx);
  core::merge_untouched_rows(qs.merge_union, s.features(), s.hidden(), u,
                             global_segs[0], prev_segs[0], ctx);
  std::size_t code_off = qs.sorted.size() * s.hidden();
  std::size_t scale_off = qs.sorted.size();
  for (std::size_t seg = 1; seg < global_segs.size(); ++seg) {
    const std::size_t len = global_segs[seg].size();
    core::merge_segment_quantized(region(code_off, scale_off), len, wsum, u,
                                  global_segs[seg], prev_segs[seg], kStreams,
                                  ctx);
    code_off += len;
    scale_off += (len + core::kQuantGroupCols - 1) / core::kQuantGroupCols;
  }

  // Pass D: subtract what was shipped — the residual keeps the error.
  for (std::size_t i = 0; i < s.replicas.size(); ++i) {
    float* res = qs.residual[i].data();
    kernels::parallel_for_ranges(
        ctx, qs.groups.size(), qs.elems,
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t k = begin; k < end; ++k) {
            const auto& q = qs.groups[k];
            if (prec == comm::MergePrecision::kInt8) {
              vk.residual_i8(qs.q8[i].data() + q.dst, qs.scales[i][k],
                             res + q.dst, q.len);
            } else {
              vk.residual_fp16(qs.q16[i].data() + q.dst, inv_scale,
                               res + q.dst, q.len);
            }
          }
        });
  }
  s.refresh_tail();
}

// Hands the merged model back to the replicas. Eager: a full copy into
// every replica. Pull: the dense tail, then each replica's rows as its
// steps first touch them, copied from global in address order with both
// ends of the next rows prefetched — the pulls of one mega-batch (the
// runtime keys each step's rows through a bitmap; that per-step scan is not
// included).
void run_replica_refresh(MergeSetup& s, bool pull,
                         const std::vector<std::vector<std::uint32_t>>& rows) {
  if (!pull) {
    s.broadcast();
    return;
  }
  s.refresh_tail();
  constexpr std::size_t kAhead = 8;
  constexpr std::size_t kLine = 64 / sizeof(float);
  const std::size_t cols = s.hidden();
  const float* src = s.global.weights(0).data();
  for (std::size_t i = 0; i < s.replicas.size(); ++i) {
    float* dst = s.replicas[i].weights(0).data();
    const auto& mine = rows[i];
    for (std::size_t k = 0; k < mine.size(); ++k) {
      if (k + kAhead < mine.size()) {
        const std::size_t next = std::size_t{mine[k + kAhead]} * cols;
        for (std::size_t c = 0; c < cols; c += kLine) {
          __builtin_prefetch(src + next + c);
          __builtin_prefetch(dst + next + c, 1);
        }
      }
      const std::size_t off = std::size_t{mine[k]} * cols;
      std::copy_n(src + off, cols, dst + off);
    }
  }
}

// args: {log2(features), replicas}
void BM_MergePr1Path(benchmark::State& state) {
  MergeSetup s(std::size_t{1} << state.range(0), {kHidden}, kClasses,
               static_cast<std::size_t>(state.range(1)), 0);
  std::vector<float> global_flat = s.global.to_flat();
  std::vector<float> prev_flat = global_flat;
  std::vector<double> acc;
  for (auto _ : state) {
    run_pr1_merge(s, global_flat, prev_flat, acc);
    benchmark::DoNotOptimize(s.global.weights(0).data());
  }
  state.SetItemsProcessed(state.iterations() * s.num_parameters());
}

// args: {log2(features), replicas, threads}
void BM_MergeFusedDense(benchmark::State& state) {
  MergeSetup s(std::size_t{1} << state.range(0), {kHidden}, kClasses,
               static_cast<std::size_t>(state.range(1)), 0);
  const auto threads = static_cast<std::size_t>(state.range(2));
  util::ThreadPool pool(threads);
  const kernels::Context ctx{threads > 1 ? &pool : nullptr, threads};
  for (auto _ : state) {
    run_fused_dense_merge(s, ctx);
    benchmark::DoNotOptimize(s.global.weights(0).data());
  }
  state.SetItemsProcessed(state.iterations() * s.num_parameters());
}

// args: {log2(features), replicas, threads, per-replica touched permille}
void BM_MergeFusedDelta(benchmark::State& state) {
  MergeSetup s(std::size_t{1} << state.range(0), {kHidden}, kClasses,
               static_cast<std::size_t>(state.range(1)),
               static_cast<std::size_t>(state.range(3)));
  const auto threads = static_cast<std::size_t>(state.range(2));
  util::ThreadPool pool(threads);
  const kernels::Context ctx{threads > 1 ? &pool : nullptr, threads};
  sparse::RowSet merge_union;
  merge_union.reset(s.features());
  std::vector<std::uint32_t> sorted;
  for (auto _ : state) {
    run_fused_delta_merge(s, merge_union, sorted, ctx);
    benchmark::DoNotOptimize(s.global.weights(0).data());
  }
  state.counters["union_rows"] =
      static_cast<double>(merge_union.size());
  state.SetItemsProcessed(state.iterations() * s.num_parameters());
}

// Headline acceptance shape: 2M features, 0.005% density => ~23% of W1 rows
// touched per replica per mega-batch (1 - exp(-40 batches * 128 rows * 100
// nnz / 2M)), 4 replicas, 8 threads — vs the PR-1 path at the same shape.
BENCHMARK(BM_MergePr1Path)->Args({21, 4})->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MergeFusedDense)
    ->Args({21, 4, 8})
    ->Args({21, 4, 1})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MergeFusedDelta)
    ->Args({21, 4, 8, 226})
    ->Args({21, 4, 1, 226})
    ->Args({21, 4, 8, 50})
    ->Args({21, 4, 8, 500})
    ->Unit(benchmark::kMillisecond);

// Smaller sweep: model size x replicas x threads x touched fraction.
BENCHMARK(BM_MergePr1Path)
    ->Args({17, 4})
    ->Args({17, 2})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MergeFusedDense)
    ->Args({17, 4, 1})
    ->Args({17, 4, 2})
    ->Args({17, 4, 4})
    ->Args({17, 4, 8})
    ->Args({17, 2, 8})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MergeFusedDelta)
    ->Args({17, 4, 8, 50})
    ->Args({17, 4, 8, 226})
    ->Args({17, 4, 8, 500})
    ->Args({17, 4, 2, 226})
    ->Args({17, 2, 8, 226})
    ->Unit(benchmark::kMillisecond);

// args: {log2(features), replicas, threads, touched permille, precision}
// The quantized delta merge at the same shapes as BM_MergeFusedDelta:
// precision 1 = fp16, 2 = int8. payload_bytes / wire_bytes counters record
// the simulated transfer size next to the fp32 delta payload, so one JSON
// row carries precision x payload x merge-time.
void BM_MergeQuantizedDelta(benchmark::State& state) {
  MergeSetup s(std::size_t{1} << state.range(0), {kHidden}, kClasses,
               static_cast<std::size_t>(state.range(1)),
               static_cast<std::size_t>(state.range(3)));
  const auto prec = static_cast<comm::MergePrecision>(state.range(4));
  const auto threads = static_cast<std::size_t>(state.range(2));
  util::ThreadPool pool(threads);
  const kernels::Context ctx{threads > 1 ? &pool : nullptr, threads};
  QuantDeltaScratch qs;
  qs.build(s);
  for (auto _ : state) {
    run_quantized_delta_merge(s, prec, qs, ctx);
    benchmark::DoNotOptimize(s.global.weights(0).data());
  }
  const auto wire = comm::wire_payload(
      prec, qs.groups.size(), qs.elems);
  state.counters["union_rows"] = static_cast<double>(qs.merge_union.size());
  state.counters["payload_bytes"] = static_cast<double>(wire.payload_bytes);
  state.counters["wire_bytes"] = static_cast<double>(wire.total());
  state.counters["fp32_payload_bytes"] =
      static_cast<double>(qs.elems * sizeof(float));
  state.SetItemsProcessed(state.iterations() * s.num_parameters());
}
BENCHMARK(BM_MergeQuantizedDelta)
    ->Args({21, 4, 8, 226, 1})
    ->Args({21, 4, 8, 226, 2})
    ->Args({21, 4, 1, 226, 2})
    ->Args({17, 4, 8, 226, 1})
    ->Args({17, 4, 8, 226, 2})
    ->Args({17, 4, 8, 50, 2})
    ->Unit(benchmark::kMillisecond);

// args: {precision} — end-to-end time-to-accuracy parity on the tiny
// synthetic dataset: same adaptive trainer, merges at fp32 / fp16 / int8.
// Counters record final top-1 and the simulated clock; the acceptance bar
// is quantized top1 within 1% of the fp32 row at a smaller vtime.
void BM_TrainTimeToAccuracy(benchmark::State& state) {
  static const data::XmlDataset dataset =
      data::generate_xml_dataset(data::tiny_profile());
  core::TrainerConfig cfg;
  cfg.hidden = 16;
  cfg.batch_max = 32;
  cfg.batches_per_megabatch = 8;
  cfg.eval_samples = 200;
  cfg.compute_scale = 100.0;
  cfg.num_megabatches = 8;
  cfg.sparse_merge = true;
  cfg.merge_precision = static_cast<comm::MergePrecision>(state.range(0));
  for (auto _ : state) {
    core::AdaptiveSgdTrainer trainer(dataset, cfg,
                                     sim::v100_heterogeneous(4));
    const auto result = trainer.train();
    state.counters["top1"] = result.curve.back().top1;
    state.counters["vtime"] = result.total_vtime;
    state.counters["comm_seconds"] = result.comm_seconds;
  }
}
BENCHMARK(BM_TrainTimeToAccuracy)
    ->Args({0})
    ->Args({1})
    ->Args({2})
    ->Iterations(2)
    ->Unit(benchmark::kMillisecond);

// args: {log2(bytes), nodes, cpu replicas} — virtual-time cost of one merge
// of a fixed 4-GPU budget spread across the hierarchy (two-level merge:
// intra-node multi-stream ring, chunked inter-node ring over one leader per
// node, intra-node broadcast). The measured wall-clock is the cost-model
// evaluation itself (cheap by construction); the row's payload is the
// virtual_merge_ms counter — the simulated milliseconds that topology bills
// one merge, the number Figure 5's node sweep is built on.
void BM_HierarchicalMergeCost(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(1));
  const auto cpus = static_cast<std::size_t>(state.range(2));
  const auto topo = sim::Topology::partitioned(nodes, 4, cpus);
  const comm::AllReducer reducer(comm::AllReduceAlgo::kRingMultiStream,
                                 sim::cluster_links(topo), kStreams);
  const comm::WirePayload wire{
      static_cast<double>(std::size_t{1} << state.range(0)), 0.0};
  std::vector<std::size_t> ranks(topo.num_replicas());
  std::iota(ranks.begin(), ranks.end(), std::size_t{0});
  const std::span<const std::size_t> rspan(ranks);
  const double vseconds = reducer.cost(rspan, wire).seconds;
  for (auto _ : state) {
    auto cost = reducer.cost(rspan, wire);
    benchmark::DoNotOptimize(cost);
  }
  state.counters["virtual_merge_ms"] = 1e3 * vseconds;
}
BENCHMARK(BM_HierarchicalMergeCost)
    ->Args({24, 1, 0})
    ->Args({24, 2, 0})
    ->Args({24, 4, 0})
    ->Args({24, 2, 1})
    ->Unit(benchmark::kMicrosecond);

// args: {log2(features), replicas, threads, per-replica touched permille}
// Deep model (hidden 64,32): one extra dense [W,b] segment pair vs the
// two-layer MLP, merged through the same generic segment path the runtime
// uses for any nn::Model.
void BM_MergeFusedDeltaDeep(benchmark::State& state) {
  MergeSetup s(std::size_t{1} << state.range(0), {kHidden, kHidden / 2},
               kClasses, static_cast<std::size_t>(state.range(1)),
               static_cast<std::size_t>(state.range(3)));
  const auto threads = static_cast<std::size_t>(state.range(2));
  util::ThreadPool pool(threads);
  const kernels::Context ctx{threads > 1 ? &pool : nullptr, threads};
  sparse::RowSet merge_union;
  merge_union.reset(s.features());
  std::vector<std::uint32_t> sorted;
  for (auto _ : state) {
    run_fused_delta_merge(s, merge_union, sorted, ctx);
    benchmark::DoNotOptimize(s.global.weights(0).data());
  }
  state.counters["union_rows"] = static_cast<double>(merge_union.size());
  state.SetItemsProcessed(state.iterations() * s.num_parameters());
}
BENCHMARK(BM_MergeFusedDeltaDeep)
    ->Args({21, 4, 8, 226})
    ->Args({17, 4, 8, 226})
    ->Args({17, 4, 1, 226})
    ->Unit(benchmark::kMillisecond);

// args: {0 = eager broadcast / 1 = tail + first-touch pulls}
// train-wide-delta's shape: 2^18 features x 64 hidden, 2048 classes, 4
// replicas, each touching 4.0% of W1 rows per mega-batch.
void BM_ReplicaRefresh(benchmark::State& state) {
  MergeSetup s(std::size_t{1} << 18, {kHidden}, 2048, 4, 40);
  std::vector<std::vector<std::uint32_t>> rows(s.replicas.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    s.touched[i].sorted_rows(rows[i]);
  }
  const bool pull = state.range(0) != 0;
  for (auto _ : state) {
    run_replica_refresh(s, pull, rows);
    benchmark::DoNotOptimize(s.replicas.back().weights(0).data());
    benchmark::ClobberMemory();
  }
  state.counters["pulled_rows"] =
      pull ? static_cast<double>(rows[0].size() * rows.size()) : 0.0;
  state.SetItemsProcessed(state.iterations() * s.num_parameters() *
                          static_cast<std::int64_t>(s.replicas.size()));
}
BENCHMARK(BM_ReplicaRefresh)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// Algorithm 2's perturbation gate at one merge boundary (DESIGN.md §5c):
// the exact sweep computes every replica's l2_norm_per_parameter(); the
// certified bound (MultiGpuRuntime::replicas_l2_below under sparse_merge)
// reads the global model once plus each replica's touched W1 rows and the
// dense tail, both in fixed chunks on the kernel pool. Each replica equals
// global outside its touched rows, and the default pert_thr of 0.1 lies far
// above every norm, so the bound decides each replica without the exact
// fallback.
// args: {log2(features), replicas, 0 = exact sweep / 1 = certified bound,
//        per-replica touched permille, kernel threads}
void BM_PerturbationGate(benchmark::State& state) {
  MergeSetup s(std::size_t{1} << state.range(0), {kHidden}, kClasses,
               static_cast<std::size_t>(state.range(1)),
               static_cast<std::size_t>(state.range(3)));
  s.broadcast();
  for (std::size_t i = 0; i < s.replicas.size(); ++i) {
    float* w1 = s.replicas[i].weights(0).data();
    for (const std::uint32_t r : s.touched[i].rows()) {
      for (std::size_t c = 0; c < s.hidden(); ++c) {
        w1[r * s.hidden() + c] += 0.01f;
      }
    }
  }
  constexpr double kThreshold = 0.1;
  const bool bound = state.range(2) != 0;
  const auto threads = static_cast<std::size_t>(state.range(4));
  util::ThreadPool pool(threads);
  const kernels::Context ctx{threads > 1 ? &pool : nullptr, threads};
  const nn::Model& global = s.global;
  sparse::RowSet merge_union;
  merge_union.reset(s.features());
  for (const auto& t : s.touched) merge_union.add(t);
  for (auto _ : state) {
    bool below = true;
    if (bound) {
      const auto global_segs = global.segment_views();
      const double global_l2 = core::l2_per_parameter(global_segs, ctx);
      for (std::size_t i = 0; i < s.replicas.size(); ++i) {
        const nn::Model& replica = s.replicas[i];
        below = below && core::certify_l2_below(
                             replica.segment_views(), global_segs,
                             s.touched[i].rows(), s.hidden(), global_l2,
                             kThreshold, ctx) == core::L2Gate::kBelow;
      }
    } else {
      for (const auto& replica : s.replicas) {
        below = below && replica.l2_norm_per_parameter() < kThreshold;
      }
    }
    benchmark::DoNotOptimize(below);
  }
  state.counters["union_rows"] = static_cast<double>(merge_union.size());
  state.SetItemsProcessed(state.iterations() * s.num_parameters() *
                          static_cast<std::int64_t>(s.replicas.size()));
}
// About 2.6% of W1 rows per replica and 10% across 4 replicas, the shares
// train-wide-delta's mega-batches touch.
BENCHMARK(BM_PerturbationGate)
    ->Args({21, 4, 0, 26, 1})
    ->Args({21, 4, 1, 26, 1})
    ->Args({21, 4, 1, 26, 4})
    ->Args({17, 4, 0, 26, 1})
    ->Args({17, 4, 1, 26, 1})
    ->Args({17, 4, 1, 26, 4})
    ->Unit(benchmark::kMillisecond);

// --- checkpoints at a merge boundary ---------------------------------------

// Counts what is written and keeps none of it: the checkpoint sink of the
// save row (a disk would time the disk, not the serialization).
class CountingBuf : public std::streambuf {
 public:
  std::uint64_t bytes() const { return bytes_; }

 protected:
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes_ += static_cast<std::uint64_t>(n);
    return n;
  }
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof())) ++bytes_;
    return traits_type::not_eof(c);
  }

 private:
  std::uint64_t bytes_ = 0;
};

// Reads a string in place: the in-memory stream of the restore row, which
// can seek (a restore checks each length against the bytes left).
class StringReadBuf : public std::streambuf {
 public:
  explicit StringReadBuf(const std::string& s) {
    char* p = const_cast<char*>(s.data());
    setg(p, p, p + s.size());
  }

 protected:
  pos_type seekoff(off_type off, std::ios_base::seekdir dir,
                   std::ios_base::openmode) override {
    char* base = dir == std::ios_base::beg   ? eback()
                 : dir == std::ios_base::cur ? gptr()
                                             : egptr();
    if (off < eback() - base || off > egptr() - base) {
      return pos_type(off_type(-1));
    }
    setg(eback(), base + off, egptr());
    return pos_type(gptr() - eback());
  }
  pos_type seekpos(pos_type pos, std::ios_base::openmode which) override {
    return seekoff(off_type(pos), std::ios_base::beg, which);
  }
};

// train-wide-delta's shape (2^18 features x 64 hidden x 2048 classes, 4
// replicas): sgd at fp32 (args 0), whose payload is the two model records,
// or int8 merges with Adam (args 1), which adds four residuals and eight
// moment matrices. The trainer is fresh: its payload has the size of a
// trained one's.
std::unique_ptr<core::AdaptiveSgdTrainer> checkpoint_trainer(bool int8_adam) {
  static const data::XmlDataset dataset = [] {
    data::SyntheticXmlConfig c;
    c.name = "checkpoint-bench";
    c.num_features = std::size_t{1} << 18;
    c.num_classes = 2048;
    c.num_train = 256;
    c.num_test = 64;
    return data::generate_xml_dataset(c);
  }();
  core::TrainerConfig cfg;
  cfg.hidden = kHidden;
  cfg.batch_max = 64;
  cfg.eval_samples = 64;
  if (int8_adam) {
    cfg.merge_precision = comm::MergePrecision::kInt8;
    cfg.optimizer.kind = nn::OptimizerKind::kAdam;
  }
  return std::make_unique<core::AdaptiveSgdTrainer>(
      dataset, cfg, sim::v100_heterogeneous(4));
}

// Capture plus save into a byte-counting sink, as e2ebench's train-wide-delta
// writes its checkpoints. args: {0 = sgd fp32, 1 = int8 + adam}
void BM_CheckpointSave(benchmark::State& state) {
  const auto trainer = checkpoint_trainer(state.range(0) != 0);
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    CountingBuf sink;
    std::ostream out(&sink);
    fault::save_checkpoint(out, fault::capture_checkpoint(*trainer));
    bytes = sink.bytes();
    benchmark::DoNotOptimize(bytes);
  }
  state.counters["checkpoint_bytes"] = static_cast<double>(bytes);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_CheckpointSave)
    ->Arg(0)
    ->Arg(1)
    ->Iterations(4)
    ->Unit(benchmark::kMillisecond);

// Restore from an in-memory stream into a freshly built trainer (built
// outside the timed region). args: {0 = sgd fp32, 1 = int8 + adam}
void BM_CheckpointRestore(benchmark::State& state) {
  const bool int8_adam = state.range(0) != 0;
  std::string bytes;
  {
    const auto source = checkpoint_trainer(int8_adam);
    std::ostringstream out(std::ios::binary);
    fault::save_checkpoint(out, fault::capture_checkpoint(*source));
    bytes = std::move(out).str();
  }
  for (auto _ : state) {
    state.PauseTiming();
    auto trainer = checkpoint_trainer(int8_adam);
    state.ResumeTiming();
    StringReadBuf buf(bytes);
    std::istream in(&buf);
    fault::restore_checkpoint(*trainer, in);
    benchmark::DoNotOptimize(
        trainer->runtime().global_model().weights(0).data());
    benchmark::ClobberMemory();
    state.PauseTiming();
    trainer.reset();
    state.ResumeTiming();
  }
  state.counters["checkpoint_bytes"] = static_cast<double>(bytes.size());
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_CheckpointRestore)
    ->Arg(0)
    ->Arg(1)
    ->Iterations(3)
    ->Unit(benchmark::kMillisecond);

// Tiny smoke shape for the bench-smoke ctest label (exercises all merge
// paths — including the int8/fp16 quantized delta merge — plus JSON
// emission without paying for the sweep).
void BM_SmokeMergePaths(benchmark::State& state) {
  MergeSetup s(4096, {16}, 64, 2, 100);
  MergeSetup deep(4096, {kHidden, kHidden / 2}, kClasses, 2, 100);
  util::ThreadPool pool(2);
  kernels::Context ctx{&pool, 2};
  ctx.serial_grain = 1;
  std::vector<float> global_flat = s.global.to_flat();
  std::vector<float> prev_flat = global_flat;
  std::vector<double> acc;
  sparse::RowSet merge_union;
  merge_union.reset(s.features());
  std::vector<std::uint32_t> sorted;
  sparse::RowSet deep_union;
  deep_union.reset(deep.features());
  std::vector<std::uint32_t> deep_sorted;
  QuantDeltaScratch qs8, qs16;
  qs8.build(s);
  qs16.build(s);
  std::vector<std::vector<std::uint32_t>> rows(s.replicas.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    s.touched[i].sorted_rows(rows[i]);
  }
  for (auto _ : state) {
    run_pr1_merge(s, global_flat, prev_flat, acc);
    run_fused_dense_merge(s, ctx);
    run_fused_delta_merge(s, merge_union, sorted, ctx);
    run_quantized_delta_merge(s, comm::MergePrecision::kInt8, qs8, ctx);
    run_quantized_delta_merge(s, comm::MergePrecision::kFp16, qs16, ctx);
    run_fused_delta_merge(deep, deep_union, deep_sorted, ctx);
    run_replica_refresh(s, false, rows);
    run_replica_refresh(s, true, rows);
    benchmark::DoNotOptimize(s.global.weights(0).data());
    benchmark::DoNotOptimize(deep.global.weights(0).data());
  }
}
BENCHMARK(BM_SmokeMergePaths)->Unit(benchmark::kMicrosecond);

}  // namespace

// Custom main: unless the caller chose an output file, record the run to
// BENCH_merge.json (the perf-trajectory artifact tracked across PRs).
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  static char out_flag[] = "--benchmark_out=BENCH_merge.json";
  static char fmt_flag[] = "--benchmark_out_format=json";
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) has_out = true;
  }
  if (!has_out) {
    args.push_back(out_flag);
    args.push_back(fmt_flag);
  }
  benchmark::AddCustomContext("hetero_build_type", hetero::bench::build_type());
  benchmark::AddCustomContext(
      "hetero_default_isa",
      hetero::vec::isa_name(hetero::vec::active_isa()));
  benchmark::AddCustomContext(
      "hetero_nproc", std::to_string(std::thread::hardware_concurrency()));
  int ac = static_cast<int>(args.size());
  benchmark::Initialize(&ac, args.data());
  if (benchmark::ReportUnrecognizedArguments(ac, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
