// google-benchmark microbenchmarks of the real CPU kernels backing the
// framework: sparse products, dense GEMM, softmax and SimHash. These
// measure actual wall-clock (not virtual time) and exist to keep the
// reference kernels honest as the code evolves.
//
// The parallel-backend benchmarks sweep worker threads x batch sparsity for
// the sparsity-aware hot path (spmm, touched-row gradient, full SGD step at
// XML-like shape) against BM_SgdStepXmlSeedReference, a faithful re-creation
// of the seed implementation's serial dense-gradient step (per-step
// O(F x H) zero-fill + sort/unique in the update). Unless the caller passes
// --benchmark_out, results are written to BENCH_kernels.json so the speedup
// trajectory is tracked across PRs.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/merging.h"
#include "nn/model.h"
#include "nn/topk.h"
#include "slide/simhash.h"
#include "sparse/ops.h"
#include "sparse/sparse_gradient.h"
#include "tensor/ops.h"
#include "tensor/vec/vec.h"
#include "util/kernel_context.h"
#include "util/rng.h"
#include "util/thread_pool.h"

using namespace hetero;

namespace {

sparse::CsrMatrix make_sparse_batch(std::size_t rows, std::size_t cols,
                                    std::size_t nnz_per_row,
                                    std::uint64_t seed) {
  util::Rng rng(seed);
  sparse::CsrBuilder b(cols);
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<sparse::Entry> entries;
    for (std::size_t i = 0; i < nnz_per_row; ++i) {
      entries.push_back({static_cast<std::uint32_t>(rng.next_below(cols)),
                         static_cast<float>(rng.uniform(0.1, 1.0))});
    }
    b.add_row(std::move(entries));
  }
  return b.build();
}

sparse::CsrMatrix make_labels(std::size_t rows, std::size_t classes,
                              std::uint64_t seed) {
  util::Rng rng(seed);
  sparse::CsrBuilder yb(classes);
  for (std::size_t r = 0; r < rows; ++r) {
    yb.add_indicator_row(
        {static_cast<std::uint32_t>(rng.next_below(classes))});
  }
  return yb.build();
}

void BM_Spmm(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  const auto x = make_sparse_batch(batch, 8192, 76, 1);
  util::Rng rng(2);
  tensor::Matrix w(8192, 64);
  tensor::init_gaussian(w, 0.05, rng);
  tensor::Matrix y;
  for (auto _ : state) {
    sparse::spmm(x, w, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(x.nnz()) * 64);
}
BENCHMARK(BM_Spmm)->Arg(32)->Arg(128)->Arg(512);

// Threads x sparsity sweep of the parallel spmm. Args: {threads, nnz/row}.
void BM_SpmmParallel(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  const auto nnz_per_row = static_cast<std::size_t>(state.range(1));
  const std::size_t features = 1 << 17;
  const auto x = make_sparse_batch(128, features, nnz_per_row, 1);
  util::Rng rng(2);
  tensor::Matrix w(features, 64);
  tensor::init_gaussian(w, 0.05, rng);
  tensor::Matrix y;
  util::ThreadPool pool(threads);
  const kernels::Context ctx{&pool, threads};
  for (auto _ : state) {
    sparse::spmm(x, w, y, ctx);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(x.nnz()) * 64);
}
BENCHMARK(BM_SpmmParallel)
    ->Args({1, 16})->Args({1, 100})->Args({1, 400})
    ->Args({2, 100})
    ->Args({4, 16})->Args({4, 100})->Args({4, 400})
    ->Args({8, 16})->Args({8, 100})->Args({8, 400})
    ->UseRealTime();

void BM_SpmmTranspose(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  const auto x = make_sparse_batch(batch, 8192, 76, 3);
  util::Rng rng(4);
  tensor::Matrix d(batch, 64);
  tensor::init_gaussian(d, 0.05, rng);
  tensor::Matrix g(8192, 64, 0.0f);
  for (auto _ : state) {
    g.fill(0.0f);
    sparse::spmm_t_accumulate(x, d, g);
    benchmark::DoNotOptimize(g.data());
  }
}
BENCHMARK(BM_SpmmTranspose)->Arg(32)->Arg(128);

// Touched-row gradient backward scatter (key + accumulate), threads x
// sparsity. This is the kernel that replaces the seed's dense zero-fill +
// scatter. Args: {threads, nnz/row}.
void BM_SparseGradientAccumulate(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  const auto nnz_per_row = static_cast<std::size_t>(state.range(1));
  const std::size_t features = 1 << 17;
  const auto x = make_sparse_batch(128, features, nnz_per_row, 3);
  util::Rng rng(4);
  tensor::Matrix d(128, 64);
  tensor::init_gaussian(d, 0.05, rng);
  util::ThreadPool pool(threads);
  const kernels::Context ctx{&pool, threads};
  sparse::SparseGradient g;
  for (auto _ : state) {
    g.reset(x, 64);
    g.accumulate_spmm_t(x, d, ctx);
    benchmark::DoNotOptimize(g.values().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(x.nnz()) * 64);
}
BENCHMARK(BM_SparseGradientAccumulate)
    ->Args({1, 16})->Args({1, 100})->Args({1, 400})
    ->Args({4, 100})
    ->Args({8, 16})->Args({8, 100})->Args({8, 400})
    ->UseRealTime();

void BM_DenseGemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(5);
  tensor::Matrix a(128, 64), b(64, n), c;
  tensor::init_gaussian(a, 0.05, rng);
  tensor::init_gaussian(b, 0.05, rng);
  for (auto _ : state) {
    tensor::gemm(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * 128 * 64 *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_DenseGemm)->Arg(256)->Arg(1024)->Arg(4096);

// Blocked parallel GEMM. Args: {threads, n}.
void BM_DenseGemmParallel(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  util::Rng rng(5);
  tensor::Matrix a(128, 64), b(64, n), c;
  tensor::init_gaussian(a, 0.05, rng);
  tensor::init_gaussian(b, 0.05, rng);
  util::ThreadPool pool(threads);
  const kernels::Context ctx{&pool, threads};
  for (auto _ : state) {
    tensor::gemm(a, b, c, ctx);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * 128 * 64 *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_DenseGemmParallel)
    ->Args({2, 1024})->Args({4, 1024})->Args({8, 1024})->Args({8, 4096})
    ->UseRealTime();

// Row-split softmax over 128 rows. Args: {classes, threads}. Restoring the
// input is untimed: the copy is serial and would blur the thread scaling.
void BM_SoftmaxRows(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(1));
  util::Rng rng(6);
  tensor::Matrix logits(128, static_cast<std::size_t>(state.range(0)));
  tensor::init_gaussian(logits, 1.0, rng);
  tensor::Matrix scratch = logits;
  util::ThreadPool pool(threads);
  const kernels::Context ctx{&pool, threads};
  for (auto _ : state) {
    state.PauseTiming();
    scratch = logits;
    state.ResumeTiming();
    tensor::softmax_rows(scratch, ctx);
    benchmark::DoNotOptimize(scratch.data());
  }
}
BENCHMARK(BM_SoftmaxRows)
    ->Args({1024, 1})->Args({4096, 1})->Args({4096, 2})->Args({4096, 4})
    ->UseRealTime();

// Top-5 of 1000 softmax rows over 4096 classes: evaluation's and the exact
// serving path's ranking step.
void BM_SelectTopk(benchmark::State& state) {
  util::Rng rng(10);
  tensor::Matrix probs(1000, 4096);
  tensor::init_gaussian(probs, 1.0, rng);
  tensor::softmax_rows(probs, {});
  std::vector<nn::ScoredLabel> top;
  for (auto _ : state) {
    for (std::size_t r = 0; r < probs.rows(); ++r) {
      nn::select_topk({probs.data() + r * probs.cols(), probs.cols()}, 5, top);
      benchmark::DoNotOptimize(top.data());
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(probs.rows()));
}
BENCHMARK(BM_SelectTopk);

// Fork/join overhead: an empty 4-range parallel_for_ranges on a 4-worker
// pool, the caller running range 0.
void BM_ForkJoin(benchmark::State& state) {
  util::ThreadPool pool(4);
  kernels::Context ctx{&pool, 4};
  ctx.serial_grain = 0;
  for (auto _ : state) {
    kernels::parallel_for_ranges(ctx, 4, 0, [](std::size_t b, std::size_t e) {
      benchmark::DoNotOptimize(b + e);
    });
  }
}
BENCHMARK(BM_ForkJoin)->UseRealTime();

// The paper's 3-layer model (one hidden layer), initialized from seed 7.
nn::Model make_mlp(std::size_t features, std::size_t hidden,
                   std::size_t classes) {
  nn::Model model(features, {hidden}, classes);
  util::Rng rng(7);
  model.init(rng);
  return model;
}

void BM_FullSgdStep(benchmark::State& state) {
  const auto classes = static_cast<std::size_t>(state.range(0));
  auto model = make_mlp(8192, 64, classes);
  const auto x = make_sparse_batch(128, 8192, 76, 8);
  const auto y = make_labels(128, classes, 7);
  nn::ModelWorkspace ws;
  for (auto _ : state) {
    model.train_step(x, y, 0.01f, ws);
  }
  state.SetItemsProcessed(state.iterations() * 128);
}
BENCHMARK(BM_FullSgdStep)->Arg(1024)->Arg(2048);

// XML-like shape (Table 1 regime): >= 100k features at <= 0.1% density.
constexpr std::size_t kXmlFeatures = 1 << 21;  // 2097152 (Wiki-500K scale)
constexpr std::size_t kXmlNnzPerRow = 100;     // 0.0048% density
constexpr std::size_t kXmlClasses = 512;
constexpr std::size_t kXmlBatch = 128;

// End-to-end SGD step on the sparsity-aware backend. Args: {threads}.
void BM_SgdStepXml(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  auto model = make_mlp(kXmlFeatures, 64, kXmlClasses);
  const auto x = make_sparse_batch(kXmlBatch, kXmlFeatures, kXmlNnzPerRow, 8);
  const auto y = make_labels(kXmlBatch, kXmlClasses, 9);
  nn::ModelWorkspace ws;
  util::ThreadPool pool(threads);
  if (threads > 1) ws.ctx = kernels::Context{&pool, threads};
  for (auto _ : state) {
    model.train_step(x, y, 0.01f, ws);
  }
  state.SetItemsProcessed(state.iterations() * kXmlBatch);
}
BENCHMARK(BM_SgdStepXml)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// The seed implementation's hot path, kept here as the speedup baseline: a
// dense F x H layer-1 gradient that is zero-filled every step, serial
// kernels throughout, and a per-update sort/unique of the batch columns.
void BM_SgdStepXmlSeedReference(benchmark::State& state) {
  const std::size_t h = 64;
  auto model = make_mlp(kXmlFeatures, h, kXmlClasses);
  const auto x = make_sparse_batch(kXmlBatch, kXmlFeatures, kXmlNnzPerRow, 8);
  const auto y = make_labels(kXmlBatch, kXmlClasses, 9);
  auto& w1 = model.weights(0);
  auto& b1 = model.biases(0);
  auto& w2 = model.weights(1);
  auto& b2 = model.biases(1);

  tensor::Matrix h_pre, hact, probs, delta2, delta1;
  tensor::Matrix grad_w1(kXmlFeatures, h, 0.0f);
  tensor::Matrix grad_w2;
  std::vector<float> grad_b1, grad_b2;
  const float lr = 0.01f;

  for (auto _ : state) {
    // Forward.
    sparse::spmm(x, w1, h_pre);
    tensor::add_row_bias(h_pre, {b1.data(), b1.size()});
    hact = h_pre;
    tensor::relu(hact);
    tensor::gemm(hact, w2, probs);
    tensor::add_row_bias(probs, {b2.data(), b2.size()});
    tensor::softmax_rows(probs);
    // Backward.
    delta2 = probs;
    for (std::size_t r = 0; r < x.rows(); ++r) {
      const auto labels = y.row_cols(r);
      const float share = 1.0f / static_cast<float>(labels.size());
      float* dd = delta2.data() + r * kXmlClasses;
      for (auto c : labels) dd[c] -= share;
    }
    tensor::scale(delta2.flat(), 1.0f / static_cast<float>(x.rows()));
    tensor::gemm_at_b(hact, delta2, grad_w2);
    grad_b2.assign(kXmlClasses, 0.0f);
    tensor::column_sums(delta2, {grad_b2.data(), grad_b2.size()});
    tensor::gemm_a_bt(delta2, w2, delta1);
    tensor::relu_backward(h_pre, delta1);
    grad_w1.fill(0.0f);  // the O(F x H) per-step cost the backend removes
    sparse::spmm_t_accumulate(x, delta1, grad_w1);
    grad_b1.assign(h, 0.0f);
    tensor::column_sums(delta1, {grad_b1.data(), grad_b1.size()});
    // Update (seed apply_gradients: re-sorts the batch columns).
    std::vector<std::uint32_t> touched(x.col_idx());
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    for (auto row : touched) {
      float* w = w1.data() + static_cast<std::size_t>(row) * h;
      const float* g = grad_w1.data() + static_cast<std::size_t>(row) * h;
      for (std::size_t j = 0; j < h; ++j) w[j] -= lr * g[j];
    }
    tensor::axpy(-lr, {grad_b1.data(), grad_b1.size()}, {b1.data(), b1.size()});
    tensor::axpy(-lr, grad_w2.flat(), w2.flat());
    tensor::axpy(-lr, {grad_b2.data(), grad_b2.size()}, {b2.data(), b2.size()});
    benchmark::DoNotOptimize(w1.data());
  }
  state.SetItemsProcessed(state.iterations() * kXmlBatch);
}
BENCHMARK(BM_SgdStepXmlSeedReference)->Unit(benchmark::kMillisecond);

// Tiny-shape smoke benchmark: the `bench-smoke` ctest label runs only this,
// so the perf plumbing (threaded kernels included) is exercised on every
// tier-1 run without paying for the full sweep.
void BM_SmokeSgdStep(benchmark::State& state) {
  auto model = make_mlp(256, 16, 32);
  const auto x = make_sparse_batch(16, 256, 8, 8);
  const auto y = make_labels(16, 32, 9);
  nn::ModelWorkspace ws;
  util::ThreadPool pool(2);
  ws.ctx = kernels::Context{&pool, 2};
  ws.ctx.serial_grain = 0;  // force the threaded path even at this size
  for (auto _ : state) {
    model.train_step(x, y, 0.01f, ws);
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_SmokeSgdStep);

// ---- Per-ISA kernel rows -------------------------------------------------
//
// The same serial kernel at the same shape, once per ISA the host supports,
// so BENCH_kernels.json carries a scalar/avx2/avx512 column for each
// vectorized hot path (the ISA is the benchmark name suffix). Registered
// from main() via register_isa_benchmarks() because the supported set is
// only known at runtime. Each row pins the global dispatch table to its
// ISA for the duration of the run and restores the previous table after.

class IsaScope {
 public:
  explicit IsaScope(vec::Isa isa) : prev_(vec::active_isa()) {
    vec::set_isa(isa);
  }
  ~IsaScope() { vec::set_isa(prev_); }

 private:
  vec::Isa prev_;
};

// spmm at hidden 64 — the forward hot path (row-major axpy inner loop).
void run_spmm_isa(benchmark::State& state, vec::Isa isa) {
  const IsaScope scope(isa);
  const auto x = make_sparse_batch(128, 8192, 76, 1);
  util::Rng rng(2);
  tensor::Matrix w(8192, 64);
  tensor::init_gaussian(w, 0.05, rng);
  tensor::Matrix y;
  for (auto _ : state) {
    sparse::spmm(x, w, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(x.nnz()) * 64);
}

// spmm_t_accumulate at hidden 64 — the backward scatter.
void run_spmm_t_isa(benchmark::State& state, vec::Isa isa) {
  const IsaScope scope(isa);
  const auto x = make_sparse_batch(128, 8192, 76, 3);
  util::Rng rng(4);
  tensor::Matrix d(128, 64);
  tensor::init_gaussian(d, 0.05, rng);
  tensor::Matrix g(8192, 64, 0.0f);
  for (auto _ : state) {
    g.fill(0.0f);
    sparse::spmm_t_accumulate(x, d, g);
    benchmark::DoNotOptimize(g.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(x.nnz()) * 64);
}

// Dense gemm 128x64 * 64x1024 — broadcast-axpy inner loop.
void run_gemm_isa(benchmark::State& state, vec::Isa isa) {
  const IsaScope scope(isa);
  util::Rng rng(5);
  tensor::Matrix a(128, 64), b(64, 1024), c;
  tensor::init_gaussian(a, 0.05, rng);
  tensor::init_gaussian(b, 0.05, rng);
  for (auto _ : state) {
    tensor::gemm(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * 128 * 64 * 1024);
}

// Fused dense merge + momentum over a 1M-float segment, 4 replicas.
void run_merge_isa(benchmark::State& state, vec::Isa isa) {
  const IsaScope scope(isa);
  const std::size_t len = 1 << 20;
  util::Rng rng(6);
  std::vector<std::vector<float>> replicas(4, std::vector<float>(len));
  for (auto& r : replicas) {
    for (auto& v : r) v = static_cast<float>(rng.uniform(-1, 1));
  }
  std::vector<float> global(replicas[0]), prev(len, 0.0f);
  std::vector<const float*> ptrs;
  for (const auto& r : replicas) ptrs.push_back(r.data());
  const std::vector<double> weights{0.3, 0.3, 0.2, 0.2};
  core::MergeUpdate u;
  u.weights = weights;
  u.gamma = 0.9;
  u.momentum = true;
  const kernels::Context ctx{};
  for (auto _ : state) {
    core::merge_segment(ptrs, len, u, global, prev, 1, ctx);
    benchmark::DoNotOptimize(global.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(len));
}

// Touched-row SGD apply (w = keep*w - lr*g over packed rows, hidden 64).
void run_sgd_apply_isa(benchmark::State& state, vec::Isa isa) {
  const IsaScope scope(isa);
  const std::size_t features = 1 << 17;
  const auto x = make_sparse_batch(128, features, 100, 3);
  util::Rng rng(4);
  tensor::Matrix d(128, 64), w(features, 64);
  tensor::init_gaussian(d, 0.05, rng);
  tensor::init_gaussian(w, 0.05, rng);
  const kernels::Context ctx{};
  sparse::SparseGradient g;
  g.reset(x, 64);
  g.accumulate_spmm_t(x, d, ctx);
  for (auto _ : state) {
    g.apply_to(w, 0.01f, 1.0f, ctx);
    benchmark::DoNotOptimize(w.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.num_rows()) * 64);
}

void register_isa_benchmarks() {
  for (const vec::Isa isa :
       {vec::Isa::kScalar, vec::Isa::kAvx2, vec::Isa::kAvx512}) {
    if (!vec::isa_supported(isa)) continue;
    const std::string tag = vec::isa_name(isa);
    benchmark::RegisterBenchmark(("BM_SpmmIsa/" + tag).c_str(),
                                 run_spmm_isa, isa);
    benchmark::RegisterBenchmark(("BM_SpmmTransposeIsa/" + tag).c_str(),
                                 run_spmm_t_isa, isa);
    benchmark::RegisterBenchmark(("BM_DenseGemmIsa/" + tag).c_str(),
                                 run_gemm_isa, isa);
    benchmark::RegisterBenchmark(("BM_MergeSegmentIsa/" + tag).c_str(),
                                 run_merge_isa, isa);
    benchmark::RegisterBenchmark(("BM_SgdApplyIsa/" + tag).c_str(),
                                 run_sgd_apply_isa, isa);
  }
}

void BM_SimHashSignature(benchmark::State& state) {
  util::Rng rng(9);
  slide::SimHash hasher(64, 6, 8, rng);
  std::vector<float> v(64);
  for (auto& x : v) x = static_cast<float>(rng.next_gaussian());
  for (auto _ : state) {
    for (std::size_t t = 0; t < hasher.tables(); ++t) {
      benchmark::DoNotOptimize(hasher.signature(t, v));
    }
  }
}
BENCHMARK(BM_SimHashSignature);

}  // namespace

// Custom main: unless the caller chose an output file, record the run to
// BENCH_kernels.json (the perf-trajectory artifact tracked across PRs).
// `--isa=scalar|avx2|avx512` pins the default dispatch table (the per-ISA
// rows still sweep every supported ISA); HETERO_ISA does the same via the
// environment. The recorded JSON context carries the build type, the
// default ISA and the host's core count so a result file is
// self-describing. Record the commit with it too, as in
//   kernels_bench --benchmark_context=git_sha=$(git describe --always --dirty)
int main(int argc, char** argv) {
  std::vector<char*> args;
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--isa=", 6) == 0) {
      hetero::vec::set_isa_from_string(argv[i] + 6);
      continue;  // ours, not google-benchmark's
    }
    args.push_back(argv[i]);
  }
  static char out_flag[] = "--benchmark_out=BENCH_kernels.json";
  static char fmt_flag[] = "--benchmark_out_format=json";
  bool has_out = false;
  for (const char* a : args) {
    if (std::strncmp(a, "--benchmark_out", 15) == 0) has_out = true;
  }
  if (!has_out) {
    args.push_back(out_flag);
    args.push_back(fmt_flag);
  }
  register_isa_benchmarks();
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
