// End-to-end wall-clock benchmark of training and serving: one workload per
// process, timed or traced.
//
//   e2e_bench --workload train-wide-delta --seed 20220429 --seconds 10 --trace 0
//
// Timed mode (--trace 0) drives only the public entry points a user calls —
// AdaptiveSgdTrainer::train() with its boundary hook, and
// serve::Server::submit() — and reports the end-to-end metrics.
//
// Traced mode (--trace 1) gives the per-layer breakdown. It replays the
// adaptive mega-batch loop (AdaptiveSgdTrainer::run_megabatch) through
// public MultiGpuRuntime calls with a steady_clock span around each call,
// and checks that the replayed model is bit-identical to a train() run of
// the same config: the spans describe the code the timed run executes.
// Single-query ModelSnapshot calls give the serving compute layers, and
// serving workloads add a traffic phase for queue and wave numbers.
//
// Prints one JSON object on stdout:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..},
//    "info": {..}}
// Metrics are {"value": v, "unit": u}. Exit code 0 unless the run could not
// complete; output mismatches set "correct": false and are named on stderr.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <future>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/adaptive_sgd.h"
#include "core/merging.h"
#include "fault/checkpoint.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "sim/profiles.h"
#include "tensor/vec/vec.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/stats.h"

using namespace hetero;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double s_since(Clock::time_point t0) { return ms_since(t0) / 1000.0; }

double quantile_or_zero(const std::vector<double>& v, double q) {
  return v.empty() ? 0.0 : util::quantile(v, q);
}

double median(const std::vector<double>& v) { return quantile_or_zero(v, 0.5); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// FNV-1a over the model's flat parameter bytes: the identity of a trained
// model across runs, replays and commits.
std::uint64_t fingerprint(const nn::Model& model) {
  const auto flat = model.to_flat();
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto* p = reinterpret_cast<const unsigned char*>(flat.data());
  for (std::size_t i = 0; i < flat.size() * sizeof(float); ++i) {
    h = (h ^ p[i]) * 0x100000001b3ull;
  }
  return h;
}

// Discards what is written and counts the bytes: checkpoint serialization
// is measured without the disk.
class CountingBuf : public std::streambuf {
 public:
  std::uint64_t bytes() const { return bytes_; }

 protected:
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof())) ++bytes_;
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes_ += static_cast<std::uint64_t>(n);
    return n;
  }

 private:
  std::uint64_t bytes_ = 0;
};

// --- workloads ----------------------------------------------------------------

struct Workload {
  std::string name;
  data::SyntheticXmlConfig data;
  core::TrainerConfig train;
  std::size_t gpus = 4;
  std::vector<std::size_t> checkpoint_at;  // 1-based mega-batch indices
  double qps = 0.0;                        // > 0: a serving workload
  serve::ServerConfig server;

  bool serving() const { return qps > 0.0; }
  std::vector<sim::DeviceSpec> devices() const {
    return sim::v100_heterogeneous(gpus, 0.32);
  }
};

// Shapes and the reason for each live in README.md. `tiny` shrinks every
// shape for the self-test; the code paths stay the same.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool tiny) {
  Workload w;
  w.name = name;
  auto& t = w.train;
  t.hidden = 64;
  t.batch_max = 128;
  t.batches_per_megabatch = 20;
  t.learning_rate = 0.5;
  t.compute_scale = 100.0;
  t.eval_samples = 1000;
  t.kernel_threads = 4;
  t.seed = seed;
  w.data = data::amazon670k_small();
  w.data.num_train = 12'000;
  w.data.num_test = 2'000;

  if (name == "train-wide-delta") {
    w.data.num_features = std::size_t{1} << 18;
    t.sparse_merge = true;
    t.num_megabatches = 8;
    w.checkpoint_at = {4, 8};
  } else if (name == "train-wide-int8-adam") {
    w.data.num_features = std::size_t{1} << 17;
    t.sparse_merge = true;
    t.merge_precision = comm::MergePrecision::kInt8;
    t.optimizer.kind = nn::OptimizerKind::kAdam;
    t.moment_merge = core::MomentMerge::kAverage;
    t.learning_rate = 0.02;
    t.num_megabatches = 8;
  } else if (name == "train-dense-compute") {
    w.data = data::delicious200k_small();
    w.data.num_features = std::size_t{1} << 16;
    w.data.num_classes = 4096;
    w.data.num_train = 8'000;
    w.data.num_test = 2'000;
    t.batches_per_megabatch = 40;
    t.num_megabatches = 5;
  } else if (name == "serve-4k" || name == "serve-16k") {
    w.data.num_features = std::size_t{1} << 16;
    t.num_megabatches = 3;
    w.qps = name == "serve-4k" ? 4000.0 : 16000.0;
    w.server.workers = 3;
    w.server.max_batch = 8;
    w.server.queue_cap = 1024;
    w.server.latency_budget_us = 2000;
    w.server.topk = 5;
    w.server.use_lsh = false;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  w.data.seed = seed;

  if (tiny) {
    w.data.num_features = std::min<std::size_t>(w.data.num_features, 1 << 12);
    w.data.avg_features_per_sample =
        std::min(w.data.avg_features_per_sample, 64.0);
    w.data.num_classes = 1024;
    w.data.num_train = 3'000;
    w.data.num_test = 500;
    t.batches_per_megabatch = 8;
    t.num_megabatches = 3;
    t.eval_samples = 200;
    if (!w.checkpoint_at.empty()) w.checkpoint_at = {2, 3};
    if (w.serving()) w.qps = 1000.0;
  }
  return w;
}

// --- metrics output -----------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  std::vector<Metric> metrics;
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Identity of the trained model, compared across runs and commits.
  std::uint64_t fingerprint = 0;
  double virtual_s = 0.0;
  double final_top1 = 0.0;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void expect(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// --- timed training -------------------------------------------------------------

// One train() run of the workload: the trainer is constructed (ctor_s), then
// train() runs with the boundary hook stamping every mega-batch and writing
// the workload's checkpoints. With a store, the final model is published.
struct TrainRun {
  double ctor_s = 0.0;
  double train_s = 0.0;
  std::vector<double> megabatch_ms;
  std::size_t samples = 0;
  std::uint64_t fingerprint = 0;
  double virtual_s = 0.0;
  double initial_top1 = 0.0;
  double final_top1 = 0.0;
  bool finite_loss = true;
  double checkpoint_ms = 0.0;
  std::uint64_t checkpoint_bytes = 0;
};

TrainRun timed_train(const data::XmlDataset& dataset, const Workload& w,
                     serve::SnapshotStore* store = nullptr) {
  TrainRun run;
  const auto t_ctor = Clock::now();
  core::AdaptiveSgdTrainer trainer(dataset, w.train, w.devices());
  run.ctor_s = s_since(t_ctor);

  auto last = Clock::now();
  trainer.set_boundary_hook([&](std::size_t megabatch, double) {
    run.megabatch_ms.push_back(ms_since(last));
    const bool checkpoint =
        std::find(w.checkpoint_at.begin(), w.checkpoint_at.end(),
                  megabatch) != w.checkpoint_at.end();
    if (checkpoint) {
      const auto t0 = Clock::now();
      CountingBuf buf;
      std::ostream out(&buf);
      fault::save_checkpoint(out, fault::capture_checkpoint(trainer));
      run.checkpoint_ms += ms_since(t0);
      run.checkpoint_bytes += buf.bytes();
    }
    last = Clock::now();
  });
  const auto t_train = Clock::now();
  last = t_train;
  const auto result = trainer.train();
  run.train_s = s_since(t_train);

  run.samples = result.curve.back().samples;
  run.fingerprint = fingerprint(trainer.runtime().global_model());
  run.virtual_s = result.total_vtime;
  run.initial_top1 = result.curve.front().top1;
  run.final_top1 = result.final_top1();
  for (const auto& p : result.curve) {
    run.finite_loss = run.finite_loss && std::isfinite(p.train_loss);
  }
  if (store != nullptr) {
    store->publish(trainer.runtime().global_model(), result.total_vtime);
  }
  return run;
}

void check_same_model(Report& rep, const TrainRun& a, const TrainRun& b,
                      const std::string& what) {
  rep.expect(a.fingerprint == b.fingerprint,
             what + ": model fingerprint " + hex64(b.fingerprint) + " != " +
                 hex64(a.fingerprint));
  rep.expect(a.virtual_s == b.virtual_s, what + ": sim.virtual_s differs");
  rep.expect(a.final_top1 == b.final_top1, what + ": final_top1 differs");
}

// Records the run's model identity and checks that training learned.
void check_learned(Report& rep, const TrainRun& r) {
  rep.fingerprint = r.fingerprint;
  rep.virtual_s = r.virtual_s;
  rep.final_top1 = r.final_top1;
  rep.expect(r.finite_loss, "training loss is not finite");
  rep.expect(r.final_top1 > r.initial_top1,
             "final top1 " + json_number(r.final_top1) +
                 " did not improve on the initial " +
                 json_number(r.initial_top1));
}

// --- traced replay of the adaptive mega-batch loop -------------------------

enum Layer {
  kNextBatch,      // MultiGpuRuntime::next_batch
  kUpdateStep,     // run_update_step, or its public parts (dense merge)
  kChargeStep,     //   nested: charge_step
  kGradients,      //   nested: Model::compute_gradients
  kOptimizer,      //   nested: Optimizer::apply + record_loss
  kL2Norm,         // Model::l2_norm_per_parameter, per replica per merge
  kMerge,          // merge_and_update
  kEvaluate,       // record_curve_point
  kOther,          // scheduling, merge weights, batch scaling, mean loss
  kNumLayers
};

// Spans directly under the replay loop; the nested ones subdivide
// kUpdateStep and are excluded from the attribution sum.
constexpr Layer kTopLevel[] = {kNextBatch, kL2Norm,   kMerge,
                               kEvaluate,  kUpdateStep, kOther};

template <class F>
auto timed(double& acc_ms, F&& f) {
  struct Stop {
    double& acc;
    Clock::time_point t0;
    ~Stop() { acc += ms_since(t0); }
  } stop{acc_ms, Clock::now()};
  return f();
}

struct Replay {
  double ms[kNumLayers] = {};
  double wall_ms = 0.0;
  std::vector<double> merge_ms;
  double union_fraction_sum = 0.0;
  double wire_bytes_sum = 0.0;
  std::size_t steps = 0;
  std::size_t merges = 0;
  TrainRun out;  // fingerprint / virtual_s / top1 of the replayed model
};

void require_mirrored(const core::TrainerConfig& cfg) {
  const auto reject = [](const char* what) {
    throw std::invalid_argument(std::string("replay does not mirror ") + what);
  };
  if (cfg.mode != core::ExecutionMode::kDeterministic) reject("threaded mode");
  if (!cfg.dynamic_scheduling) reject("static scheduling");
  if (cfg.warmup_megabatches != 0) reject("lr warmup");
  if (cfg.lr_decay_every != 0 && cfg.lr_decay != 1.0) reject("lr decay");
  if (cfg.adaptive_scaling_cadence) reject("adaptive scaling cadence");
  if (cfg.virtual_time_budget > 0.0) reject("a virtual time budget");
  if (cfg.early_stop_patience != 0) reject("early stopping");
  if (cfg.batch_max == 0) reject("derived batch_max");
}

// Mirrors AdaptiveSgdTrainer::train() for a fault-free run with the
// options require_mirrored() admits. `rt` must be freshly constructed.
Replay replay_train(core::MultiGpuRuntime& rt) {
  const auto& cfg = rt.config();
  require_mirrored(cfg);
  Replay rp;
  double* ms = rp.ms;
  const std::size_t n = rt.num_gpus();
  const std::size_t mega = cfg.megabatch_samples();
  const double features =
      static_cast<double>(rt.model_info().num_features);
  std::vector<core::GpuSgdState> sgd(
      n, core::GpuSgdState{cfg.batch_max, cfg.learning_rate, 0});
  const auto vtime = [&] {
    double t = 0.0;
    for (std::size_t g = 0; g < n; ++g) {
      t = std::max(t, rt.gpu(g).device_free_at());
    }
    return t;
  };
  core::TrainResult result;

  const auto t_wall = Clock::now();
  timed(ms[kEvaluate], [&] { rt.record_curve_point(result, vtime(), 0, 0.0); });
  for (std::size_t m = 1; m <= cfg.num_megabatches; ++m) {
    for (auto& s : sgd) s.updates = 0;
    std::size_t assigned = 0;
    while (assigned < mega) {
      const std::size_t g = timed(ms[kOther], [&] { return rt.next_free_gpu(); });
      const std::size_t b = std::min<std::size_t>(sgd[g].batch_size,
                                                   mega - assigned);
      auto batch = timed(ms[kNextBatch], [&] { return rt.next_batch(b); });
      const double lr = sgd[g].learning_rate;
      timed(ms[kUpdateStep], [&] {
        if (cfg.sparse_merge) {
          // The touched-row union the delta merge needs is private to
          // run_update_step, so it is timed as one call.
          rt.run_update_step(g, std::move(batch), lr, rt.gpu_free_at(g));
          return;
        }
        timed(ms[kChargeStep],
              [&] { rt.charge_step(g, batch.x, rt.gpu_free_at(g)); });
        const auto stats = timed(ms[kGradients], [&] {
          return rt.replica(g).compute_gradients(batch.x, batch.y,
                                                 rt.workspace(g));
        });
        timed(ms[kOptimizer], [&] {
          rt.optimizer(g).apply(rt.replica(g), rt.workspace(g),
                                static_cast<float>(lr),
                                static_cast<float>(cfg.weight_decay));
          rt.record_loss(g, stats.loss);
        });
      });
      sgd[g].updates += 1;
      assigned += b;
      ++rp.steps;
    }

    core::MergeInputs inputs;
    std::vector<std::size_t> alive;
    double sync = 0.0;
    timed(ms[kOther], [&] {
      double all_free = 0.0;
      for (std::size_t g = 0; g < n; ++g) {
        all_free = std::max(all_free, rt.gpu(g).device_free_at());
      }
      rt.math_barrier();
      rt.apply_crashes_until(all_free);
      for (std::size_t g = 0; g < n; ++g) {
        if (!rt.replica_alive(g)) continue;
        alive.push_back(g);
        sync = std::max(sync, rt.gpu(g).device_free_at());
      }
      inputs.pert_threshold = cfg.pert_threshold;
      inputs.pert_delta = cfg.pert_delta;
      inputs.enable_perturbation = cfg.enable_perturbation;
      inputs.normalization = cfg.merge_normalization;
      for (const std::size_t g : alive) {
        inputs.updates.push_back(sgd[g].updates);
        inputs.batch_sizes.push_back(sgd[g].batch_size);
      }
    });
    for (const std::size_t g : alive) {
      inputs.l2_per_param.push_back(timed(
          ms[kL2Norm], [&] { return rt.replica(g).l2_norm_per_parameter(); }));
    }
    const auto full = timed(ms[kOther], [&] {
      const auto weights = core::compute_merge_weights(inputs);
      return core::expand_alive_weights(weights.alpha, alive, n);
    });
    const auto t_merge = Clock::now();
    const auto timing = rt.merge_and_update(full, sync);
    const double merge_ms = ms_since(t_merge);
    ms[kMerge] += merge_ms;
    rp.merge_ms.push_back(merge_ms);
    rp.union_fraction_sum += static_cast<double>(timing.touched_rows) / features;
    rp.wire_bytes_sum += timing.wire_bytes;
    ++rp.merges;

    const double loss = timed(ms[kOther], [&] {
      if (cfg.enable_batch_scaling) {
        core::BatchScalingParams params;
        params.batch_min = cfg.derived_batch_min();
        params.batch_max = cfg.batch_max;
        params.beta = cfg.derived_beta();
        std::vector<core::GpuSgdState> alive_sgd;
        for (const std::size_t g : alive) alive_sgd.push_back(sgd[g]);
        core::scale_batch_sizes(alive_sgd, params);
        for (std::size_t i = 0; i < alive.size(); ++i) {
          sgd[alive[i]] = alive_sgd[i];
        }
      }
      for (const std::size_t g : rt.apply_joins_until(timing.finish)) {
        sgd[g] = core::GpuSgdState{cfg.batch_max, cfg.learning_rate, 0};
      }
      return rt.take_mean_loss();
    });
    timed(ms[kEvaluate],
          [&] { rt.record_curve_point(result, vtime(), m, loss); });
  }
  rp.wall_ms = ms_since(t_wall);

  rp.out.samples = result.curve.back().samples;
  rp.out.fingerprint = fingerprint(rt.global_model());
  rp.out.virtual_s = vtime();
  rp.out.initial_top1 = result.curve.front().top1;
  rp.out.final_top1 = result.curve.back().top1;
  return rp;
}

// --- serving ------------------------------------------------------------------

serve::Request row_request(const sparse::CsrMatrix& features,
                           std::size_t row) {
  serve::Request req;
  const auto cols = features.row_cols(row);
  const auto vals = features.row_values(row);
  req.features.reserve(cols.size());
  for (std::size_t i = 0; i < cols.size(); ++i) {
    req.features.push_back({cols[i], vals[i]});
  }
  return req;
}

sparse::CsrMatrix row_matrix(const sparse::CsrMatrix& features,
                             std::size_t row) {
  const std::size_t ids[] = {row};
  return features.gather_rows(ids);
}

struct Traffic {
  std::vector<double> latency_us;  // (submit - due) + service_us
  std::vector<double> queue_us;
  std::vector<double> wave_us;     // service_us - queue_us
  std::vector<double> late_us;     // generator lateness at submit
  std::uint64_t sent = 0;
  std::uint64_t shed = 0;
  std::uint64_t errors = 0;
  std::uint64_t checked = 0;
  std::uint64_t mismatched = 0;
  double seconds = 0.0;
  serve::ServerStats stats;
};

// Open-loop Poisson arrivals from this thread against a fresh server. The
// schedule comes from the seed alone; each request is timed from its due
// time, so a generator stall is charged to the requests behind it.
Traffic run_traffic(serve::SnapshotStore& store, const Workload& w,
                    const sparse::CsrMatrix& queries, double seconds,
                    std::uint64_t seed) {
  constexpr std::size_t kChecked = 256;
  util::Rng rng(seed ^ 0x5e57e);
  std::vector<double> due_s;
  for (double t = 0.0;;) {
    t += -std::log(1.0 - rng.next_double()) / w.qps;
    if (t >= seconds) break;
    due_s.push_back(t);
  }
  const std::size_t total = due_s.size();
  const std::size_t check_every = std::max<std::size_t>(1, total / kChecked);

  Traffic tr;
  std::vector<std::future<serve::Response>> futures;
  std::vector<double> submit_late(total, 0.0);
  futures.reserve(total);
  serve::Server server(store, w.server);
  const auto start = Clock::now();
  for (std::size_t i = 0; i < total; ++i) {
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(due_s[i]));
    // Sleep while far ahead, then spin: sleep_until alone overshoots by the
    // timer slack, which at 16k QPS is most of an interarrival gap.
    for (auto now = Clock::now(); now < due; now = Clock::now()) {
      if (due - now > std::chrono::microseconds(300)) {
        std::this_thread::sleep_until(due - std::chrono::microseconds(200));
      }
    }
    auto req = row_request(queries, i % queries.rows());
    submit_late[i] =
        std::chrono::duration<double, std::micro>(Clock::now() - due).count();
    futures.push_back(server.submit(std::move(req)));
  }

  std::vector<std::pair<std::size_t, std::vector<serve::ScoredLabel>>> samples;
  for (std::size_t i = 0; i < total; ++i) {
    try {
      const auto resp = futures[i].get();
      if (resp.shed) {
        ++tr.shed;
        continue;
      }
      const double service = static_cast<double>(resp.service_us);
      const double queue = static_cast<double>(resp.queue_us);
      tr.latency_us.push_back(submit_late[i] + service);
      tr.queue_us.push_back(queue);
      tr.wave_us.push_back(service - queue);
      if (i % check_every == 0) samples.emplace_back(i, resp.topk);
    } catch (const std::exception& e) {
      ++tr.errors;
      std::fprintf(stderr, "request %zu failed: %s\n", i, e.what());
    }
  }
  tr.seconds = s_since(start);
  server.stop();
  tr.stats = server.stats();
  tr.sent = total;
  tr.late_us = std::move(submit_late);

  // Served top-k must equal a single-thread exact scan of the same row.
  const auto snap = store.current();
  serve::QueryScratch scratch;
  std::vector<serve::ScoredLabel> expect;
  for (const auto& [i, got] : samples) {
    snap->forward_hidden(row_matrix(queries, i % queries.rows()), scratch);
    snap->score_output(scratch);
    snap->topk_exact(scratch, 0, w.server.topk, expect);
    ++tr.checked;
    if (got != expect) ++tr.mismatched;
  }
  return tr;
}

// Single-thread replay of the ModelSnapshot calls a serving wave makes, one
// query at a time, plus exact-vs-LSH top-k recall.
struct SnapshotReplay {
  std::vector<double> forward_us, score_us, exact_us, lsh_us;
  double recall_mean = 0.0;
  double fallback_ratio = 0.0;
  std::size_t queries = 0;
};

SnapshotReplay replay_snapshot(const nn::Model& model,
                               const sparse::CsrMatrix& queries,
                               std::size_t topk) {
  constexpr std::size_t kQueries = 2000;
  const serve::ModelSnapshot snap(model, 1, 0.0, serve::LshParams{});
  serve::QueryScratch exact_s, lsh_s;
  std::vector<serve::ScoredLabel> exact, lsh;
  const auto us = [](Clock::time_point t0) { return ms_since(t0) * 1000.0; };

  // Builds the SLIDE bundle once, outside the timed queries.
  snap.forward_hidden(row_matrix(queries, 0), lsh_s);
  snap.topk_lsh(0, topk, lsh_s, lsh);

  SnapshotReplay sr;
  sr.queries = std::min(kQueries, queries.rows());
  double recall_sum = 0.0;
  std::size_t fallbacks = 0;
  for (std::size_t q = 0; q < sr.queries; ++q) {
    const auto x = row_matrix(queries, q);
    auto t0 = Clock::now();
    snap.forward_hidden(x, exact_s);
    sr.forward_us.push_back(us(t0));
    t0 = Clock::now();
    snap.score_output(exact_s);
    sr.score_us.push_back(us(t0));
    t0 = Clock::now();
    snap.topk_exact(exact_s, 0, topk, exact);
    sr.exact_us.push_back(us(t0));
    snap.forward_hidden(x, lsh_s);
    t0 = Clock::now();
    if (!snap.topk_lsh(0, topk, lsh_s, lsh)) ++fallbacks;
    sr.lsh_us.push_back(us(t0));
    std::size_t hits = 0;
    for (const auto& e : exact) {
      hits += std::any_of(lsh.begin(), lsh.end(), [&](const auto& l) {
        return l.label == e.label;
      });
    }
    recall_sum += static_cast<double>(hits) / static_cast<double>(topk);
  }
  sr.recall_mean = recall_sum / static_cast<double>(sr.queries);
  sr.fallback_ratio =
      static_cast<double>(fallbacks) / static_cast<double>(sr.queries);
  return sr;
}

// --- the two modes --------------------------------------------------------------

// setup_s is the median of this many set-ups: one set-up is mostly
// first-touch page faults, whose cost moves with the host.
constexpr std::size_t kSetupReps = 5;
constexpr std::size_t kMinTrainRuns = 3;

void add_end_to_end(Report& rep, const std::vector<double>& setup_s,
                    double samples_per_s, const std::vector<double>& op_ms,
                    double rss_mb) {
  rep.add("setup_s", median(setup_s), "s");
  rep.add("samples_per_s", samples_per_s, "1/s");
  rep.add("latency_p50_ms", quantile_or_zero(op_ms, 0.5), "ms");
  rep.add("latency_p90_ms", quantile_or_zero(op_ms, 0.9), "ms");
  rep.add("peak_rss_mb", rss_mb, "MiB");
}

void check_traffic(Report& rep, const Traffic& tr) {
  // A generator this far behind its schedule no longer offers the
  // workload's rate, so the run does not measure the workload.
  constexpr double kMaxLateP50Us = 200.0;
  rep.attempted += tr.sent;
  rep.failed += tr.shed + tr.errors;
  rep.expect(tr.mismatched == 0,
             std::to_string(tr.mismatched) + " of " +
                 std::to_string(tr.checked) +
                 " sampled responses differ from a single-thread topk_exact");
  rep.expect(!tr.latency_us.empty(), "no request was served");
  const double late_p50 = quantile_or_zero(tr.late_us, 0.5);
  rep.expect(late_p50 <= kMaxLateP50Us,
             "generator lateness p50 " + json_number(late_p50) +
                 " us exceeds 200 us");
}

// Set-up is what a user waits for before the measured work starts:
// training — dataset generation + trainer construction; serving — dataset
// generation + a short training run whose final model is published (the
// trainer is gone before traffic starts).
Report run_timed(const Workload& w, double seconds) {
  Report rep;
  std::vector<double> setup_s;
  if (!w.serving()) {
    // Whole user runs while another fits in the time, at least
    // kMinTrainRuns; then set-ups alone until there are kSetupReps.
    std::vector<TrainRun> runs;
    double rss_mb = 0.0;  // peak of one user run: the first
    const auto start = Clock::now();
    const auto another_fits = [&] {
      const double elapsed = s_since(start);
      return elapsed * (1.0 + 1.0 / static_cast<double>(runs.size())) <=
             seconds;
    };
    while (runs.size() < kMinTrainRuns || another_fits()) {
      const auto t0 = Clock::now();
      const auto dataset = data::generate_xml_dataset(w.data);
      const double gen_s = s_since(t0);
      runs.push_back(timed_train(dataset, w));
      setup_s.push_back(gen_s + runs.back().ctor_s);
      if (runs.size() == 1) rss_mb = peak_rss_mb();
    }
    while (setup_s.size() < kSetupReps) {
      const auto t0 = Clock::now();
      const auto dataset = data::generate_xml_dataset(w.data);
      const core::AdaptiveSgdTrainer trainer(dataset, w.train, w.devices());
      setup_s.push_back(s_since(t0));
    }
    // Mega-batch latency leaves out each run's first mega-batch, which also
    // pays the initial evaluation and first-touch page faults.
    std::vector<double> rate, op_ms;
    for (const auto& r : runs) {
      rate.push_back(static_cast<double>(r.samples) / r.train_s);
      op_ms.insert(op_ms.end(), r.megabatch_ms.begin() + 1,
                   r.megabatch_ms.end());
      check_same_model(rep, runs.front(), r, "repeated train()");
      rep.expect(r.checkpoint_bytes == runs.front().checkpoint_bytes,
                 "checkpoint size differs between identical runs");
    }
    check_learned(rep, runs.front());
    rep.attempted = op_ms.size();
    add_end_to_end(rep, setup_s, median(rate), op_ms, rss_mb);
    return rep;
  }

  data::XmlDataset dataset;
  std::unique_ptr<serve::SnapshotStore> store;
  std::vector<TrainRun> runs;
  for (std::size_t i = 0; i < kSetupReps; ++i) {
    store.reset();
    dataset = {};
    const auto t0 = Clock::now();
    dataset = data::generate_xml_dataset(w.data);
    store = std::make_unique<serve::SnapshotStore>();
    runs.push_back(timed_train(dataset, w, store.get()));
    setup_s.push_back(s_since(t0));
    check_same_model(rep, runs.front(), runs.back(), "repeated set-up");
  }
  check_learned(rep, runs.front());
  const auto tr = run_traffic(*store, w, dataset.test.features, seconds,
                              w.train.seed);
  check_traffic(rep, tr);
  std::vector<double> latency_ms;
  for (const double us : tr.latency_us) latency_ms.push_back(us / 1000.0);
  add_end_to_end(rep, setup_s,
                 static_cast<double>(tr.latency_us.size()) / tr.seconds,
                 latency_ms, peak_rss_mb());
  return rep;
}

Report run_traced(const Workload& w, double seconds) {
  constexpr double kMinRecall = 0.95;
  Report rep;
  const auto start = Clock::now();
  const auto dataset = data::generate_xml_dataset(w.data);
  // Reference: the timed path, checkpoints included.
  const TrainRun ref = timed_train(dataset, w);
  check_learned(rep, ref);

  // Replays until the time is spent (serving: one, its traffic phase takes
  // the time); each must reproduce the reference model bit for bit. Layer
  // totals are medians over replays.
  std::vector<Replay> replays;
  std::unique_ptr<core::MultiGpuRuntime> rt;
  while (replays.empty() || (!w.serving() && s_since(start) < seconds)) {
    rt.reset();
    rt = std::make_unique<core::MultiGpuRuntime>(dataset, w.train,
                                                 w.devices());
    replays.push_back(replay_train(*rt));
    check_same_model(rep, ref, replays.back().out, "traced replay vs train()");
  }
  const auto med = [&](auto&& get) {
    std::vector<double> v;
    for (const auto& r : replays) v.push_back(get(r));
    return median(v);
  };
  const double wall = med([](const Replay& r) { return r.wall_ms; });
  const auto layer = [&](const char* name, Layer k) {
    const double total = med([k](const Replay& r) { return r.ms[k]; });
    rep.add(std::string(name) + "_ms", total, "ms");
    rep.add(std::string(name) + "_share", total / wall, "fraction");
  };
  layer("data.next_batch", kNextBatch);
  layer("core.run_update_step", kUpdateStep);
  layer("sim.charge_step", kChargeStep);
  layer("nn.compute_gradients", kGradients);
  layer("nn.optimizer_apply", kOptimizer);
  layer("nn.l2_norm", kL2Norm);
  layer("core.merge_and_update", kMerge);
  layer("nn.evaluate", kEvaluate);
  layer("core.other", kOther);
  rep.add("core.merge_and_update_ms_p50",
          med([](const Replay& r) { return median(r.merge_ms); }), "ms");
  const Replay& first = replays.front();
  const double merges = static_cast<double>(first.merges);
  rep.add("core.merge_union_fraction", first.union_fraction_sum / merges,
          "fraction");
  rep.add("comm.wire_bytes_per_merge", first.wire_bytes_sum / merges, "bytes");
  rep.add("trace.unattributed_share", med([](const Replay& r) {
            double spans = 0.0;
            for (const Layer k : kTopLevel) spans += r.ms[k];
            return 1.0 - spans / r.wall_ms;
          }),
          "fraction");
  rep.add("trace.replay_wall_ms", wall, "ms");
  // The replay writes no checkpoints, so compare against train() without
  // them: the ratio is the tracing overhead.
  rep.add("trace.replay_wall_ratio",
          wall / (ref.train_s * 1000.0 - ref.checkpoint_ms), "ratio");
  rep.add("fault.checkpoint_ms", ref.checkpoint_ms, "ms");
  rep.add("fault.checkpoint_bytes", static_cast<double>(ref.checkpoint_bytes),
          "bytes");
  rep.add("sim.virtual_s", ref.virtual_s, "s");
  rep.add("core.steps", static_cast<double>(first.steps), "count");
  rep.add("core.merges", merges, "count");
  rep.add("nn.final_top1", ref.final_top1, "fraction");
  rep.attempted = replays.size() * first.merges;

  // Serving layers (serving workloads): a traffic phase and the
  // single-query snapshot calls on the replayed model.
  Traffic tr;
  if (w.serving()) {
    serve::SnapshotStore store;
    store.publish(rt->global_model(), replays.back().out.virtual_s);
    tr = run_traffic(store, w, dataset.test.features, seconds, w.train.seed);
    check_traffic(rep, tr);
  }
  rep.add("serve.queue_us_p50", quantile_or_zero(tr.queue_us, 0.5), "us");
  rep.add("serve.wave_us_p50", quantile_or_zero(tr.wave_us, 0.5), "us");
  rep.add("serve.wave_size_mean",
          tr.stats.waves == 0 ? 0.0
                              : static_cast<double>(tr.stats.served) /
                                    static_cast<double>(tr.stats.waves),
          "count");
  rep.add("serve.latency_p99_us", quantile_or_zero(tr.latency_us, 0.99), "us");
  rep.add("bench.gen_late_p50_us", quantile_or_zero(tr.late_us, 0.5), "us");
  rep.add("bench.gen_late_p99_us", quantile_or_zero(tr.late_us, 0.99), "us");

  SnapshotReplay sr;
  if (w.serving()) {
    sr = replay_snapshot(rt->global_model(), dataset.test.features,
                         w.server.topk);
    rep.expect(sr.recall_mean >= kMinRecall,
               "LSH recall " + json_number(sr.recall_mean) + " < 0.95");
  }
  rep.add("serve.forward_hidden_us", median(sr.forward_us), "us");
  rep.add("serve.score_output_us", median(sr.score_us), "us");
  rep.add("serve.topk_exact_us", median(sr.exact_us), "us");
  rep.add("serve.topk_lsh_us", median(sr.lsh_us), "us");
  rep.add("serve.lsh_recall_mean", sr.recall_mean, "fraction");
  rep.add("serve.lsh_fallback_ratio", sr.fallback_ratio, "fraction");
  return rep;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    util::ArgParser args(argc, argv);
    const auto workload = args.get_string("workload", "");
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 20220429));
    const double seconds = args.get_double("seconds", 10.0);
    const bool traced = args.get_int("trace", 0) != 0;
    const bool tiny = args.get_bool("tiny", false);
    if (args.report_unknown()) return 2;
    const auto w = make_workload(workload, seed, tiny);

    const Report rep = traced ? run_traced(w, seconds) : run_timed(w, seconds);
    for (const auto& e : rep.errors) std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());

    std::string out = "{\"correct\": ";
    out += rep.errors.empty() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(rep.attempted);
    out += ", \"failed\": " + std::to_string(rep.failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
      const auto& m = rep.metrics[i];
      out += (i ? ", " : "") + json_string(m.name) +
             ": {\"value\": " + json_number(m.value) +
             ", \"unit\": " + json_string(m.unit) + "}";
    }
    out += "}, \"info\": {\"workload\": " + json_string(w.name) +
           ", \"seed\": " + std::to_string(seed) +
           ", \"mode\": " + json_string(traced ? "traced" : "timed") +
           ", \"fingerprint\": " + json_string(hex64(rep.fingerprint)) +
           ", \"virtual_s\": " + json_number(rep.virtual_s) +
           ", \"final_top1\": " + json_number(rep.final_top1) +
           ", \"build_type\": " + json_string(HETERO_BUILD_TYPE) +
           ", \"isa\": " + json_string(vec::isa_name(vec::active_isa())) +
           ", \"compiler\": " + json_string(__VERSION__) +
           ", \"nproc\": " +
           std::to_string(std::thread::hardware_concurrency()) + "}}";
    std::printf("%s\n", out.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 1;
  }
}
