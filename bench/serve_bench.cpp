// Online-serving benchmark: latency against offered rate, exact and LSH.
//
// Phase 1 (freshness): an adaptive training run publishes a snapshot at
// every merge boundary while open-loop Poisson traffic at --qps queries the
// server. Records latency, shed count and the first and last snapshot
// versions served.
//
// Phase 2 (recall and single-query cost): on the final snapshot, every
// recall-probe query is answered twice, single-threaded — exact
// output-layer scan and SLIDE LSH candidates — and scored as
// |exact ∩ lsh| / k. The median time of one query on each path predicts the
// rate at which --workers workers saturate: workers / cost.
//
// Phase 3 (rate sweep): with training finished, the final snapshot is
// served on each path at 500 QPS, then at doubling rates until the offered
// rate reaches 2x the predicted saturation, or until the single generator
// thread falls behind (lateness p50 > 200 us); the record says which limit
// stopped the sweep. Each point runs a fresh server for about two seconds
// of open-loop Poisson traffic and records offered and achieved QPS,
// served/shed/failed counts, p50/p99 latency, queue and wave p50, mean
// wave and generator lateness. Each path's summary is the highest rate
// whose p99 stays within --latency-budget-us with nothing shed or failed.
//
// The generator sleeps while far ahead of a request's due time and spins
// for the rest, and every request is timed from its due time, so a
// generator stall is charged to the requests behind it.
//
// Results land in BENCH_serve.json (override with --out), stamped with the
// host's core count, default ISA, build type and the --git-sha given:
//
//   ./build-bench/bench/serve_bench --git-sha $(git describe --always --dirty)
//   ./build-bench/bench/serve_bench --smoke    # tiny shapes, 3 rates, for CI
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <future>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/adaptive_sgd.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "sim/profiles.h"
#include "tensor/vec/vec.h"
#include "util/rng.h"
#include "util/stats.h"

using namespace hetero;

namespace {

using Clock = std::chrono::steady_clock;

constexpr double kMaxLateP50Us = 200.0;

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

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double us_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

struct Point {
  double offered_qps = 0.0;
  double achieved_qps = 0.0;
  std::size_t requests = 0;
  std::size_t served = 0;
  std::size_t shed = 0;
  std::size_t failed = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double queue_p50_us = 0.0;
  double wave_p50_us = 0.0;
  double mean_wave = 0.0;
  double late_p50_us = 0.0;
  std::uint64_t first_version = 0;
  std::uint64_t last_version = 0;
};

// Open-loop Poisson arrivals at `qps` from this thread against a fresh
// server on `store`.
Point run_traffic(serve::SnapshotStore& store, const serve::ServerConfig& scfg,
                  const sparse::CsrMatrix& queries, double qps,
                  std::size_t requests, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Clock::duration> due(requests);
  double t = 0.0;
  for (auto& d : due) {
    t += -std::log(1.0 - rng.next_double()) / qps;
    d = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(t));
  }

  std::vector<double> late_us(requests);
  std::vector<std::future<serve::Response>> futures;
  futures.reserve(requests);
  serve::Server server(store, scfg);
  const auto start = Clock::now();
  for (std::size_t i = 0; i < requests; ++i) {
    const auto at = start + due[i];
    // Sleep while far ahead, then spin: sleep_until alone overshoots by the
    // timer slack, which at high rates is most of an interarrival gap.
    for (auto now = Clock::now(); now < at; now = Clock::now()) {
      if (at - now > std::chrono::microseconds(300)) {
        std::this_thread::sleep_until(at - std::chrono::microseconds(200));
      }
    }
    auto req = row_request(queries, i % queries.rows());
    late_us[i] = us_between(at, Clock::now());
    futures.push_back(server.submit(std::move(req)));
  }

  Point p;
  p.offered_qps = qps;
  p.requests = requests;
  std::vector<double> latency, queue, wave;
  for (std::size_t i = 0; i < requests; ++i) {
    serve::Response resp;
    try {
      resp = futures[i].get();
    } catch (const std::exception& e) {
      ++p.failed;
      std::fprintf(stderr, "request %zu failed: %s\n", i, e.what());
      continue;
    }
    if (resp.shed) {
      ++p.shed;
      continue;
    }
    if (p.first_version == 0) p.first_version = resp.snapshot_version;
    p.last_version = resp.snapshot_version;
    const auto service = static_cast<double>(resp.service_us);
    const auto queued = static_cast<double>(resp.queue_us);
    latency.push_back(late_us[i] + service);
    queue.push_back(queued);
    wave.push_back(service - queued);
  }
  const double seconds = us_between(start, Clock::now()) / 1e6;
  server.stop();
  const auto stats = server.stats();

  p.served = latency.size();
  p.achieved_qps =
      seconds > 0.0 ? static_cast<double>(p.served) / seconds : 0.0;
  p.p50_us = util::quantile(latency, 0.5);
  p.p99_us = util::quantile(latency, 0.99);
  p.queue_p50_us = util::quantile(queue, 0.5);
  p.wave_p50_us = util::quantile(wave, 0.5);
  p.mean_wave = stats.waves == 0 ? 0.0
                                 : static_cast<double>(stats.served) /
                                       static_cast<double>(stats.waves);
  p.late_p50_us = util::quantile(late_us, 0.5);
  return p;
}

void print_point(const char* label, const Point& p) {
  std::printf(
      "%-9s %8.0f qps offered %8.0f achieved | %zu served %zu shed %zu "
      "failed | p50 %.0fus p99 %.0fus queue p50 %.0fus wave p50 %.0fus "
      "mean wave %.2f | late p50 %.1fus\n",
      label, p.offered_qps, p.achieved_qps, p.served, p.shed, p.failed,
      p.p50_us, p.p99_us, p.queue_p50_us, p.wave_p50_us, p.mean_wave,
      p.late_p50_us);
}

void write_point(std::ostream& out, const Point& p) {
  out << "{\"offered_qps\":" << p.offered_qps
      << ",\"achieved_qps\":" << p.achieved_qps
      << ",\"requests\":" << p.requests << ",\"served\":" << p.served
      << ",\"shed\":" << p.shed << ",\"failed\":" << p.failed
      << ",\"p50_us\":" << p.p50_us << ",\"p99_us\":" << p.p99_us
      << ",\"queue_p50_us\":" << p.queue_p50_us
      << ",\"wave_p50_us\":" << p.wave_p50_us
      << ",\"mean_wave\":" << p.mean_wave
      << ",\"late_p50_us\":" << p.late_p50_us;
}

struct Sweep {
  bool lsh = false;
  const char* path() const { return lsh ? "lsh" : "exact"; }
  double query_us = 0.0;       // phase 2's median single-query cost
  double saturation_qps = 0.0;  // workers / query cost
  const char* stop = "";
  double max_qps_within_budget = 0.0;
  std::vector<Point> points;
};

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  const bool smoke = args.get_bool("smoke", false);
  const auto out_path = args.get_string("out", "BENCH_serve.json");
  const auto git_sha = args.get_string("git-sha", "unknown");
  const auto qps = args.get_double("qps", 4000.0);
  auto requests = args.get_size("requests", 4000);
  // One core is left to the traffic generator, so the server, not the
  // generator, is what saturates first.
  const auto workers = args.get_size(
      "workers", std::max(2u, std::thread::hardware_concurrency()) - 1);
  const auto max_batch = args.get_size("max-batch", 8);
  const auto latency_budget_us =
      static_cast<std::uint64_t>(args.get_size("latency-budget-us", 2000));
  const auto queue_cap = args.get_size("queue-cap", 1024);
  const auto topk = args.get_size("topk", 5);
  const auto gpus = args.get_size("gpus", 3);
  auto megabatches = args.get_size("megabatches", 6);
  auto recall_queries = args.get_size("recall-queries", 256);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 12345));
  if (args.report_unknown()) return 1;
  if (!(qps > 0.0)) {
    std::fprintf(stderr, "--qps must be > 0\n");
    return 1;
  }

  auto data_cfg = bench::bench_amazon();
  auto cfg = bench::bench_trainer_config(megabatches);
  // Requests per sweep point: about two seconds of traffic, at least enough
  // for a p99 with ten samples beyond it, capped so the fastest points hold
  // few futures at once.
  double point_seconds = 2.0;
  std::size_t min_point_requests = 1'000;
  std::size_t max_point_requests = 40'000;
  std::size_t max_points = 20;
  if (smoke) {
    data_cfg.num_train = 3'000;
    data_cfg.num_test = 600;
    cfg.num_megabatches = megabatches = 3;
    cfg.batches_per_megabatch = 10;
    cfg.batch_max = 64;
    cfg.eval_samples = 300;
    requests = std::min<std::size_t>(requests, 400);
    recall_queries = std::min<std::size_t>(recall_queries, 64);
    point_seconds = 0.1;
    min_point_requests = 50;
    max_point_requests = 200;
    max_points = 3;
  }
  data_cfg.seed = seed;
  cfg.seed = seed;
  const auto dataset = data::generate_xml_dataset(data_cfg);
  const auto& queries = dataset.test.features;

  serve::ServerConfig scfg;
  scfg.workers = workers;
  scfg.max_batch = max_batch;
  scfg.queue_cap = queue_cap;
  scfg.latency_budget_us = latency_budget_us;
  scfg.topk = topk;

  // --- phase 1: train-while-serve freshness row ----------------------------
  serve::SnapshotStore store;
  Point fresh;
  {
    core::AdaptiveSgdTrainer trainer(dataset, cfg,
                                     sim::v100_heterogeneous(gpus, 0.32));
    store.publish(trainer.runtime().global_model(), 0.0);
    trainer.runtime().set_publish_hook(
        [&store](const nn::Model& m, double vtime) { store.publish(m, vtime); });
    std::thread training([&trainer] { trainer.train(); });
    fresh = run_traffic(store, scfg, queries, qps, requests, seed ^ 0x5e57e);
    training.join();
  }
  print_point("freshness", fresh);
  std::printf("snapshot versions served: %llu..%llu\n",
              static_cast<unsigned long long>(fresh.first_version),
              static_cast<unsigned long long>(fresh.last_version));

  // --- phase 2: exact-vs-LSH recall and single-query cost ------------------
  const auto snap = store.current();
  serve::QueryScratch exact_scratch, lsh_scratch;
  std::vector<serve::ScoredLabel> exact_topk, lsh_topk;
  std::vector<double> recalls, exact_us, lsh_us;
  std::size_t fallback_rows = 0;
  for (std::size_t q = 0; q < recall_queries; ++q) {
    const std::size_t row = q % queries.rows();
    const auto t0 = Clock::now();
    sparse::CsrBuilder builder(queries.cols());
    builder.add_row(row_request(queries, row).features);
    const auto x = builder.build();
    const auto t1 = Clock::now();
    snap->forward_hidden(x, exact_scratch);
    snap->score_output(exact_scratch);
    snap->topk_exact(exact_scratch, 0, topk, exact_topk);
    const auto t2 = Clock::now();
    snap->forward_hidden(x, lsh_scratch);
    if (!snap->topk_lsh(0, topk, lsh_scratch, lsh_topk)) ++fallback_rows;
    const auto t3 = Clock::now();
    exact_us.push_back(us_between(t0, t2));
    lsh_us.push_back(us_between(t0, t1) + us_between(t2, t3));
    std::size_t hits = 0;
    for (const auto& e : exact_topk) {
      for (const auto& l : lsh_topk) {
        if (l.label == e.label) {
          ++hits;
          break;
        }
      }
    }
    recalls.push_back(static_cast<double>(hits) /
                      static_cast<double>(std::max<std::size_t>(1, topk)));
  }
  const double mean_recall = mean(recalls);
  const double min_recall =
      recalls.empty() ? 0.0 : *std::min_element(recalls.begin(), recalls.end());
  std::printf(
      "recall@%zu over %zu queries: mean %.4f min %.4f (%zu exact fallbacks)\n",
      topk, recall_queries, mean_recall, min_recall, fallback_rows);

  // --- phase 3: open-loop rate sweep on the final snapshot -----------------
  Sweep sweeps[2];
  sweeps[1].lsh = true;
  std::size_t failed = 0;
  for (auto& sw : sweeps) {
    sw.query_us = util::quantile(sw.lsh ? lsh_us : exact_us, 0.5);
    sw.saturation_qps =
        static_cast<double>(workers) * 1e6 / std::max(sw.query_us, 1e-3);
    scfg.use_lsh = sw.lsh;
    std::printf("%s: %.1fus per query, %zu workers saturate near %.0f qps\n",
                sw.path(), sw.query_us, workers, sw.saturation_qps);
    for (double rate = 500.0;; rate *= 2.0) {
      const auto n = std::clamp(
          static_cast<std::size_t>(rate * point_seconds), min_point_requests,
          max_point_requests);
      const Point p = run_traffic(store, scfg, queries, rate, n,
                                  seed ^ sw.points.size());
      print_point(sw.path(), p);
      sw.points.push_back(p);
      failed += p.failed;
      const bool late = p.late_p50_us > kMaxLateP50Us;
      if (!late && p.shed == 0 && p.failed == 0 &&
          p.p99_us <= static_cast<double>(latency_budget_us)) {
        sw.max_qps_within_budget = std::max(sw.max_qps_within_budget, rate);
      }
      if (rate >= 2.0 * sw.saturation_qps) {
        sw.stop = "saturation";
      } else if (late) {
        sw.stop = "generator";
      } else if (sw.points.size() >= max_points) {
        sw.stop = "points";
      } else {
        continue;
      }
      break;
    }
    std::printf("%s: highest rate within %lluus p99, nothing shed: %.0f qps "
                "(sweep stopped by %s)\n",
                sw.path(), static_cast<unsigned long long>(latency_budget_us),
                sw.max_qps_within_budget, sw.stop);
  }

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  out << "{\"bench\":\"serve\",\"smoke\":" << (smoke ? "true" : "false")
      << ",\"host\":{\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"isa\":\"" << vec::isa_name(vec::active_isa())
      << "\",\"build_type\":\"" << bench::build_type() << "\",\"git_sha\":\""
      << git_sha << "\"}"
      << ",\"gpus\":" << gpus << ",\"megabatches\":" << megabatches
      << ",\"workers\":" << workers << ",\"max_batch\":" << max_batch
      << ",\"latency_budget_us\":" << latency_budget_us
      << ",\"queue_cap\":" << queue_cap << ",\"topk\":" << topk
      << ",\"freshness\":";
  write_point(out, fresh);
  out << ",\"first_version\":" << fresh.first_version
      << ",\"last_version\":" << fresh.last_version << "}"
      << ",\"recall\":{\"queries\":" << recall_queries
      << ",\"mean\":" << mean_recall << ",\"min\":" << min_recall
      << ",\"exact_fallbacks\":" << fallback_rows << "},\"sweep\":[";
  for (const auto& sw : sweeps) {
    out << (&sw == sweeps ? "" : ",") << "{\"path\":\"" << sw.path()
        << "\",\"query_us\":" << sw.query_us
        << ",\"saturation_qps\":" << sw.saturation_qps << ",\"stop\":\""
        << sw.stop << "\",\"max_qps_within_budget\":"
        << sw.max_qps_within_budget << ",\"points\":[";
    for (const auto& p : sw.points) {
      out << (&p == sw.points.data() ? "" : ",");
      write_point(out, p);
      out << "}";
    }
    out << "]}";
  }
  out << "]}\n";
  std::printf("results written to %s\n", out_path.c_str());

  // Recall is an acceptance bar (>= 0.95 at the default L/K), so fail the
  // smoke test loudly rather than recording a silent regression; a failed
  // (not shed) request is a server fault at any rate.
  if (mean_recall < 0.95) {
    std::fprintf(stderr, "FAIL: mean recall %.4f < 0.95\n", mean_recall);
    return 1;
  }
  if (failed + fresh.failed > 0) {
    std::fprintf(stderr, "FAIL: %zu requests failed\n", failed + fresh.failed);
    return 1;
  }
  return 0;
}
