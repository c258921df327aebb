// Online-serving benchmark: train-while-serve under Poisson traffic.
//
// Phase 1 (traffic): an adaptive training run publishes a snapshot at every
// merge boundary while a client thread fires test-row queries at the server
// with exponential interarrival times (Poisson process at --qps). Records
// p50/p99 service latency, achieved QPS, queue/wave shape, sheds, and the
// model-freshness lag observed per response.
//
// Phase 2 (recall): on the final snapshot, every recall-probe query is
// answered twice — exact output-layer scan and SLIDE LSH candidates — and
// scored as |exact ∩ lsh| / k. This is measured single-threaded after the
// traffic run so the number is deterministic for a given model state.
//
// Results land in BENCH_serve.json (override with --out).
//
//   ./build-bench/bench/serve_bench            # full shapes
//   ./build-bench/bench/serve_bench --smoke    # tiny shapes for CI
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/adaptive_sgd.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "sim/profiles.h"
#include "util/stats.h"

using namespace hetero;

namespace {

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

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  const bool smoke = args.get_bool("smoke", false);
  const auto out_path = args.get_string("out", "BENCH_serve.json");
  const auto qps = args.get_double("qps", 4000.0);
  auto requests = args.get_size("requests", 4000);
  const auto workers = args.get_size("workers", 4);
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

  auto data_cfg = bench::bench_amazon();
  auto cfg = bench::bench_trainer_config(megabatches);
  if (smoke) {
    data_cfg.num_train = 3'000;
    data_cfg.num_test = 600;
    cfg.num_megabatches = megabatches = 3;
    cfg.batches_per_megabatch = 10;
    cfg.batch_max = 64;
    cfg.eval_samples = 300;
    requests = std::min<std::size_t>(requests, 400);
    recall_queries = std::min<std::size_t>(recall_queries, 64);
  }
  data_cfg.seed = seed;
  cfg.seed = seed;
  const auto dataset = data::generate_xml_dataset(data_cfg);
  const auto& queries = dataset.test.features;

  // --- phase 1: train-while-serve under Poisson traffic --------------------
  serve::SnapshotStore store;
  core::AdaptiveSgdTrainer trainer(dataset, cfg,
                                   sim::v100_heterogeneous(gpus, 0.32));
  store.publish(trainer.runtime().global_model(), 0.0);
  trainer.runtime().set_publish_hook(
      [&store](const nn::Model& m, double vtime) { store.publish(m, vtime); });

  serve::ServerConfig scfg;
  scfg.workers = workers;
  scfg.max_batch = max_batch;
  scfg.queue_cap = queue_cap;
  scfg.latency_budget_us = latency_budget_us;
  scfg.topk = topk;
  scfg.use_lsh = false;  // exact path under traffic; LSH measured in phase 2
  serve::Server server(store, scfg);

  std::thread training([&trainer] { trainer.train(); });

  util::Rng traffic_rng(seed ^ 0x5e57e);
  std::vector<std::future<serve::Response>> futures;
  futures.reserve(requests);
  const auto traffic_start = std::chrono::steady_clock::now();
  auto next_send = traffic_start;
  for (std::size_t r = 0; r < requests; ++r) {
    // Exponential interarrival: a Poisson arrival process at `qps`.
    const double gap_s =
        -std::log(1.0 - traffic_rng.next_double()) / std::max(qps, 1.0);
    next_send += std::chrono::duration_cast<
        std::chrono::steady_clock::duration>(
        std::chrono::duration<double>(gap_s));
    std::this_thread::sleep_until(next_send);
    futures.push_back(server.submit(row_request(queries, r % queries.rows())));
  }

  std::vector<double> service_us, queue_us, freshness, wave_sizes;
  std::uint64_t first_version = 0, last_version = 0;
  std::size_t shed = 0;
  for (auto& f : futures) {
    const auto resp = f.get();
    if (resp.shed) {
      ++shed;
      continue;
    }
    if (first_version == 0) first_version = resp.snapshot_version;
    last_version = resp.snapshot_version;
    service_us.push_back(static_cast<double>(resp.service_us));
    queue_us.push_back(static_cast<double>(resp.queue_us));
    freshness.push_back(resp.freshness_lag);
    wave_sizes.push_back(static_cast<double>(resp.wave_size));
  }
  const double traffic_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    traffic_start)
          .count();
  training.join();
  server.stop();
  const auto stats = server.stats();

  const double p50 = util::quantile(service_us, 0.5);
  const double p99 = util::quantile(service_us, 0.99);
  const double achieved_qps =
      traffic_seconds > 0.0
          ? static_cast<double>(service_us.size()) / traffic_seconds
          : 0.0;
  const double max_freshness =
      freshness.empty() ? 0.0
                        : *std::max_element(freshness.begin(), freshness.end());

  std::printf(
      "traffic: %zu served, %zu shed, p50 %.0fus p99 %.0fus, %.0f qps "
      "achieved (%.0f offered), mean wave %.2f, versions %llu..%llu\n",
      service_us.size(), shed, p50, p99, achieved_qps, qps,
      mean(wave_sizes), static_cast<unsigned long long>(first_version),
      static_cast<unsigned long long>(last_version));
  std::printf("freshness lag: mean %.4fs max %.4fs (virtual time)\n",
              mean(freshness), max_freshness);

  // --- phase 2: exact-vs-LSH top-k recall on the final snapshot ------------
  const auto snap = store.current();
  serve::QueryScratch exact_scratch, lsh_scratch;
  std::vector<serve::ScoredLabel> exact_topk, lsh_topk;
  std::vector<double> recalls;
  std::size_t fallback_rows = 0;
  for (std::size_t q = 0; q < recall_queries; ++q) {
    const std::size_t row = q % queries.rows();
    sparse::CsrBuilder builder(queries.cols());
    builder.add_row(row_request(queries, row).features);
    const auto x = builder.build();
    snap->forward_hidden(x, exact_scratch);
    snap->score_output(exact_scratch);
    snap->topk_exact(exact_scratch, 0, topk, exact_topk);
    snap->forward_hidden(x, lsh_scratch);
    if (!snap->topk_lsh(0, topk, lsh_scratch, lsh_topk)) ++fallback_rows;
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

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  out << "{\"bench\":\"serve\",\"smoke\":" << (smoke ? "true" : "false")
      << ",\"gpus\":" << gpus << ",\"megabatches\":" << megabatches
      << ",\"workers\":" << workers << ",\"max_batch\":" << max_batch
      << ",\"latency_budget_us\":" << latency_budget_us
      << ",\"queue_cap\":" << queue_cap << ",\"topk\":" << topk
      << ",\"offered_qps\":" << qps << ",\"requests\":" << requests
      << ",\"traffic\":{\"served\":" << service_us.size()
      << ",\"shed\":" << shed << ",\"p50_us\":" << p50
      << ",\"p99_us\":" << p99 << ",\"queue_p50_us\":"
      << util::quantile(queue_us, 0.5)
      << ",\"achieved_qps\":" << achieved_qps
      << ",\"mean_wave\":" << mean(wave_sizes)
      << ",\"waves\":" << stats.waves
      << ",\"first_version\":" << first_version
      << ",\"last_version\":" << last_version
      << ",\"freshness_mean_vs\":" << mean(freshness)
      << ",\"freshness_max_vs\":" << max_freshness << "}"
      << ",\"recall\":{\"queries\":" << recall_queries
      << ",\"mean\":" << mean_recall << ",\"min\":" << min_recall
      << ",\"exact_fallbacks\":" << fallback_rows << "}}\n";
  std::printf("results written to %s\n", out_path.c_str());

  // Recall is an acceptance bar (>= 0.95 at the default L/K), so fail the
  // smoke test loudly rather than recording a silent regression.
  if (mean_recall < 0.95) {
    std::fprintf(stderr, "FAIL: mean recall %.4f < 0.95\n", mean_recall);
    return 1;
  }
  return 0;
}
