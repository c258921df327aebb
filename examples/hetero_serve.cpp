// Online inference serving CLI: train-while-serve or serve-from-file.
//
//   # Train-while-serve: adaptive training publishes a snapshot at every
//   # merge boundary; queries are answered live against the newest version.
//   ./build/examples/hetero_serve --megabatches 4 --requests 200 --qps 2000
//
//   # SLIDE top-k (LSH candidates instead of a full output-layer scan):
//   ./build/examples/hetero_serve --lsh --topk 10
//
//   # Standalone serving from a file: an HGCK training checkpoint
//   # (hetero_train --checkpoint-every) or an HGPU model dump.
//   ./build/examples/hetero_serve --snapshot-from-checkpoint run.ckpt
//
//   # Dump the final snapshot for later standalone serving:
//   ./build/examples/hetero_serve --dump-snapshot model.hgpu
//
// A free worker serves the whole queued backlog (up to --max-batch) as one
// wave at once; it never holds a request to wait for more. Past
// --queue-cap, requests are shed with --latency-budget-us as their
// retry_after_us hint.
//
// Queries are test-split rows of the same synthetic XML dataset the
// training stack uses. Exit codes follow hetero_train: 2 = bad input
// (ParseError), 3 = internal error.
#include <chrono>
#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "core/adaptive_sgd.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "sim/profiles.h"
#include "tensor/vec/vec.h"
#include "util/cli.h"
#include "util/error.h"
#include "util/stats.h"

using namespace hetero;

namespace {

int run(int argc, char** argv);

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const ParseError& e) {
    std::fprintf(stderr, "hetero_serve: invalid input: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hetero_serve: internal error: %s\n", e.what());
    return 3;
  }
}

namespace {

serve::Request make_request(const sparse::CsrMatrix& features,
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

int run(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  vec::set_isa_from_string(args.get_string("isa", ""));
  const auto snapshot_file = args.get_string("snapshot-from-checkpoint", "");
  const auto topk = args.get_size("topk", 5);
  const bool use_lsh = args.get_bool("lsh", false);
  const auto workers = args.get_size("workers", 2);
  const auto latency_budget_us =
      static_cast<std::uint64_t>(args.get_size("latency-budget-us", 2000));
  const auto max_batch = args.get_size("max-batch", 8);
  const auto queue_cap = args.get_size("queue-cap", 1024);
  const auto num_requests = args.get_size("requests", 200);
  const auto qps = args.get_double("qps", 2000.0);
  const auto megabatches = args.get_size("megabatches", 4);
  const auto gpus = args.get_size("gpus", 3);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 12345));
  const auto dump_snapshot = args.get_string("dump-snapshot", "");
  if (args.report_unknown()) return 1;

  // Same synthetic workload as hetero_train, so a checkpoint from a training
  // run serves the dataset it was trained on.
  auto data_cfg = data::amazon670k_small();
  data_cfg.num_features = 4096;
  data_cfg.num_classes = 1024;
  data_cfg.num_train = 8000;
  data_cfg.num_test = 1600;
  data_cfg.seed = seed;
  const auto dataset = data::generate_xml_dataset(data_cfg);
  const auto& queries = dataset.test.features;

  serve::SnapshotStore store;
  std::unique_ptr<core::Trainer> trainer;
  std::thread training;

  if (!snapshot_file.empty()) {
    const auto snap = store.publish_from_file(snapshot_file);
    std::printf("serving from %s: version %llu, vtime %.4fs\n",
                snapshot_file.c_str(),
                static_cast<unsigned long long>(snap->version()),
                snap->vtime());
  } else {
    core::TrainerConfig cfg;
    cfg.num_megabatches = megabatches;
    cfg.seed = seed;
    trainer = core::make_trainer(core::Method::kAdaptive, dataset, cfg,
                                 sim::v100_heterogeneous(gpus, 0.32));
    // Serve the initial model until the first merge boundary replaces it.
    store.publish(trainer->runtime().global_model(), 0.0);
    trainer->runtime().set_publish_hook(
        [&store](const nn::Model& m, double vtime) {
          store.publish(m, vtime);
        });
    training = std::thread([&trainer] { trainer->train(); });
    std::printf("train-while-serve: %zu megabatches on %zu GPUs\n",
                megabatches, gpus);
  }

  serve::ServerConfig scfg;
  scfg.workers = workers;
  scfg.max_batch = max_batch;
  scfg.queue_cap = queue_cap;
  scfg.latency_budget_us = latency_budget_us;
  scfg.topk = topk;
  scfg.use_lsh = use_lsh;
  serve::Server server(store, scfg);

  const auto interarrival =
      qps > 0.0 ? std::chrono::duration<double>(1.0 / qps)
                : std::chrono::duration<double>(0.0);
  std::vector<std::future<serve::Response>> futures;
  futures.reserve(num_requests);
  auto next_send = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < num_requests; ++r) {
    if (qps > 0.0) {
      std::this_thread::sleep_until(next_send);
      next_send += std::chrono::duration_cast<
          std::chrono::steady_clock::duration>(interarrival);
    }
    futures.push_back(
        server.submit(make_request(queries, r % queries.rows())));
  }

  std::vector<double> latencies_us;
  std::vector<serve::Response> sample;
  std::size_t shed = 0;
  std::uint64_t last_version = 0;
  for (auto& f : futures) {
    auto resp = f.get();
    if (resp.shed) {
      ++shed;
      continue;
    }
    latencies_us.push_back(static_cast<double>(resp.service_us));
    last_version = resp.snapshot_version;
    if (sample.size() < 3) sample.push_back(std::move(resp));
  }

  if (training.joinable()) training.join();
  server.stop();

  for (std::size_t i = 0; i < sample.size(); ++i) {
    std::printf("sample %zu (version %llu, wave %zu, %s):", i,
                static_cast<unsigned long long>(sample[i].snapshot_version),
                sample[i].wave_size,
                sample[i].lsh_path ? "lsh"
                : sample[i].lsh_fallback ? "lsh-fallback"
                                         : "exact");
    for (const auto& s : sample[i].topk) {
      std::printf(" %u:%.3f", s.label, s.score);
    }
    std::printf("\n");
  }

  const auto stats = server.stats();
  std::printf(
      "served %llu / %zu (shed %zu), waves %llu, mean wave %.2f\n",
      static_cast<unsigned long long>(stats.served), num_requests, shed,
      static_cast<unsigned long long>(stats.waves),
      stats.waves > 0 ? static_cast<double>(stats.served) /
                            static_cast<double>(stats.waves)
                      : 0.0);
  if (!latencies_us.empty()) {
    std::printf("latency p50 %.0fus p99 %.0fus\n",
                util::quantile(latencies_us, 0.5),
                util::quantile(latencies_us, 0.99));
  }
  if (use_lsh) {
    std::printf("lsh rows %llu, fallback rows %llu\n",
                static_cast<unsigned long long>(stats.lsh_rows),
                static_cast<unsigned long long>(stats.lsh_fallback_rows));
  }
  std::printf("final snapshot version %llu\n",
              static_cast<unsigned long long>(last_version));

  if (!dump_snapshot.empty()) {
    store.dump_current(dump_snapshot);
    std::printf("snapshot dumped to %s\n", dump_snapshot.c_str());
  }
  return 0;
}

}  // namespace
