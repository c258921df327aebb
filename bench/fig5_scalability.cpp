// Figure 5: scalability of Adaptive SGD vs the SLIDE CPU baseline — now
// including the multi-node hierarchy.
//
//   (a) time-to-accuracy: Adaptive SGD on {1, 2, 4} GPUs and SLIDE on the
//       32-thread CPU, same sample budget, accuracy vs virtual wall-clock.
//   (b) statistical efficiency: the same runs plotted against data passes
//       ("epochs") instead of time.
//   (c) node-count series: the same GPU budget spread over {1, 2, 4} nodes
//       (two-level merge: intra-node ring + chunked inter-node ring), plus
//       a 2-node cluster with a slow CPU compute replica absorbed by the
//       adaptive batch scaler.
//
// Expected shape (paper + hierarchy): every GPU configuration beats SLIDE
// on time-to-accuracy; more GPUs => faster. Spreading a fixed GPU budget
// across nodes keeps accuracy bit-identical (the merged model does not
// depend on topology) while comm time grows with the network crossings.
//
// --smoke runs a tiny single-dataset shape for CI.
#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"

using namespace hetero;

namespace {

struct NodeSweepPoint {
  std::size_t nodes = 1;
  std::size_t gpus_per_node = 1;
  std::size_t cpu_replicas = 0;
};

void append_rows(util::CsvWriter& csv, const core::TrainResult& r) {
  for (const auto& p : r.curve) {
    csv.row({r.dataset, r.method, std::to_string(r.num_gpus),
             std::to_string(r.num_nodes), std::to_string(r.cpu_replicas),
             std::to_string(p.vtime), std::to_string(p.samples),
             std::to_string(p.passes), std::to_string(p.top1),
             std::to_string(p.test_loss)});
  }
}

std::string label_of(const core::TrainResult& r) {
  if (r.method == "slide-cpu") return "slide-cpu(32t)";
  std::string label = r.method + "x" + std::to_string(r.num_gpus);
  if (r.num_nodes > 1) label += "@" + std::to_string(r.num_nodes) + "n";
  if (r.cpu_replicas > 0) label += "+cpu";
  return label;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  const bool smoke = args.get_bool("smoke", false);
  const auto megabatches = args.get_size("megabatches", smoke ? 3 : 8);
  if (args.report_unknown()) return 1;

  util::CsvWriter csv("fig5_scalability.csv",
                      {"dataset", "method", "gpus", "nodes", "cpus", "vtime",
                       "samples", "passes", "top1", "test_loss"});

  std::vector<std::pair<data::SyntheticXmlConfig, double>> datasets = {
      {bench::bench_amazon(), 0.25}};
  if (!smoke) datasets.push_back({bench::bench_delicious(), 0.25});

  const std::vector<std::size_t> gpu_counts =
      smoke ? std::vector<std::size_t>{1, 2} : std::vector<std::size_t>{1, 2, 4};
  // Fixed GPU budget spread over more nodes, plus a CPU-replica cluster.
  const std::vector<NodeSweepPoint> node_sweep =
      smoke ? std::vector<NodeSweepPoint>{{1, 2, 0}, {2, 1, 0}, {2, 1, 1}}
            : std::vector<NodeSweepPoint>{
                  {1, 4, 0}, {2, 2, 0}, {4, 1, 0}, {2, 2, 1}};

  for (const auto& [data_cfg, lr] : datasets) {
    const auto dataset = data::generate_xml_dataset(data_cfg);
    std::printf("\n=== Figure 5: %s ===\n", dataset.name.c_str());

    std::vector<core::TrainResult> results;
    for (const std::size_t gpus : gpu_counts) {
      auto cfg = bench::bench_trainer_config(megabatches);
      cfg.learning_rate = lr;
      auto trainer = core::make_trainer(core::Method::kAdaptive, dataset, cfg,
                                        sim::v100_heterogeneous(gpus));
      results.push_back(trainer->train());
    }
    if (!smoke) {
      auto gpu_cfg = bench::bench_trainer_config(megabatches);
      gpu_cfg.learning_rate = lr;
      auto slide_cfg =
          bench::bench_slide_config(gpu_cfg, dataset.train.labels.cols());
      results.push_back(slide::SlideTrainer(dataset, slide_cfg).train());
    }
    // (c) node-count series: same adaptive method over the hierarchy.
    for (const auto& point : node_sweep) {
      auto cfg = bench::bench_trainer_config(megabatches);
      cfg.learning_rate = lr;
      cfg.num_nodes = point.nodes;
      cfg.cpu_replicas = point.cpu_replicas;
      // The CPU replica is 10-50x slower; give Algorithm 1 a batch floor
      // deep enough to absorb it.
      if (point.cpu_replicas > 0) cfg.batch_min = 4;
      auto trainer = core::make_trainer(
          core::Method::kAdaptive, dataset, cfg,
          sim::cluster_devices(point.nodes, point.gpus_per_node,
                               point.cpu_replicas));
      results.push_back(trainer->train());
    }

    std::printf("\n(a) time-to-accuracy        (b) statistical efficiency\n");
    for (const auto& r : results) {
      append_rows(csv, r);
      std::printf("\n  %s:\n", label_of(r).c_str());
      std::printf("    %10s %8s %8s\n", "vtime(s)", "passes", "top1");
      for (const auto& p : r.curve) {
        std::printf("    %10.4f %8.2f %7.2f%%\n", p.vtime, p.passes,
                    100.0 * p.top1);
      }
    }

    // Summary: time and passes to a shared accuracy target, plus the comm
    // cost the topology imposed.
    double min_best = 1.0;
    for (const auto& r : results) min_best = std::min(min_best, r.best_top1());
    const double target = 0.8 * min_best;
    std::printf("\n  summary (target top1 = %.1f%%):\n", 100 * target);
    std::printf("  %-20s %12s %14s %10s\n", "config", "tta(s)",
                "passes-to-acc", "comm(s)");
    for (const auto& r : results) {
      const auto tta = r.time_to_accuracy(target);
      const auto pta = r.passes_to_accuracy(target);
      std::printf("  %-20s %12s %14s %10.4f\n", label_of(r).c_str(),
                  tta ? std::to_string(*tta).c_str() : "never",
                  pta ? std::to_string(*pta).c_str() : "never",
                  r.comm_seconds);
    }
  }
  std::printf("\nseries written to fig5_scalability.csv\n");
  return 0;
}
