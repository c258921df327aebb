// Quickstart: train the paper's MLP on a synthetic XML dataset with
// Adaptive SGD on 4 simulated heterogeneous V100s, and compare against
// Elastic SGD.
//
//   ./build/examples/quickstart [--megabatches 6] [--gpus 4] [--seed 42]
//
// Prints the accuracy curve (virtual time vs top-1) for both methods and
// the per-GPU batch-size evolution of Adaptive SGD.
#include <cstdio>
#include <iostream>

#include "core/trainer.h"
#include "data/dataset_stats.h"
#include "data/synthetic.h"
#include "sim/profiles.h"
#include "util/cli.h"

using namespace hetero;

int main(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  const auto megabatches = args.get_size("megabatches", 6);
  const auto num_gpus = args.get_size("gpus", 4);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  if (args.report_unknown()) return 1;

  // A small dataset so the example runs in seconds.
  auto data_cfg = data::tiny_profile();
  data_cfg.num_train = 4000;
  data_cfg.num_classes = 128;
  data_cfg.num_features = 1024;
  data_cfg.seed = seed;
  const auto dataset = data::generate_xml_dataset(data_cfg);

  data::print_stats_header(std::cout);
  data::print_stats_row(std::cout, data::compute_stats(dataset));

  core::TrainerConfig cfg;
  cfg.hidden = 32;
  cfg.batch_max = 64;
  cfg.batches_per_megabatch = 20;
  cfg.num_megabatches = megabatches;
  cfg.learning_rate = 0.5;
  // The tiny model is ~400x smaller than the paper's workload; restore the
  // realistic compute-to-launch-overhead ratio (see TrainerConfig docs).
  cfg.compute_scale = 400.0;
  cfg.seed = seed;

  const auto devices = sim::v100_heterogeneous(num_gpus);

  for (const auto method : {core::Method::kAdaptive, core::Method::kElastic}) {
    auto trainer = core::make_trainer(method, dataset, cfg, devices);
    const auto result = trainer->train();

    std::printf("\n=== %s on %zu GPUs ===\n", result.method.c_str(),
                result.num_gpus);
    std::printf("%10s %10s %8s %8s\n", "vtime(s)", "samples", "top1", "top5");
    for (const auto& p : result.curve) {
      std::printf("%10.4f %10zu %7.1f%% %7.1f%%\n", p.vtime, p.samples,
                  100.0 * p.top1, 100.0 * p.top5);
    }
    std::printf("total vtime %.4fs, comm %.4fs, perturbation freq %.0f%%\n",
                result.total_vtime, result.comm_seconds,
                100.0 * result.perturbation_frequency());
    if (method == core::Method::kAdaptive) {
      std::printf("batch sizes per mega-batch:\n");
      for (std::size_t g = 0; g < result.gpus.size(); ++g) {
        std::printf("  gpu%zu:", g);
        for (auto b : result.gpus[g].batch_size) std::printf(" %4zu", b);
        std::printf("  (updates:");
        for (auto u : result.gpus[g].updates) std::printf(" %3zu", u);
        std::printf(")\n");
      }
    }
  }
  return 0;
}
