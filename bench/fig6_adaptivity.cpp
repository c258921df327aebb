// Figure 6: do batch size scaling and perturbation activate in practice?
//
//   (a) the evolution of every GPU's batch size across mega-batches:
//       initialized at b_max, fluctuating, then converging to a stable band
//       in which update counts equalize (fast GPUs hold larger batches).
//   (b) the activation frequency of weight perturbation in normalized model
//       merging: high, because replicas stay well-regularized.
#include <cstdio>

#include "bench_common.h"

using namespace hetero;

int main(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  const auto megabatches = args.get_size("megabatches", 16);
  const auto gpus = args.get_size("gpus", 4);
  if (args.report_unknown()) return 1;

  auto cfg = bench::bench_trainer_config(megabatches);
  const auto dataset = data::generate_xml_dataset(bench::bench_amazon());

  auto trainer = core::make_trainer(core::Method::kAdaptive, dataset, cfg,
                                    sim::v100_heterogeneous(gpus, 0.32));
  const auto result = trainer->train();

  std::printf("=== Figure 6a: batch size per GPU after every mega-batch ===\n");
  std::printf("(b_max = %zu, b_min = %zu, beta = %.0f)\n\n", cfg.batch_max,
              cfg.derived_batch_min(), cfg.derived_beta());
  std::printf("%-10s", "megabatch");
  for (std::size_t g = 0; g < gpus; ++g) std::printf("  gpu%zu-b", g);
  for (std::size_t g = 0; g < gpus; ++g) std::printf("  gpu%zu-u", g);
  std::printf("\n");
  const std::size_t rows = result.gpus[0].batch_size.size();
  util::CsvWriter csv("fig6_adaptivity.csv",
                      {"megabatch", "gpu", "batch_size", "updates"});
  for (std::size_t m = 0; m < rows; ++m) {
    std::printf("%-10zu", m + 1);
    for (std::size_t g = 0; g < gpus; ++g) {
      std::printf("  %6zu", result.gpus[g].batch_size[m]);
    }
    for (std::size_t g = 0; g < gpus; ++g) {
      std::printf("  %6zu", result.gpus[g].updates[m]);
      csv.row({std::to_string(m + 1), std::to_string(g),
               std::to_string(result.gpus[g].batch_size[m]),
               std::to_string(result.gpus[g].updates[m])});
    }
    std::printf("\n");
  }

  std::printf("\n=== Figure 6b: perturbation activation ===\n");
  std::printf("merges: %zu, perturbed: %zu, frequency: %.1f%%  "
              "(paper: very high frequency)\n",
              result.merges, result.perturbed_merges,
              100.0 * result.perturbation_frequency());
  std::printf("mega-batches where batch size scaling moved at least one GPU: "
              "%zu / %zu\n",
              result.scaling_updates, result.merges);

  std::printf("\nfinal accuracy: top1 %.2f%% after %.4fs virtual time\n",
              100.0 * result.final_top1(), result.total_vtime);
  std::printf("series written to fig6_adaptivity.csv\n");
  return 0;
}
