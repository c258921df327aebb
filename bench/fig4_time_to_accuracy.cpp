// Figure 4: time-to-accuracy for a given number of GPUs.
//
// For each dataset (Amazon-670k-shaped, Delicious-200k-shaped) and each GPU
// configuration {1, 2, 4}, trains all four methods — Adaptive SGD, Elastic
// SGD, TensorFlow-style synchronous gradient aggregation, CROSSBOW-style
// synchronous model averaging — on identical sample budgets and identical
// initial models, and prints top-1 accuracy after every mega-batch against
// virtual wall-clock. (On a single GPU Adaptive and Elastic are the same
// algorithm; both are run to confirm the curves coincide.)
//
// Expected shape (paper): Adaptive reaches the highest accuracy in the
// shortest time in every configuration; TensorFlow is the slowest (slower
// epochs + per-batch global updates); CROSSBOW is dataset-sensitive.
//
// Series are also written to fig4_time_to_accuracy.csv for plotting.
#include <cstdio>
#include <map>
#include <vector>

#include "bench_common.h"

using namespace hetero;

int main(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  const auto megabatches = args.get_size("megabatches", 6);
  const bool quick = args.get_bool("quick", false);
  if (args.report_unknown()) return 1;

  auto cfg = bench::bench_trainer_config(megabatches);
  if (quick) {
    cfg.num_megabatches = 3;
    cfg.batches_per_megabatch = 20;
  }

  util::CsvWriter csv("fig4_time_to_accuracy.csv",
                      {"dataset", "method", "gpus", "vtime", "samples",
                       "passes", "top1", "test_loss"});

  const std::vector<std::pair<data::SyntheticXmlConfig, double>> datasets = {
      {bench::bench_amazon(), 0.25}, {bench::bench_delicious(), 0.25}};
  const std::vector<std::size_t> gpu_configs{1, 2, 4};
  const std::vector<core::Method> methods{
      core::Method::kAdaptive, core::Method::kElastic, core::Method::kSync,
      core::Method::kCrossbow};

  for (const auto& [data_cfg, lr] : datasets) {
    const auto dataset = data::generate_xml_dataset(data_cfg);
    std::printf("\n=== Figure 4: %s ===\n", dataset.name.c_str());
    for (const auto gpus : gpu_configs) {
      std::printf("\n--- %zu GPU(s) ---\n", gpus);
      std::map<std::string, core::TrainResult> results;
      for (const auto method : methods) {
        auto run_cfg = cfg;
        run_cfg.learning_rate = lr;
        auto trainer = core::make_trainer(method, dataset, run_cfg,
                                          sim::v100_heterogeneous(gpus));
        auto result = trainer->train();
        bench::append_curve_csv(csv, result);
        bench::print_curve(result);
        results[result.method] = std::move(result);
      }

      // Summary: best accuracy and time-to-target per method.
      double min_best = 1.0;
      for (const auto& [name, r] : results) {
        min_best = std::min(min_best, r.best_top1());
      }
      const double target = 0.8 * min_best;
      std::printf("\n  summary (target top1 = %.1f%%):\n", 100 * target);
      std::printf("  %-14s %10s %10s %12s\n", "method", "best top1",
                  "final(s)", "tta(s)");
      for (const auto& [name, r] : results) {
        const auto tta = r.time_to_accuracy(target);
        std::printf("  %-14s %9.2f%% %10.4f %12s\n", name.c_str(),
                    100 * r.best_top1(), r.total_vtime,
                    tta ? std::to_string(*tta).c_str() : "never");
      }
    }
  }
  std::printf("\nseries written to fig4_time_to_accuracy.csv\n");
  return 0;
}
