// Figure 1: multi-GPU heterogeneity on training a deep learning model with
// an IDENTICAL batch of sparse data.
//
// Replays the paper's measurement: the same batch is executed as one SGD
// epoch on each of the 4 simulated V100s, many times; the per-GPU epoch-time
// distributions show a fastest-to-slowest gap of up to ~32%. A homogeneous
// profile (jitter only) is included to separate the two heterogeneity
// sources.
#include <cstdio>

#include "bench_common.h"
#include "nn/model.h"
#include "sim/virtual_gpu.h"
#include "util/stats.h"

using namespace hetero;

namespace {

void run_profile(const char* name, std::vector<sim::DeviceSpec> specs,
                 const data::XmlDataset& dataset,
                 const core::TrainerConfig& cfg) {
  const nn::Model model(dataset.train.features.cols(), {cfg.hidden},
                       dataset.train.labels.cols());

  // One identical batch for every GPU and every trial.
  const auto batch = dataset.train.features.slice_rows(0, cfg.batch_max);
  auto kernels = model.step_kernels(batch);
  for (auto& k : kernels) {
    k.flops *= cfg.compute_scale;
    k.bytes *= cfg.compute_scale;
  }

  constexpr int kTrials = 200;
  std::printf("\n--- %s (batch=%zu, nnz=%zu, %d trials) ---\n", name,
              batch.rows(), batch.nnz(), kTrials);
  std::printf("  %-12s %10s %10s %10s %8s\n", "gpu", "mean(ms)", "min(ms)",
              "max(ms)", "stddev");

  std::vector<double> means;
  util::Rng seeder(cfg.seed);
  for (std::size_t g = 0; g < specs.size(); ++g) {
    sim::VirtualGpu gpu(static_cast<int>(g), specs[g], seeder.next_u64());
    util::RunningStats stats;
    double t = 0.0;
    for (int trial = 0; trial < kTrials; ++trial) {
      const double finish = gpu.submit(0, kernels, t, cfg.fused_kernels,
                                       specs.size());
      stats.add((finish - t) * 1e3);
      t = finish;
    }
    means.push_back(stats.mean());
    std::printf("  gpu%-9zu %10.4f %10.4f %10.4f %8.4f\n", g, stats.mean(),
                stats.min(), stats.max(), stats.stddev());
  }
  std::printf("  fastest-to-slowest epoch-time gap: %.1f%%  (paper: up to 32%%)\n",
              100.0 * util::relative_spread(means));
}

}  // namespace

int main() {
  std::printf("=== Figure 1: per-GPU epoch time on an identical sparse batch ===\n");
  const auto cfg = bench::bench_trainer_config();
  const auto dataset = data::generate_xml_dataset(bench::bench_amazon());

  run_profile("heterogeneous V100 server (static spread + jitter)",
              sim::v100_heterogeneous(4, 0.32, 0.03), dataset, cfg);
  run_profile("homogeneous V100 server (jitter only)",
              sim::v100_homogeneous(4, 0.03), dataset, cfg);
  run_profile("heterogeneous, jitter disabled (static spread only)",
              sim::v100_heterogeneous(4, 0.32, 0.0), dataset, cfg);
  return 0;
}
