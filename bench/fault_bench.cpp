// Fault-tolerance benchmark: time-to-accuracy under elastic membership.
//
// Trains the adaptive trainer three times on the same dataset, seed, and
// hyperparameters:
//
//   healthy      — no faults
//   one-crash    — one replica crashes ~35% into the healthy run's span and
//                  never returns; survivors absorb its share of the merge
//   crash-rejoin — the same crash, but the replica rejoins ~65% in, seeded
//                  from the global model with a reset update count
//
// and reports best top-1, time-to-accuracy at a shared target, and the fault
// counters for each. Results are written to BENCH_fault.json (override with
// --out). The interesting comparison is the degradation ordering: healthy
// <= crash-rejoin <= one-crash in time-to-accuracy, with the rejoin run
// recovering most of the crash's slowdown.
//
//   ./build/bench/fault_bench            # full shapes
//   ./build/bench/fault_bench --smoke    # tiny shapes for CI (fault-smoke)
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/adaptive_sgd.h"
#include "core/result_io.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "sim/profiles.h"

using namespace hetero;

namespace {

struct NamedRun {
  std::string name;
  core::TrainResult result;
};

core::TrainResult run_with_plan(const data::XmlDataset& dataset,
                                const core::TrainerConfig& cfg,
                                std::size_t gpus,
                                const fault::FaultPlan& plan) {
  core::AdaptiveSgdTrainer trainer(dataset, cfg,
                                   sim::v100_heterogeneous(gpus));
  if (!plan.empty()) fault::FaultInjector(plan).arm(trainer.runtime());
  return trainer.train();
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  const bool smoke = args.get_bool("smoke", false);
  const auto gpus = args.get_size("gpus", 4);
  const auto out_path = args.get_string("out", "BENCH_fault.json");
  if (args.report_unknown()) return 1;

  auto data_cfg = bench::bench_amazon();
  auto cfg = bench::bench_trainer_config(8);
  cfg.learning_rate = 0.25;
  if (smoke) {
    data_cfg.num_train = 3'000;
    data_cfg.num_test = 600;
    cfg.num_megabatches = 4;
    cfg.batches_per_megabatch = 10;
    cfg.batch_max = 64;
    cfg.eval_samples = 300;
  }
  const auto dataset = data::generate_xml_dataset(data_cfg);

  // Healthy baseline first: its span places the crash and rejoin times.
  std::vector<NamedRun> runs;
  runs.push_back(
      {"healthy", run_with_plan(dataset, cfg, gpus, fault::FaultPlan{})});
  const double span = runs[0].result.total_vtime;
  const double crash_at = 0.35 * span;
  const double rejoin_at = 0.65 * span;

  fault::FaultPlan crash_only;
  crash_only.events.push_back(
      {fault::FaultKind::kCrash, 1, crash_at, 0.0, 1.0, 0});
  runs.push_back({"one-crash", run_with_plan(dataset, cfg, gpus, crash_only)});

  fault::FaultPlan crash_rejoin = crash_only;
  crash_rejoin.events.push_back(
      {fault::FaultKind::kJoin, 1, rejoin_at, 0.0, 1.0, 0});
  runs.push_back(
      {"crash-rejoin", run_with_plan(dataset, cfg, gpus, crash_rejoin)});

  // Shared accuracy target: 90% of the worst run's best top-1, so every run
  // reaches it and the virtual-time ordering is meaningful.
  double min_best = 1.0;
  for (const auto& r : runs) min_best = std::min(min_best, r.result.best_top1());
  const double target = 0.9 * min_best;

  std::printf("\n%-14s %10s %10s %12s %8s %8s %10s\n", "scenario",
              "best top1", "final(s)", "tta(s)", "crashes", "joins",
              "degr.merges");
  for (const auto& r : runs) {
    const auto tta = r.result.time_to_accuracy(target);
    std::printf("%-14s %9.2f%% %10.4f %12s %8zu %8zu %10zu\n", r.name.c_str(),
                100 * r.result.best_top1(), r.result.total_vtime,
                tta ? std::to_string(*tta).c_str() : "never",
                r.result.faults.crashes, r.result.faults.joins,
                r.result.faults.degraded_merges);
  }
  std::printf("(target top1 = %.2f%%; crash at %.4fs, rejoin at %.4fs)\n",
              100 * target, crash_at, rejoin_at);

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  out << "{\"bench\":\"fault\",\"gpus\":" << gpus
      << ",\"target_top1\":" << target << ",\"crash_at\":" << crash_at
      << ",\"rejoin_at\":" << rejoin_at << ",\"runs\":[";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (i > 0) out << ',';
    out << "{\"scenario\":\"" << runs[i].name << "\",";
    const auto tta = runs[i].result.time_to_accuracy(target);
    out << "\"tta\":" << (tta ? std::to_string(*tta) : "null") << ",";
    out << "\"result\":";
    core::write_result_json(out, runs[i].result);
    out << '}';
  }
  out << "]}\n";
  std::printf("results written to %s\n", out_path.c_str());
  return 0;
}
