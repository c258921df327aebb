// Ablation study over Adaptive SGD's design choices (DESIGN.md experiment
// A1): each of the paper's mechanisms is disabled or varied in isolation on
// the 4-GPU heterogeneous server, holding everything else fixed.
//
//   - dynamic scheduling off  -> static round-robin dispatch
//   - batch size scaling off  -> fixed b_max everywhere (update-count skew
//                                persists; merging must compensate)
//   - perturbation off        -> Algorithm 2 without the (1 +/- delta) push
//   - momentum off            -> plain weighted-average global update
//   - kernel fusion off       -> every primitive kernel pays launch overhead
//   - beta sweep              -> Algorithm 1 step size
//   - mega-batch size sweep   -> merge frequency
//
// Plus the optimizer ablation (DESIGN.md §11): time-to-accuracy over the
// {sgd, adam, adamw, adagrad} x {average, keep, reset moment-merge} x
// {dense, sparse merge} grid at per-optimizer tuned learning rates, written
// to BENCH_ablation.json (override with --out). The shared accuracy target
// is derived from the SGD baseline, so each stateful optimizer's TTA reads
// directly as "how much sooner (or later) than SGD it reaches SGD-grade
// accuracy".
//
//   ./build/bench/ablation_bench           # full text tables + TTA grid
//   ./build/bench/ablation_bench --smoke   # tiny TTA grid only (bench-smoke)
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/result_io.h"

using namespace hetero;

namespace {

void report(const char* label, const core::TrainResult& r) {
  std::printf("  %-28s | %9.4fs | best %6.2f%% | final %6.2f%% | pert %5.1f%%\n",
              label, r.total_vtime, 100 * r.best_top1(), 100 * r.final_top1(),
              100 * r.perturbation_frequency());
}

struct OptimizerRun {
  nn::OptimizerKind kind;
  core::MomentMerge policy;
  bool sparse_merge;
  double lr;
  core::TrainResult result;
};

/// Per-optimizer learning rate for the TTA grid. SGD keeps the bench
/// baseline rate; the adaptive rules run at their own scale (Adam-family
/// steps are preconditioned by sqrt(v), so SGD-sized rates diverge).
double grid_lr(nn::OptimizerKind kind, double sgd_lr) {
  switch (kind) {
    case nn::OptimizerKind::kSgd:
      return sgd_lr;
    case nn::OptimizerKind::kAdam:
    case nn::OptimizerKind::kAdamW:
      return 0.02;
    case nn::OptimizerKind::kAdagrad:
      return 0.1;
  }
  return sgd_lr;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  const auto megabatches = args.get_size("megabatches", 8);
  const bool smoke = args.get_bool("smoke", false);
  const auto out_path = args.get_string("out", "BENCH_ablation.json");
  if (args.report_unknown()) return 1;

  auto data_cfg = bench::bench_amazon();
  auto base_cfg = bench::bench_trainer_config(megabatches);
  if (smoke) {
    data_cfg.num_train = 3'000;
    data_cfg.num_test = 600;
    base_cfg.num_megabatches = 4;
    base_cfg.batches_per_megabatch = 10;
    base_cfg.batch_max = 64;
    base_cfg.eval_samples = 300;
  }
  const auto dataset = data::generate_xml_dataset(data_cfg);
  const auto devices = sim::v100_heterogeneous(4, 0.32);

  const auto run = [&](core::TrainerConfig cfg) {
    auto trainer =
        core::make_trainer(core::Method::kAdaptive, dataset, cfg, devices);
    return trainer->train();
  };

  // ---- optimizer x moment-merge x sparse-merge TTA grid -----------------
  std::vector<OptimizerRun> opt_runs;
  {
    constexpr nn::OptimizerKind kKinds[] = {
        nn::OptimizerKind::kSgd, nn::OptimizerKind::kAdam,
        nn::OptimizerKind::kAdamW, nn::OptimizerKind::kAdagrad};
    constexpr core::MomentMerge kPolicies[] = {core::MomentMerge::kAverage,
                                               core::MomentMerge::kKeep,
                                               core::MomentMerge::kReset};
    std::printf(
        "=== Ablation: optimizer x moment-merge x sparse-merge (TTA) ===\n");
    std::printf("  %-8s %-8s %-6s %-6s | %9s | %-10s | %s\n", "opt",
                "moments", "sparse", "lr", "vtime", "best top1", "final");
    for (const bool sparse : {false, true}) {
      for (const auto kind : kKinds) {
        for (const auto policy : kPolicies) {
          auto cfg = base_cfg;
          cfg.optimizer.kind = kind;
          cfg.moment_merge = policy;
          cfg.sparse_merge = sparse;
          cfg.learning_rate = grid_lr(kind, base_cfg.learning_rate);
          cfg.weight_decay = 1e-4;  // makes adam vs adamw a real contrast
          OptimizerRun r{kind, policy, sparse, cfg.learning_rate, run(cfg)};
          std::printf("  %-8s %-8s %-6s %-6.3f | %9.4fs | %9.2f%% | %6.2f%%\n",
                      nn::to_string(kind).c_str(),
                      core::to_string(policy).c_str(), sparse ? "on" : "off",
                      r.lr, r.result.total_vtime, 100 * r.result.best_top1(),
                      100 * r.result.final_top1());
          opt_runs.push_back(std::move(r));
        }
      }
    }

    // Shared target from the SGD baseline: 95% of the best top-1 any SGD
    // arm reached. Every optimizer's TTA then answers "when did it reach
    // SGD-grade accuracy" on the same virtual timeline.
    double sgd_best = 0.0;
    for (const auto& r : opt_runs) {
      if (r.kind == nn::OptimizerKind::kSgd) {
        sgd_best = std::max(sgd_best, r.result.best_top1());
      }
    }
    const double target = 0.95 * sgd_best;
    std::printf("  (TTA target: %.2f%% = 95%% of best SGD top-1)\n",
                100 * target);
    for (const auto& r : opt_runs) {
      const auto tta = r.result.time_to_accuracy(target);
      std::printf("  tta %-8s %-8s sparse=%-3s : %s\n",
                  nn::to_string(r.kind).c_str(),
                  core::to_string(r.policy).c_str(),
                  r.sparse_merge ? "on" : "off",
                  tta ? (std::to_string(*tta) + "s").c_str() : "never");
    }

    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
      return 1;
    }
    out << "{\"bench\":\"ablation\",\"gpus\":4,\"weight_decay\":1e-4,"
        << "\"target_top1\":" << target << ",\"runs\":[";
    for (std::size_t i = 0; i < opt_runs.size(); ++i) {
      const auto& r = opt_runs[i];
      if (i > 0) out << ',';
      const auto tta = r.result.time_to_accuracy(target);
      out << "{\"optimizer\":\"" << nn::to_string(r.kind) << "\","
          << "\"moment_merge\":\"" << core::to_string(r.policy) << "\","
          << "\"sparse_merge\":" << (r.sparse_merge ? "true" : "false")
          << ",\"lr\":" << r.lr
          << ",\"tta\":" << (tta ? std::to_string(*tta) : "null")
          << ",\"result\":";
      core::write_result_json(out, r.result);
      out << '}';
    }
    out << "]}\n";
    std::printf("results written to %s\n", out_path.c_str());
  }
  if (smoke) return 0;

  std::printf("\n=== Ablation: Adaptive SGD mechanisms (4 heterogeneous GPUs) ===\n");
  std::printf("  %-28s | %10s | %-11s | %-12s | %s\n", "variant", "vtime",
              "best top1", "final top1", "pert freq");

  report("full adaptive (baseline)", run(base_cfg));
  {
    auto cfg = base_cfg;
    cfg.dynamic_scheduling = false;
    report("- dynamic scheduling", run(cfg));
  }
  {
    auto cfg = base_cfg;
    cfg.enable_batch_scaling = false;
    report("- batch size scaling", run(cfg));
  }
  {
    auto cfg = base_cfg;
    cfg.enable_perturbation = false;
    report("- perturbation", run(cfg));
  }
  {
    auto cfg = base_cfg;
    cfg.enable_momentum = false;
    report("- momentum", run(cfg));
  }
  {
    auto cfg = base_cfg;
    cfg.fused_kernels = false;
    report("- kernel fusion", run(cfg));
  }

  std::printf("\n--- beta sweep (Algorithm 1 step size; default b_min/2 = %.0f) ---\n",
              base_cfg.derived_beta());
  for (const double beta : {1.0, 4.0, 8.0, 16.0, 32.0}) {
    auto cfg = base_cfg;
    cfg.beta = beta;
    char label[64];
    std::snprintf(label, sizeof(label), "beta = %.0f", beta);
    report(label, run(cfg));
  }

  std::printf("\n--- mega-batch size sweep (batches of b_max per merge) ---\n");
  for (const std::size_t batches : {10u, 25u, 50u, 100u}) {
    auto cfg = base_cfg;
    cfg.batches_per_megabatch = batches;
    // Keep the total sample budget constant.
    cfg.num_megabatches =
        base_cfg.num_megabatches * base_cfg.batches_per_megabatch / batches;
    char label[64];
    std::snprintf(label, sizeof(label), "mega-batch = %zu batches", batches);
    report(label, run(cfg));
  }

  std::printf("\n--- perturbation threshold sweep (default 0.1) ---\n");
  for (const double thr : {0.0, 0.01, 0.1, 1.0}) {
    auto cfg = base_cfg;
    cfg.pert_threshold = thr;
    char label[64];
    std::snprintf(label, sizeof(label), "pert_thr = %.2f", thr);
    report(label, run(cfg));
  }

  std::printf("\n--- merge normalization (Algorithm 2 / Section III-B) ---\n");
  const std::pair<const char*, core::MergeNormalization> norms[] = {
      {"auto (paper default)", core::MergeNormalization::kAuto},
      {"by updates", core::MergeNormalization::kUpdates},
      {"by batch size", core::MergeNormalization::kBatchSize},
      {"updates x batch", core::MergeNormalization::kUpdatesTimesBatch},
  };
  for (const auto& [label, norm] : norms) {
    auto cfg = base_cfg;
    cfg.merge_normalization = norm;
    report(label, run(cfg));
  }

  // Transient stragglers: on top of the static 32% spread, every device
  // randomly degrades to 40% throughput for a stretch (thermal throttling /
  // interference). Dynamic scheduling absorbs these; static assignment
  // stalls the whole mega-batch on whichever GPU is degraded.
  std::printf("\n--- transient stragglers (p=0.02/step, 0.4x for 5ms) ---\n");
  auto straggler_devices = sim::v100_heterogeneous(4, 0.32);
  for (auto& d : straggler_devices) {
    d.transient_probability = 0.02;
    d.transient_factor = 0.4;
    d.transient_duration = 5e-3;
  }
  for (const auto method : {core::Method::kAdaptive, core::Method::kElastic}) {
    auto trainer =
        core::make_trainer(method, dataset, base_cfg, straggler_devices);
    const auto r = trainer->train();
    report(r.method.c_str(), r);
  }
  return 0;
}
