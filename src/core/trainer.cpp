#include "core/trainer.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "core/adaptive_sgd.h"
#include "core/crossbow_sma.h"
#include "core/param_server.h"
#include "core/sync_sgd.h"

namespace hetero::core {

Trainer::Trainer(const data::XmlDataset& dataset, const TrainerConfig& cfg,
                 std::vector<sim::DeviceSpec> devices)
    : runtime_(dataset, cfg, std::move(devices)), cfg_(cfg) {
  if (cfg_.batch_max == 0) {
    // Derive b_max from device memory (Section V-A): the largest power of
    // two whose per-batch training state fits on the most constrained GPU.
    std::size_t feasible = std::numeric_limits<std::size_t>::max();
    for (std::size_t g = 0; g < runtime_.num_gpus(); ++g) {
      feasible = std::min(feasible, runtime_.max_feasible_batch(g));
    }
    std::size_t b = 16;
    while (b * 2 <= feasible && b < 1024) b *= 2;
    cfg_.batch_max = b;
  }
}

double Trainer::lr_schedule_factor() const {
  if (cfg_.lr_decay_every == 0 || cfg_.lr_decay == 1.0) return 1.0;
  const auto steps = current_megabatch_ / cfg_.lr_decay_every;
  double factor = 1.0;
  for (std::size_t i = 0; i < steps; ++i) factor *= cfg_.lr_decay;
  return factor;
}

double Trainer::current_vtime() const {
  double t = 0.0;
  for (std::size_t g = 0; g < runtime_.num_gpus(); ++g) {
    t = std::max(t, runtime_.gpu(g).device_free_at());
  }
  return t;
}

void Trainer::set_resume_point(std::size_t completed, double best_top1,
                               std::size_t megabatches_without_improvement,
                               const RunTotals& totals) {
  start_megabatch_ = completed;
  early_stop_best_ = best_top1;
  early_stop_stagnation_ = megabatches_without_improvement;
  totals_ = totals;
}

void Trainer::reject_membership_plans() const {
  if (runtime_.has_fault_schedule()) {
    throw std::invalid_argument(
        method_name() +
        " keeps every device a member: crash, join and partition events "
        "need adaptive, elastic or sync");
  }
}

TrainResult Trainer::train() {
  TrainResult result;
  result.method = method_name();
  result.dataset = runtime_.dataset().name;
  result.num_gpus = runtime_.num_gpus();
  result.num_nodes = std::max<std::size_t>(1, cfg_.num_nodes);
  result.cpu_replicas = cfg_.cpu_replicas;
  result.gpus.resize(runtime_.num_gpus());

  on_start(result);
  // Fresh runs record the t=0 baseline; resumed runs re-record the restored
  // boundary (same model, same clock) so curve tails line up.
  runtime_.record_curve_point(result, current_vtime(), start_megabatch_, 0.0);

  if (start_megabatch_ == 0) {
    early_stop_best_ = result.curve.empty() ? 0.0 : result.curve.back().top1;
    early_stop_stagnation_ = 0;
    totals_ = RunTotals{};
  }
  // A resumed run continues the sums it was checkpointed with.
  result.merges = totals_.merges;
  result.perturbed_merges = totals_.perturbed_merges;
  result.scaling_updates = totals_.scaling_updates;
  result.comm_seconds = totals_.comm_seconds;
  for (std::size_t m = start_megabatch_ + 1; m <= cfg_.num_megabatches; ++m) {
    current_megabatch_ = m - 1;
    run_megabatch(result);
    totals_ = {result.merges, result.perturbed_merges, result.scaling_updates,
               result.comm_seconds};
    const double t = current_vtime();
    runtime_.record_curve_point(result, t, m, runtime_.take_mean_loss());
    // Early-stop bookkeeping runs before the boundary hook so a checkpoint
    // written there captures this boundary's state, then break decisions
    // follow.
    const double top1 = result.curve.back().top1;
    if (top1 >= early_stop_best_ + cfg_.early_stop_delta) {
      early_stop_best_ = top1;
      early_stop_stagnation_ = 0;
    } else {
      ++early_stop_stagnation_;
    }
    if (boundary_hook_) boundary_hook_(m, t);
    if (cfg_.virtual_time_budget > 0.0 && t >= cfg_.virtual_time_budget) {
      break;
    }
    if (cfg_.early_stop_patience > 0 &&
        early_stop_stagnation_ >= cfg_.early_stop_patience) {
      break;
    }
  }

  result.total_vtime = current_vtime();
  for (std::size_t g = 0; g < runtime_.num_gpus(); ++g) {
    auto& trace = result.gpus[g];
    trace.busy_seconds = runtime_.gpu(g).busy_seconds();
    trace.total_updates = 0;
    for (auto u : trace.updates) trace.total_updates += u;
  }
  result.faults = runtime_.fault_stats();
  return result;
}

std::string to_string(Method method) {
  switch (method) {
    case Method::kAdaptive:
      return "adaptive-sgd";
    case Method::kElastic:
      return "elastic-sgd";
    case Method::kSync:
      return "sync-sgd-tf";
    case Method::kCrossbow:
      return "crossbow-sma";
    case Method::kAsync:
      return "async-sgd";
  }
  return "?";
}

std::unique_ptr<Trainer> make_trainer(Method method,
                                      const data::XmlDataset& dataset,
                                      TrainerConfig cfg,
                                      std::vector<sim::DeviceSpec> devices) {
  switch (method) {
    case Method::kAdaptive:
      return std::make_unique<AdaptiveSgdTrainer>(dataset, cfg,
                                                  std::move(devices));
    case Method::kElastic:
      return std::make_unique<AdaptiveSgdTrainer>(
          dataset, cfg, std::move(devices), Method::kElastic);
    case Method::kSync:
      if (cfg.framework_overhead == 1.0) cfg.framework_overhead = 1.4;
      return std::make_unique<SyncSgdTrainer>(dataset, cfg,
                                              std::move(devices));
    case Method::kCrossbow:
      return std::make_unique<CrossbowTrainer>(dataset, cfg,
                                               std::move(devices));
    case Method::kAsync:
      return ParamServerTrainer::make_async(dataset, cfg, std::move(devices));
  }
  return nullptr;
}

}  // namespace hetero::core
