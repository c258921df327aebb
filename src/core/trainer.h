// Trainer interface + factory.
//
// All four multi-GPU algorithms share the mega-batch experiment loop
// (process a mega-batch worth of samples, then measure test accuracy — the
// paper's methodology) and differ only in how batches are scheduled,
// replicas updated, and models merged.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/metrics.h"
#include "core/runtime.h"

namespace hetero::core {

class Trainer {
 public:
  Trainer(const data::XmlDataset& dataset, const TrainerConfig& cfg,
          std::vector<sim::DeviceSpec> devices);
  virtual ~Trainer() = default;

  /// Runs cfg.num_megabatches mega-batches (or until the virtual-time
  /// budget is exhausted), evaluating after each one.
  TrainResult train();

  virtual std::string method_name() const = 0;

  MultiGpuRuntime& runtime() { return runtime_; }
  const TrainerConfig& config() const { return cfg_; }

  /// Invoked after every completed mega-batch (post-merge, post-eval,
  /// post-early-stop bookkeeping) with the 1-based mega-batch index and the
  /// current virtual time. The fault subsystem installs its periodic
  /// checkpoint writer here; default is none.
  using BoundaryHook = std::function<void(std::size_t megabatch, double vtime)>;
  void set_boundary_hook(BoundaryHook hook) {
    boundary_hook_ = std::move(hook);
  }

  /// Positions the trainer to resume after `completed` mega-batches
  /// (checkpointed recovery): train() records its initial curve point at
  /// the restored clock/index and starts with mega-batch completed+1, with
  /// the early-stopping state and the run totals re-seeded from the
  /// checkpoint.
  void set_resume_point(std::size_t completed, double best_top1,
                        std::size_t megabatches_without_improvement,
                        const RunTotals& totals);

  /// Early-stopping state (captured into checkpoints at boundaries).
  double early_stop_best() const { return early_stop_best_; }
  std::size_t early_stop_stagnation() const { return early_stop_stagnation_; }

  /// The run's totals up to the last completed mega-batch, updated before
  /// the boundary hook runs (captured into checkpoints at boundaries).
  const RunTotals& run_totals() const { return totals_; }

 protected:
  /// Processes one mega-batch: schedule batches, update replicas, merge.
  /// Must leave the merged model in runtime_.global_model() and update the
  /// per-GPU traces in `result`.
  virtual void run_megabatch(TrainResult& result) = 0;

  /// Called once before the first mega-batch.
  virtual void on_start(TrainResult&) {}

  /// Throws std::invalid_argument if crash, join or partition events are
  /// armed on the runtime: for loops that keep every device a member.
  void reject_membership_plans() const;

  /// Current virtual time (all devices' latest clock).
  double current_vtime() const;

  /// Learning-rate schedule multiplier for the mega-batch being processed
  /// (step decay; warmup is handled by the adaptive trainer itself).
  double lr_schedule_factor() const;

  /// 0-based index of the mega-batch currently being processed (maintained
  /// by train()).
  std::size_t current_megabatch() const { return current_megabatch_; }

  MultiGpuRuntime runtime_;
  TrainerConfig cfg_;

 private:
  std::size_t current_megabatch_ = 0;
  std::size_t start_megabatch_ = 0;  // completed mega-batches at resume
  double early_stop_best_ = 0.0;
  std::size_t early_stop_stagnation_ = 0;
  RunTotals totals_;
  BoundaryHook boundary_hook_;
};

enum class Method { kAdaptive, kElastic, kSync, kCrossbow, kAsync };

std::string to_string(Method method);

/// Builds a trainer. For Method::kSync the config's framework_overhead
/// should model the heavier framework stack (the paper's TensorFlow
/// baseline); the factory applies 1.4 if the caller left it at 1.0.
std::unique_ptr<Trainer> make_trainer(Method method,
                                      const data::XmlDataset& dataset,
                                      TrainerConfig cfg,
                                      std::vector<sim::DeviceSpec> devices);

}  // namespace hetero::core
