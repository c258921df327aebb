// Adaptive SGD (Section III) — the paper's contribution.
//
// Per mega-batch:
//   1. Dynamic scheduling: batches are dispatched one-by-one to whichever
//      GPU becomes available first, each GPU using its own batch size b_i
//      and learning rate lr_i, until the mega-batch's sample quota is
//      consumed. Faulted devices are handled inline: a simulated OOM clamps
//      the replica's batch to the largest size that fits (the b_max rule
//      applied downward), a crashed device's in-flight batch is dropped.
//   2. Normalized model merging (Algorithm 2): replica weights from update
//      counts / batch sizes, perturbed when all replicas are
//      well-regularized; weighted all-reduce; momentum global update at the
//      scheduler. With elastic membership the weights are computed over the
//      alive replica set only and renormalized there.
//   3. Batch size scaling (Algorithm 1): b_i and lr_i move toward the
//      steady state where every GPU performs the same number of updates.
//      Replicas joining at this boundary restart at b_max afterwards.
//
// Method::kElastic is the Elastic SGD baseline (Section II): this loop with
// static round-robin scheduling restarted every mega-batch, no batch
// scaling or warmup and an unperturbed merge weighted by batch size, so a
// mega-batch ends only when the slowest GPU finishes (the straggler problem).
#pragma once

#include "core/batch_scaling.h"
#include "core/trainer.h"

namespace hetero::core {

class AdaptiveSgdTrainer final : public Trainer {
 public:
  /// `method` is kAdaptive or kElastic (the preset above, applied to cfg).
  AdaptiveSgdTrainer(const data::XmlDataset& dataset, const TrainerConfig& cfg,
                     std::vector<sim::DeviceSpec> devices,
                     Method method = Method::kAdaptive);

  std::string method_name() const override { return to_string(method_); }
  Method method() const { return method_; }

  /// Current per-GPU SGD state (exposed for tests / Fig. 6a traces).
  const std::vector<GpuSgdState>& sgd_state() const { return sgd_; }

  /// Scaling cadence state (only meaningful with
  /// cfg.adaptive_scaling_cadence).
  const ScalingScheduler& scaling_scheduler() const { return scheduler_; }

  // --- checkpointed recovery (fault subsystem) ---------------------------------
  std::size_t megabatch_index() const { return megabatch_index_; }
  std::size_t round_robin_cursor() const { return round_robin_cursor_; }
  ScalingScheduler& scaling_scheduler_mutable() { return scheduler_; }

  /// Restores the per-GPU SGD states and loop counters captured in a
  /// checkpoint; pair with Trainer::set_resume_point.
  void restore_progress(std::vector<GpuSgdState> sgd,
                        std::size_t megabatch_index, std::size_t cursor);

 protected:
  void run_megabatch(TrainResult& result) override;

 private:
  /// Warmup multiplier for the upcoming mega-batch (1.0 when disabled).
  double warmup_factor() const;

  /// Shrinks GPU g's batch to the largest power of two that fits its
  /// memory at its current clock (learning rate follows the linear scaling
  /// rule). Returns false when no smaller batch exists.
  bool clamp_batch_to_memory(std::size_t g);

  Method method_;
  std::vector<GpuSgdState> sgd_;
  ScalingScheduler scheduler_;
  std::size_t megabatch_index_ = 0;
  std::size_t round_robin_cursor_ = 0;  // used when dynamic_scheduling=false
};

}  // namespace hetero::core
