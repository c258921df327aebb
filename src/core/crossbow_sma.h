// CROSSBOW-style synchronous model averaging (SMA) baseline.
//
// Following Koliousis et al. (PVLDB 2019), each learner keeps its own
// replica; every round it applies its local gradient plus an elastic
// correction toward the central average model z, and z absorbs the average
// of the replica deviations:
//
//   w_i <- w_i - lr * g_i + eta * (z - w_i)
//   z   <- z + (eta / n) * sum_i (w_i - z)        (pre-update deviations)
//
// Synchronization happens every round (synchronous). The paper reimplements
// CROSSBOW inside HeteroGPU because the original lacks sparse support; this
// class plays that role here. The paper observes its global-model update is
// sensitive and can leave local replicas divergent (poor accuracy on
// Amazon-670k, instability on Delicious-200k).
#pragma once

#include <vector>

#include "core/trainer.h"

namespace hetero::core {

class CrossbowTrainer final : public Trainer {
 public:
  CrossbowTrainer(const data::XmlDataset& dataset, const TrainerConfig& cfg,
                  std::vector<sim::DeviceSpec> devices);

  std::string method_name() const override { return "crossbow-sma"; }

 protected:
  void on_start(TrainResult&) override { reject_membership_plans(); }
  void run_megabatch(TrainResult& result) override;

 private:
  // Central average model z, kept as a model so the SMA update runs
  // segment-wise in place against the replicas' segment_views() — no
  // to_flat()/from_flat() staging copies per round.
  nn::Model central_;
  std::vector<double> dev_sum_;  // per-parameter deviation accumulator
};

}  // namespace hetero::core
