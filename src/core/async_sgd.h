// Fully asynchronous SGD baseline (Section II): a Hogwild-style shared
// global model with no synchronization barriers. Every GPU repeatedly
// (1) snapshots the current global model, (2) computes a gradient from its
// next batch against that snapshot, and (3) applies the gradient to the
// global model whenever it finishes — by which time other GPUs may have
// already moved the model (gradient staleness). The paper notes this
// "can result in poor convergence" over long runs; the staleness statistics
// recorded here let the benches quantify that.
//
// Scheduling is a pure discrete-event loop over per-GPU completion times:
// no mega-batch barrier exists, mega-batches are only evaluation
// boundaries.
#pragma once

#include "core/trainer.h"

namespace hetero::core {

class AsyncSgdTrainer final : public Trainer {
 public:
  AsyncSgdTrainer(const data::XmlDataset& dataset, const TrainerConfig& cfg,
                  std::vector<sim::DeviceSpec> devices);

  std::string method_name() const override { return "async-sgd"; }

 protected:
  void run_megabatch(TrainResult& result) override;

 private:
  struct InFlight {
    bool active = false;
    double finish = 0.0;
    std::size_t snapshot_version = 0;  // updates applied when dispatched
    MultiGpuRuntime::Batch batch;
  };

  void dispatch(std::size_t g);

  std::vector<InFlight> in_flight_;
  // One pending gradient per GPU, staged in its own workspace.
  std::vector<nn::ModelWorkspace> gradients_;
  std::size_t global_version_ = 0;        // total updates applied
  std::size_t staleness_sum_ = 0;
  std::size_t staleness_count_ = 0;
};

}  // namespace hetero::core
