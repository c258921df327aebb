// Stale-Synchronous-Parallel parameter server baseline.
//
// The paper grounds Adaptive SGD's staleness bounds in the SSP literature
// (Ho et al. [11], Lian et al. [14]): b_min/b_max "impose bounds on replica
// staleness, allowing the application of convergence results from stale
// synchronous SGD". This trainer implements the referenced model directly,
// as a GeePS-style parameter server:
//
//   - the global model lives on the host; every GPU pulls it over the PCIe
//     link, computes a gradient, and pushes the gradient back;
//   - GPUs proceed asynchronously EXCEPT that no GPU may run more than
//     `staleness_bound` updates ahead of the slowest one (the SSP window);
//     a GPU that gets too far ahead blocks until the straggler catches up.
//
// With staleness_bound = 0 this degrades to synchronous gradient
// aggregation over the host link; with a large bound it approaches the
// fully asynchronous baseline. The sweep between the two extremes is the
// classic SSP trade-off curve.
//
// That baseline (Method::kAsync, the Hogwild-style SGD of Section II) is
// make_async(): no SSP window and a device-resident model, so no pull or
// push. Its staleness statistics quantify the "poor convergence" risk the
// paper notes.
#pragma once

#include <memory>

#include "core/trainer.h"

namespace hetero::core {

class ParamServerTrainer final : public Trainer {
 public:
  ParamServerTrainer(const data::XmlDataset& dataset,
                     const TrainerConfig& cfg,
                     std::vector<sim::DeviceSpec> devices,
                     std::size_t staleness_bound = 2);

  /// The asynchronous preset described above; reports "async-sgd".
  static std::unique_ptr<ParamServerTrainer> make_async(
      const data::XmlDataset& dataset, const TrainerConfig& cfg,
      std::vector<sim::DeviceSpec> devices);

  std::string method_name() const override {
    return host_model_ ? "ssp-ps" : "async-sgd";
  }

  std::size_t staleness_bound() const { return staleness_bound_; }

  /// Times a GPU was ready but blocked by the SSP window.
  std::size_t ssp_stalls() const { return ssp_stalls_; }

 protected:
  void on_start(TrainResult&) override { reject_membership_plans(); }
  void run_megabatch(TrainResult& result) override;

 private:
  struct InFlight {
    bool active = false;
    double finish = 0.0;
    std::size_t snapshot_version = 0;  // global updates applied at dispatch
    MultiGpuRuntime::Batch batch;
  };

  void dispatch(std::size_t g, double earliest);

  std::size_t staleness_bound_;
  bool host_model_ = true;  // false: device-resident, no pull or push
  std::vector<InFlight> in_flight_;
  std::vector<nn::ModelWorkspace> gradients_;
  std::vector<std::size_t> local_clock_;   // updates completed per GPU
  std::size_t global_version_ = 0;         // total updates applied
  std::size_t ssp_stalls_ = 0;             // times a fast GPU had to wait
  double comm_accum_ = 0.0;                // pull+push transfer time
  std::size_t staleness_sum_ = 0;
  std::size_t staleness_count_ = 0;
};

}  // namespace hetero::core
