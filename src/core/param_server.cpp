#include "core/param_server.h"

#include <algorithm>
#include <limits>

namespace hetero::core {

ParamServerTrainer::ParamServerTrainer(const data::XmlDataset& dataset,
                                       const TrainerConfig& cfg,
                                       std::vector<sim::DeviceSpec> devices,
                                       std::size_t staleness_bound)
    : Trainer(dataset, cfg, std::move(devices)),
      staleness_bound_(staleness_bound) {
  in_flight_.resize(runtime_.num_gpus());
  gradients_.resize(runtime_.num_gpus());
  local_clock_.resize(runtime_.num_gpus(), 0);
}

std::unique_ptr<ParamServerTrainer> ParamServerTrainer::make_async(
    const data::XmlDataset& dataset, const TrainerConfig& cfg,
    std::vector<sim::DeviceSpec> devices) {
  auto trainer = std::make_unique<ParamServerTrainer>(
      dataset, cfg, std::move(devices),
      std::numeric_limits<std::size_t>::max());
  trainer->host_model_ = false;
  return trainer;
}

void ParamServerTrainer::dispatch(std::size_t g, double earliest) {
  auto& slot = in_flight_[g];
  slot.batch = runtime_.next_batch(cfg_.batch_max);
  slot.snapshot_version = global_version_;
  slot.active = true;

  // Pull the current model over the shared host link, compute, push the
  // gradient back. All PS traffic contends on the host link. Compressed
  // merge precisions shrink both directions to the quantized wire size
  // (cost-only modeling).
  double pull = 0.0, push = 0.0;
  if (host_model_) {
    const std::size_t model_bytes =
        static_cast<std::size_t>(runtime_.virtual_model_wire().total());
    pull = runtime_.links().transfer_seconds(
        model_bytes, sim::LinkModel::kHost, static_cast<int>(g),
        runtime_.num_gpus());
    push = runtime_.links().transfer_seconds(
        model_bytes, static_cast<int>(g), sim::LinkModel::kHost,
        runtime_.num_gpus());
  }
  comm_accum_ += pull + push;
  const auto stats = runtime_.global_model().compute_gradients(
      slot.batch.x, slot.batch.y, gradients_[g]);
  runtime_.record_loss(g, stats.loss);

  const double compute_done = runtime_.charge_step(
      g, slot.batch.x, std::max(earliest, runtime_.gpu_free_at(g)) + pull);
  slot.finish = compute_done + push;
  runtime_.gpu(g).wait_all_until(slot.finish);
}

void ParamServerTrainer::run_megabatch(TrainResult& result) {
  const std::size_t n = runtime_.num_gpus();
  const std::size_t mega = cfg_.megabatch_samples();
  const float lr =
      static_cast<float>(cfg_.learning_rate * lr_schedule_factor());
  std::vector<std::size_t> updates_this_megabatch(n, 0);

  const auto min_clock = [&] {
    return *std::min_element(local_clock_.begin(), local_clock_.end());
  };
  const auto may_dispatch = [&](std::size_t g) {
    // SSP window: a GPU may start its next update only if it is within
    // `staleness_bound` updates of the slowest GPU (compared as a
    // difference, so an unbounded window cannot wrap).
    return local_clock_[g] - min_clock() <= staleness_bound_;
  };

  for (std::size_t g = 0; g < n; ++g) {
    if (!in_flight_[g].active && may_dispatch(g)) dispatch(g, 0.0);
  }

  std::size_t applied = 0;
  while (applied < mega) {
    std::size_t g = 0;
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < n; ++i) {
      if (in_flight_[i].active && in_flight_[i].finish < best) {
        best = in_flight_[i].finish;
        g = i;
      }
    }

    auto& slot = in_flight_[g];
    runtime_.global_optimizer().apply(runtime_.global_model(), gradients_[g],
                                      lr,
                                      static_cast<float>(cfg_.weight_decay));
    staleness_sum_ += global_version_ - slot.snapshot_version;
    ++staleness_count_;
    ++global_version_;

    applied += slot.batch.x.rows();
    local_clock_[g] += 1;
    updates_this_megabatch[g] += 1;
    result.gpus[g].total_samples += slot.batch.x.rows();
    slot.active = false;

    // The finished update may unblock SSP-stalled GPUs (including g).
    bool any_active = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (!in_flight_[i].active) {
        if (may_dispatch(i)) {
          dispatch(i, best);
        } else {
          ++ssp_stalls_;
        }
      }
      any_active |= in_flight_[i].active;
    }
    // Safety valve: the slowest GPU is always dispatchable, so the loop can
    // never wedge — but guard against config edge cases regardless.
    if (!any_active && applied < mega) {
      std::size_t slowest = 0;
      for (std::size_t i = 1; i < n; ++i) {
        if (local_clock_[i] < local_clock_[slowest]) slowest = i;
      }
      dispatch(slowest, best);
    }
  }

  for (std::size_t g = 0; g < n; ++g) {
    result.gpus[g].batch_size.push_back(cfg_.batch_max);
    result.gpus[g].updates.push_back(updates_this_megabatch[g]);
  }
  result.merges += 1;
  result.comm_seconds = comm_accum_;
  result.avg_staleness =
      staleness_count_ == 0
          ? 0.0
          : static_cast<double>(staleness_sum_) /
                static_cast<double>(staleness_count_);
}

}  // namespace hetero::core
