#include "core/async_sgd.h"

#include <algorithm>
#include <limits>

namespace hetero::core {

AsyncSgdTrainer::AsyncSgdTrainer(const data::XmlDataset& dataset,
                                 const TrainerConfig& cfg,
                                 std::vector<sim::DeviceSpec> devices)
    : Trainer(dataset, cfg, std::move(devices)) {
  in_flight_.resize(runtime_.num_gpus());
  gradients_.resize(runtime_.num_gpus());
}

void AsyncSgdTrainer::dispatch(std::size_t g) {
  auto& slot = in_flight_[g];
  slot.batch = runtime_.next_batch(cfg_.batch_max);
  slot.snapshot_version = global_version_;
  slot.active = true;
  // Snapshot = the current global model; the gradient is computed against
  // it right away (the math is instantaneous in virtual time; only the
  // charged kernel cost advances the clock).
  const auto stats = runtime_.global_model().compute_gradients(
      slot.batch.x, slot.batch.y, gradients_[g]);
  runtime_.record_loss(g, stats.loss);
  slot.finish =
      runtime_.charge_step(g, slot.batch.x, runtime_.gpu_free_at(g));
}

void AsyncSgdTrainer::run_megabatch(TrainResult& result) {
  const std::size_t n = runtime_.num_gpus();
  const std::size_t mega = cfg_.megabatch_samples();
  std::vector<std::size_t> updates_this_megabatch(n, 0);

  for (std::size_t g = 0; g < n; ++g) {
    if (!in_flight_[g].active) dispatch(g);
  }

  std::size_t applied_samples = 0;
  while (applied_samples < mega) {
    // Earliest completion wins (pure event order, no barrier).
    std::size_t g = 0;
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < n; ++i) {
      if (in_flight_[i].active && in_flight_[i].finish < best) {
        best = in_flight_[i].finish;
        g = i;
      }
    }

    auto& slot = in_flight_[g];
    // Apply the (possibly stale) gradient to the shared model.
    runtime_.global_optimizer().apply(
        runtime_.global_model(), gradients_[g],
        static_cast<float>(cfg_.learning_rate * lr_schedule_factor()),
        static_cast<float>(cfg_.weight_decay));
    staleness_sum_ += global_version_ - slot.snapshot_version;
    ++staleness_count_;
    ++global_version_;
    applied_samples += slot.batch.x.rows();
    updates_this_megabatch[g] += 1;
    result.gpus[g].total_samples += slot.batch.x.rows();
    slot.active = false;
    dispatch(g);
  }

  for (std::size_t g = 0; g < n; ++g) {
    result.gpus[g].batch_size.push_back(cfg_.batch_max);
    result.gpus[g].updates.push_back(updates_this_megabatch[g]);
  }
  result.merges += 1;  // evaluation boundary only; no model merging happens
  result.avg_staleness =
      staleness_count_ == 0
          ? 0.0
          : static_cast<double>(staleness_sum_) /
                static_cast<double>(staleness_count_);
}

}  // namespace hetero::core
