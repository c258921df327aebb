#include "core/crossbow_sma.h"

#include <algorithm>
#include <vector>

namespace hetero::core {

CrossbowTrainer::CrossbowTrainer(const data::XmlDataset& dataset,
                                 const TrainerConfig& cfg,
                                 std::vector<sim::DeviceSpec> devices)
    : Trainer(dataset, cfg, std::move(devices)),
      central_(runtime_.global_model()),
      dev_sum_(central_.num_parameters(), 0.0) {}

void CrossbowTrainer::run_megabatch(TrainResult& result) {
  const std::size_t n = runtime_.num_gpus();
  const std::size_t b = cfg_.batch_max;
  const float lr =
      static_cast<float>(cfg_.learning_rate * lr_schedule_factor());
  const float eta = static_cast<float>(cfg_.crossbow_eta);
  const std::size_t rounds =
      std::max<std::size_t>(1, cfg_.batches_per_megabatch / n);

  for (std::size_t round = 0; round < rounds; ++round) {
    double round_start = 0.0;
    for (std::size_t g = 0; g < n; ++g) {
      round_start = std::max(round_start, runtime_.gpu_free_at(g));
    }

    // Local gradient computation on each learner's replica.
    double grads_done = 0.0;
    for (std::size_t g = 0; g < n; ++g) {
      auto batch = runtime_.next_batch(b);
      grads_done = std::max(
          grads_done, runtime_.run_gradient_step(g, std::move(batch),
                                                 round_start));
      result.gpus[g].total_samples += b;
    }

    // Synchronous exchange of replica deviations (model-sized all-reduce;
    // billed at the compressed wire size under --merge-precision, the
    // deviation math itself stays fp32).
    const auto ar =
        runtime_.reducer().cost(n, runtime_.virtual_model_wire());
    const double finish = grads_done + ar.seconds;
    for (std::size_t g = 0; g < n; ++g) {
      runtime_.gpu(g).wait_all_until(finish);
    }
    result.comm_seconds += ar.seconds;
    runtime_.math_barrier();

    // SMA update, segment-wise in place over the replicas' parameter
    // tensors (deviations are measured before the learners move). The only
    // O(params) state is the reusable double accumulator — no flat model
    // copies in or out.
    const auto central_segs = central_.segment_views();
    std::fill(dev_sum_.begin(), dev_sum_.end(), 0.0);
    for (std::size_t g = 0; g < n; ++g) {
      auto& replica = runtime_.replica(g);
      const auto replica_segs = replica.segment_views();
      std::size_t off = 0;
      for (std::size_t s = 0; s < central_segs.size(); ++s) {
        float* w = replica_segs[s].data();
        const float* z = central_segs[s].data();
        const std::size_t len = central_segs[s].size();
        for (std::size_t j = 0; j < len; ++j) {
          dev_sum_[off + j] += static_cast<double>(w[j]) - z[j];
          // w_i <- w_i + eta * (z - w_i), then the local gradient.
          w[j] += eta * (z[j] - w[j]);
        }
        off += len;
      }
      runtime_.optimizer(g).apply(replica, runtime_.workspace(g), lr, 0.0f);
    }
    const double scale =
        static_cast<double>(eta) / static_cast<double>(n);
    std::size_t off = 0;
    for (const auto seg : central_segs) {
      float* z = seg.data();
      for (std::size_t j = 0; j < seg.size(); ++j) {
        z[j] = static_cast<float>(z[j] + scale * dev_sum_[off + j]);
      }
      off += seg.size();
    }
  }

  // The central average model is the model whose accuracy is reported.
  runtime_.global_model().copy_from(central_);
  result.merges += 1;
  for (std::size_t g = 0; g < n; ++g) {
    result.gpus[g].batch_size.push_back(b);
    result.gpus[g].updates.push_back(rounds);
  }
}

}  // namespace hetero::core
