#include "core/sync_sgd.h"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

namespace hetero::core {

void SyncSgdTrainer::run_megabatch(TrainResult& result) {
  const std::size_t n = runtime_.num_gpus();
  const std::size_t b = cfg_.batch_max;
  const double lr = cfg_.learning_rate * lr_schedule_factor();
  // A mega-batch is only an evaluation boundary for this method; the model
  // synchronizes every round. Rounds per mega-batch keep the processed
  // sample count identical across all trainers.
  const std::size_t rounds =
      std::max<std::size_t>(1, cfg_.batches_per_megabatch / n);

  auto& model = runtime_.global_model();
  std::vector<std::size_t> participated(n, 0);

  for (std::size_t round = 0; round < rounds; ++round) {
    // Round membership: devices that can still accept work (not stalled
    // past the horizon, not crashed). Synchronous data parallelism degrades
    // to the surviving workers, aggregating 1/|members| of the gradient
    // from each.
    std::vector<std::size_t> members;
    members.reserve(n);
    for (std::size_t g = 0; g < n; ++g) {
      if (runtime_.schedulable(g)) members.push_back(g);
    }
    if (members.empty()) {
      throw std::runtime_error("sync-sgd: no alive schedulable device");
    }

    // Barrier semantics: a round starts when every member has the new model.
    double round_start = 0.0;
    for (std::size_t g : members) {
      round_start = std::max(round_start, runtime_.gpu_free_at(g));
    }

    // Each member computes a partial gradient on its own batch; a device
    // crashing at dispatch loses its batch and drops out of the aggregate.
    std::vector<MultiGpuRuntime::Batch> batches;
    std::vector<std::size_t> contributed;
    batches.reserve(members.size());
    contributed.reserve(members.size());
    double grads_done = 0.0;
    for (std::size_t g : members) {
      auto batch = runtime_.next_batch(b);
      double done;
      try {
        done = runtime_.charge_step(g, batch.x, round_start);
      } catch (const sim::DeviceUnavailable&) {
        continue;
      }
      grads_done = std::max(grads_done, done);
      result.gpus[g].total_samples += b;
      participated[g] += 1;
      contributed.push_back(g);
      batches.push_back(std::move(batch));
    }
    if (contributed.empty()) continue;

    // Gradient all-reduce (model-sized buffer) over the contributing
    // subset, then every replica applies the aggregate — replicas stay
    // identical, so the math runs once on the canonical model. Gradients
    // must all be taken at the same model point: compute all first, then
    // apply each scaled by 1/|contributed| (equivalent to the average).
    // Under --merge-precision the exchange is billed at the compressed
    // wire size (cost-only modeling: the aggregate math stays fp32).
    const auto ar = runtime_.reducer().cost(contributed.size(),
                                            runtime_.virtual_model_wire());
    const double finish = grads_done + ar.seconds;
    for (std::size_t g : contributed) {
      runtime_.gpu(g).wait_all_until(finish);
    }
    result.comm_seconds += ar.seconds;

    const std::size_t k = contributed.size();
    runtime_.dispatch_math(0, [this, batches = std::move(batches), &model, lr,
                               k] {
      auto& ws = runtime_.workspace(0);
      std::vector<nn::ModelWorkspace> grads(k);
      for (std::size_t i = 0; i < k; ++i) {
        // Workspace 0 is reused for activations; gradients are swapped out
        // so later batches do not overwrite earlier ones.
        const auto stats =
            model.compute_gradients(batches[i].x, batches[i].y, ws);
        runtime_.record_loss(0, stats.loss);
        std::swap(ws.grad_w1, grads[i].grad_w1);
        std::swap(ws.grad_w, grads[i].grad_w);
        std::swap(ws.grad_b, grads[i].grad_b);
      }
      const float scaled_lr = static_cast<float>(lr / static_cast<double>(k));
      for (std::size_t i = 0; i < k; ++i) {
        runtime_.global_optimizer().apply(model, grads[i], scaled_lr, 0.0f);
      }
    });
    runtime_.math_barrier();
  }

  // Membership bookkeeping at the evaluation boundary.
  double all_free = 0.0;
  for (std::size_t g = 0; g < n; ++g) {
    all_free = std::max(all_free, runtime_.gpu(g).device_free_at());
  }
  runtime_.apply_crashes_until(all_free);
  runtime_.apply_joins_until(all_free);

  for (std::size_t g = 0; g < n; ++g) {
    result.gpus[g].batch_size.push_back(b);
    result.gpus[g].updates.push_back(participated[g]);
  }
  result.merges += 1;
}

}  // namespace hetero::core
