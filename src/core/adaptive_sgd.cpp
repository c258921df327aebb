#include "core/adaptive_sgd.h"

#include <algorithm>
#include <stdexcept>

#include "core/merging.h"
#include "util/logging.h"

namespace hetero::core {
namespace {

TrainerConfig with_preset(TrainerConfig cfg, Method method) {
  if (method == Method::kElastic) {
    cfg.dynamic_scheduling = false;
    cfg.enable_batch_scaling = false;
    cfg.enable_perturbation = false;
    cfg.adaptive_scaling_cadence = false;
    cfg.warmup_megabatches = 0;
    // Equal batch sizes make b/(n*b) the same double as 1.0/n.
    cfg.merge_normalization = MergeNormalization::kBatchSize;
  } else if (method != Method::kAdaptive) {
    throw std::invalid_argument("adaptive loop cannot run " +
                                to_string(method));
  }
  return cfg;
}

}  // namespace

AdaptiveSgdTrainer::AdaptiveSgdTrainer(const data::XmlDataset& dataset,
                                       const TrainerConfig& cfg,
                                       std::vector<sim::DeviceSpec> devices,
                                       Method method)
    : Trainer(dataset, with_preset(cfg, method), std::move(devices)),
      method_(method) {
  sgd_.resize(runtime_.num_gpus());
  for (auto& s : sgd_) {
    // The initial batch size is b_max, chosen to maximize GPU utilization
    // (Section V-A); lr is the optimal rate for b_max.
    s.batch_size = cfg_.batch_max;
    s.learning_rate = cfg_.learning_rate;
  }
}

double AdaptiveSgdTrainer::warmup_factor() const {
  if (cfg_.warmup_megabatches == 0 ||
      megabatch_index_ >= cfg_.warmup_megabatches) {
    return 1.0;
  }
  return static_cast<double>(megabatch_index_ + 1) /
         static_cast<double>(cfg_.warmup_megabatches);
}

void AdaptiveSgdTrainer::restore_progress(std::vector<GpuSgdState> sgd,
                                          std::size_t megabatch_index,
                                          std::size_t cursor) {
  if (sgd.size() != runtime_.num_gpus()) {
    throw std::runtime_error(method_name() +
                             ": checkpoint GPU count does not match runtime");
  }
  sgd_ = std::move(sgd);
  megabatch_index_ = megabatch_index;
  round_robin_cursor_ = cursor;
}

bool AdaptiveSgdTrainer::clamp_batch_to_memory(std::size_t g) {
  const std::size_t old_b = sgd_[g].batch_size;
  std::size_t feasible = std::min(
      runtime_.max_feasible_batch(g, runtime_.gpu_free_at(g)), cfg_.batch_max);
  if (feasible == 0) return false;
  std::size_t b = 1;
  while (b * 2 <= feasible) b *= 2;
  if (b >= old_b) return false;
  sgd_[g].learning_rate *=
      static_cast<double>(b) / static_cast<double>(old_b);  // linear scaling
  sgd_[g].batch_size = b;
  runtime_.fault_stats().oom_clamps += 1;
  HETERO_DEBUG << method_name() << ": gpu" << g << " OOM, batch " << old_b
               << " -> " << b;
  return true;
}

void AdaptiveSgdTrainer::run_megabatch(TrainResult& result) {
  const std::size_t n = runtime_.num_gpus();
  const std::size_t mega = cfg_.megabatch_samples();
  const double warmup = warmup_factor() * lr_schedule_factor();

  for (auto& s : sgd_) s.updates = 0;
  // Elastic SGD hands every mega-batch's batches out from GPU 0 again.
  if (method_ == Method::kElastic) round_robin_cursor_ = 0;

  // --- dynamic scheduling ---------------------------------------------------
  std::size_t assigned = 0;
  while (assigned < mega) {
    std::size_t g;
    if (cfg_.dynamic_scheduling) {
      g = runtime_.next_free_gpu();
    } else {
      // Static round-robin: a device that cannot take work (stalled past
      // the horizon or crashed) forfeits its slot to the earliest-free
      // survivor.
      g = round_robin_cursor_++ % n;
      if (!runtime_.schedulable(g)) g = runtime_.next_free_gpu();
    }
    const std::size_t b =
        std::min<std::size_t>(sgd_[g].batch_size, mega - assigned);
    auto batch = runtime_.next_batch(b);
    try {
      runtime_.run_update_step(g, std::move(batch),
                               sgd_[g].learning_rate * warmup,
                               runtime_.gpu_free_at(g));
    } catch (const sim::OutOfDeviceMemory&) {
      // The batch's samples are consumed but not learned from; the replica
      // retries subsequent dispatches at the clamped size (b_max rule).
      assigned += b;
      if (!clamp_batch_to_memory(g)) throw;
      continue;
    } catch (const sim::DeviceUnavailable&) {
      // Crashed mid-mega-batch: its in-flight batch is lost, membership is
      // updated at the merge boundary below.
      assigned += b;
      continue;
    }
    sgd_[g].updates += 1;
    result.gpus[g].total_samples += b;
    assigned += b;
  }

  // Synchronization point: merging starts when the last surviving replica
  // finishes. Crash membership flips here — at the merge boundary — after
  // all in-flight math has drained.
  double all_free = 0.0;
  for (std::size_t g = 0; g < n; ++g) {
    all_free = std::max(all_free, runtime_.gpu(g).device_free_at());
  }
  runtime_.math_barrier();
  runtime_.apply_crashes_until(all_free);

  double sync = 0.0;
  std::vector<std::size_t> alive;
  alive.reserve(n);
  for (std::size_t g = 0; g < n; ++g) {
    if (!runtime_.replica_alive(g)) continue;
    alive.push_back(g);
    sync = std::max(sync, runtime_.gpu(g).device_free_at());
  }
  if (alive.empty()) {
    throw std::runtime_error(method_name() + ": all replicas crashed");
  }

  // --- normalized model merging (Algorithm 2) ---------------------------------
  // Weights are computed over the alive set only (Algorithm 2 renormalizes
  // across survivors); a crashed replica's pending updates are dropped.
  MergeInputs inputs;
  inputs.pert_threshold = cfg_.pert_threshold;
  inputs.pert_delta = cfg_.pert_delta;
  inputs.enable_perturbation = cfg_.enable_perturbation;
  inputs.normalization = cfg_.merge_normalization;
  for (std::size_t g : alive) {
    inputs.updates.push_back(sgd_[g].updates);
    inputs.batch_sizes.push_back(sgd_[g].batch_size);
  }
  // The L2 norms matter only to the perturbation, which needs it enabled
  // and two replicas.
  if (cfg_.enable_perturbation && alive.size() > 1) {
    inputs.all_regularized =
        runtime_.replicas_l2_below(alive, cfg_.pert_threshold);
  }
  const auto weights = compute_merge_weights(inputs);
  const auto full =
      expand_alive_weights(weights.alpha, alive, runtime_.num_gpus());
  const auto timing = runtime_.merge_and_update(full, sync);

  result.merges += 1;
  if (weights.perturbed) result.perturbed_merges += 1;
  result.comm_seconds +=
      timing.allreduce_seconds + timing.host_roundtrip_seconds;

  // --- batch size scaling (Algorithm 1) -----------------------------------------
  // Record the batch size used DURING this mega-batch (Fig. 6a traces the
  // evolution across mega-batches), then scale for the next one.
  for (std::size_t g = 0; g < n; ++g) {
    result.gpus[g].batch_size.push_back(sgd_[g].batch_size);
    result.gpus[g].updates.push_back(sgd_[g].updates);
  }
  bool scale_now = cfg_.enable_batch_scaling;
  if (scale_now && cfg_.adaptive_scaling_cadence) {
    std::vector<std::size_t> current;
    current.reserve(n);
    for (const auto& s : sgd_) current.push_back(s.batch_size);
    scale_now = scheduler_.observe(current);
  }
  if (scale_now) {
    BatchScalingParams params;
    params.batch_min = cfg_.derived_batch_min();
    params.batch_max = cfg_.batch_max;
    params.beta = cfg_.derived_beta();
    // Algorithm 1 balances update rates across the machines that actually
    // ran this mega-batch; dead replicas would drag the mean to zero.
    std::vector<GpuSgdState> alive_sgd;
    alive_sgd.reserve(alive.size());
    for (std::size_t g : alive) alive_sgd.push_back(sgd_[g]);
    const auto outcome = scale_batch_sizes(alive_sgd, params);
    for (std::size_t i = 0; i < alive.size(); ++i) {
      sgd_[alive[i]] = alive_sgd[i];
    }
    if (outcome.any_change) result.scaling_updates += 1;
    HETERO_DEBUG << method_name() << ": mega-batch " << result.merges
                 << " mean updates " << outcome.mean_updates
                 << (weights.perturbed ? " [perturbed]" : "");
  }

  // Joins take effect after scaling so a fresh replica keeps b_max: it is
  // seeded from the just-merged global model with zero pending updates.
  for (std::size_t g : runtime_.apply_joins_until(timing.finish)) {
    sgd_[g] = GpuSgdState{cfg_.batch_max, cfg_.learning_rate, 0};
  }
  ++megabatch_index_;
}

}  // namespace hetero::core
