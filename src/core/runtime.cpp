#include "core/runtime.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cmath>
#include <utility>

#include "core/merging.h"
#include "tensor/vec/vec.h"

#include "util/logging.h"

namespace hetero::core {

namespace {

// Topology the runtime's device list implies: the last cfg.cpu_replicas
// entries are CPU compute replicas, the GPUs in front split node-major
// across cfg.num_nodes servers. At one node with no CPU replicas the link
// model degenerates to the original default_links() bit-for-bit.
sim::LinkModel build_links(const TrainerConfig& cfg,
                           std::size_t num_devices) {
  const std::size_t nodes = std::max<std::size_t>(1, cfg.num_nodes);
  const std::size_t cpus = std::min(cfg.cpu_replicas, num_devices);
  const auto topo =
      sim::Topology::partitioned(nodes, num_devices - cpus, cpus);
  return sim::cluster_links(topo, cfg.net_bandwidth_gbs,
                            cfg.net_latency_us);
}

}  // namespace

MultiGpuRuntime::MultiGpuRuntime(const data::XmlDataset& dataset,
                                 const TrainerConfig& cfg,
                                 std::vector<sim::DeviceSpec> devices)
    : dataset_(dataset),
      cfg_(cfg),
      links_(build_links(cfg, devices.size())),
      global_(dataset.train.features.cols(), cfg.derived_hidden_layers(),
              dataset.train.labels.cols()),
      stream_(dataset.train.num_samples(), cfg.seed ^ 0xa5a5a5a5ULL) {
  assert(!devices.empty());
  const std::size_t num_features = global_.info().num_features;

  util::Rng init_rng(cfg.seed);
  global_.init(init_rng);
  prev_global_ = global_;

  const std::size_t n = devices.size();
  replicas_.assign(n, global_);
  w1_fresh_.assign(n, 1);
  workspaces_.resize(n);
  for (std::size_t g = 0; g < n; ++g) {
    optimizers_.push_back(nn::Optimizer::make(cfg_.optimizer, replicas_[g]));
  }
  const std::size_t streams =
      cfg_.allreduce_streams != 0 ? cfg_.allreduce_streams : n;
  reducer_ =
      std::make_unique<comm::AllReducer>(cfg_.allreduce, links_, streams);
  executor_ =
      make_executor(cfg_.mode == ExecutionMode::kThreaded, n);

  util::Rng seeder(cfg.seed ^ 0x5bd1e995ULL);
  for (std::size_t g = 0; g < n; ++g) {
    gpus_.push_back(std::make_unique<sim::VirtualGpu>(
        static_cast<int>(g), devices[g], seeder.next_u64(), streams));
    // Persistent allocations: model replica + dense gradients plus one
    // model-sized state matrix per optimizer slot (adam/adamw: 2, adagrad:
    // 1, sgd: 0) stay resident for the whole run.
    gpus_.back()->allocate((2 + optimizers_[g]->num_slots()) *
                           global_.num_bytes());
  }
  // Cap absurd requests (e.g. --kernel-threads 100000) before sizing the
  // pool; oversubscription past this helps nobody.
  constexpr std::size_t kMaxKernelThreads = 256;
  const std::size_t kernel_threads = std::min(
      cfg_.kernel_threads != 0
          ? cfg_.kernel_threads
          : std::max<std::size_t>(1, std::thread::hardware_concurrency()),
      kMaxKernelThreads);
  if (kernel_threads > 1) {
    kernel_pool_ = std::make_unique<util::ThreadPool>(kernel_threads);
    for (auto& ws : workspaces_) {
      ws.ctx = kernels::Context{kernel_pool_.get(), kernel_threads};
    }
    merge_ctx_ = kernels::Context{kernel_pool_.get(), kernel_threads};
  }
  eval_ws_.ctx = merge_ctx_;
  last_batch_.resize(n);
  loss_slots_.resize(n);
  alive_.assign(n, 1);
  crash_time_.assign(n, 0.0);
  if (cfg_.sparse_merge) {
    touched_w1_.resize(n);
    for (auto& t : touched_w1_) t.reset(num_features);
    merge_union_.reset(num_features);
    merge_valid_.reserve(n);
    pull_bits_.assign(n, std::vector<std::uint64_t>((num_features + 63) / 64));
    pull_rows_.resize(n);
  }
  {
    // Flat layout of the model segments (residual indexing) and the dense
    // 512-block group count (cost-only billing of model-sized transfers).
    const auto segs = global_.segment_views();
    seg_offset_.resize(segs.size());
    std::size_t off = 0;
    for (std::size_t s = 0; s < segs.size(); ++s) {
      seg_offset_[s] = off;
      off += segs[s].size();
      model_groups_ += (segs[s].size() + kQuantGroupCols - 1) / kQuantGroupCols;
    }
  }
  if (compressed_merge()) {
    const std::size_t params = global_.num_parameters();
    residual_.resize(n);
    for (auto& r : residual_) r.assign(params, 0.0f);
    q16_scratch_.resize(n);
    q8_scratch_.resize(n);
    scale_scratch_.resize(n);
  }
}

nn::Model& MultiGpuRuntime::replica(std::size_t g) {
  resolve_replica(g);
  return replicas_[g];
}

nn::Optimizer& MultiGpuRuntime::global_optimizer() {
  if (!global_optimizer_) {
    global_optimizer_ = nn::Optimizer::make(cfg_.optimizer, global_);
  }
  return *global_optimizer_;
}

void MultiGpuRuntime::pull_stale_rows(std::size_t g,
                                      const sparse::CsrMatrix& x) {
  if (w1_fresh_[g]) return;
  // The batch's columns outside the touched set, deduplicated and sorted
  // through a one-bit-per-row bitmap as SparseGradient::reset keys them;
  // each word is cleared as it is read back.
  const auto& touched = touched_w1_[g];
  auto& bits = pull_bits_[g];
  auto& rows = pull_rows_[g];
  for (const auto c : x.col_idx()) {
    if (!touched.contains(c)) bits[c / 64] |= std::uint64_t{1} << (c % 64);
  }
  rows.clear();
  for (std::size_t w = 0; w < bits.size(); ++w) {
    std::uint64_t word = bits[w];
    if (word == 0) continue;
    bits[w] = 0;
    const auto base = static_cast<std::uint32_t>(w * 64);
    for (; word != 0; word &= word - 1) {
      rows.push_back(base + static_cast<std::uint32_t>(std::countr_zero(word)));
    }
  }
  // Rows are scattered over W1: prefetch both ends of the copy a few rows
  // ahead (the destination for writing), or each row waits on two misses.
  constexpr std::size_t kAhead = 8;
  constexpr std::size_t kLine = 64 / sizeof(float);
  const std::size_t cols = global_.info().input_cols();
  const float* src = global_.weights(0).data();
  float* dst = replicas_[g].weights(0).data();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i + kAhead < rows.size()) {
      const std::size_t next =
          static_cast<std::size_t>(rows[i + kAhead]) * cols;
      for (std::size_t k = 0; k < cols; k += kLine) {
        __builtin_prefetch(src + next + k);
        __builtin_prefetch(dst + next + k, 1);
      }
    }
    const std::size_t off = static_cast<std::size_t>(rows[i]) * cols;
    std::copy_n(src + off, cols, dst + off);
  }
}

void MultiGpuRuntime::resolve_replica(std::size_t g) {
  if (w1_fresh_[g]) return;
  math_barrier();
  // Every W1 row outside the touched set, in maximal runs between touched
  // rows so the copy runs at memcpy speed.
  const auto& touched = touched_w1_[g];
  const std::size_t rows = global_.info().input_rows();
  const std::size_t cols = global_.info().input_cols();
  const float* src = global_.weights(0).data();
  float* dst = replicas_[g].weights(0).data();
  kernels::parallel_for_ranges(
      merge_ctx_, rows, rows * cols, [&](std::size_t r0, std::size_t r1) {
        for (std::size_t r = r0; r < r1;) {
          if (touched.contains(static_cast<std::uint32_t>(r))) {
            ++r;
            continue;
          }
          std::size_t e = r + 1;
          while (e < r1 && !touched.contains(static_cast<std::uint32_t>(e))) {
            ++e;
          }
          std::copy(src + r * cols, src + e * cols, dst + r * cols);
          r = e;
        }
      });
  w1_fresh_[g] = 1;
}

double MultiGpuRuntime::gpu_free_at(std::size_t g) const {
  return gpus_[g]->next_schedulable(gpus_[g]->stream_free_at(0));
}

std::size_t MultiGpuRuntime::next_free_gpu() const {
  std::size_t best = gpus_.size();
  double best_free = std::numeric_limits<double>::infinity();
  for (std::size_t g = 0; g < gpus_.size(); ++g) {
    if (!replica_alive(g)) continue;
    const double free = gpu_free_at(g);
    if (free < best_free) {
      best = g;
      best_free = free;
    }
  }
  if (best == gpus_.size()) {
    throw std::runtime_error(
        "next_free_gpu: no alive schedulable device (all replicas crashed "
        "or stalled forever)");
  }
  return best;
}

std::size_t MultiGpuRuntime::num_alive() const {
  std::size_t n = 0;
  for (const char a : alive_) n += a != 0;
  return n;
}

void MultiGpuRuntime::schedule_crash(std::size_t g, double time) {
  assert(g < gpus_.size());
  gpus_[g]->kill_at(time);
  const MembershipEvent ev{g, time};
  auto it = std::upper_bound(
      pending_crashes_.begin() + static_cast<std::ptrdiff_t>(crash_cursor_),
      pending_crashes_.end(), ev,
      [](const MembershipEvent& a, const MembershipEvent& b) {
        return a.time < b.time;
      });
  pending_crashes_.insert(it, ev);
}

void MultiGpuRuntime::schedule_join(std::size_t g, double time) {
  assert(g < gpus_.size());
  const MembershipEvent ev{g, time};
  auto it = std::upper_bound(
      pending_joins_.begin() + static_cast<std::ptrdiff_t>(join_cursor_),
      pending_joins_.end(), ev,
      [](const MembershipEvent& a, const MembershipEvent& b) {
        return a.time < b.time;
      });
  pending_joins_.insert(it, ev);
}

std::vector<std::size_t> MultiGpuRuntime::apply_crashes_until(double t) {
  std::vector<std::size_t> crashed;
  while (crash_cursor_ < pending_crashes_.size() &&
         pending_crashes_[crash_cursor_].time <= t) {
    const auto ev = pending_crashes_[crash_cursor_++];
    if (!alive_[ev.device]) continue;  // already dead (e.g. restored state)
    alive_[ev.device] = 0;
    crash_time_[ev.device] = ev.time;
    // Drop the crashed replica's pending merge contributions: its
    // touched-row union, accumulated loss, and error-feedback residual
    // vanish with the device. Its stale rows are copied in first, while
    // the touched set still tells them apart and global still holds the
    // model it last merged into.
    if (cfg_.sparse_merge) {
      resolve_replica(ev.device);
      touched_w1_[ev.device].clear();
    }
    if (!residual_.empty()) {
      std::fill(residual_[ev.device].begin(), residual_[ev.device].end(),
                0.0f);
    }
    optimizers_[ev.device]->reset_state();
    loss_slots_[ev.device] = LossSlot{};
    fault_stats_.crashes += 1;
    crashed.push_back(ev.device);
  }
  return crashed;
}

std::vector<std::size_t> MultiGpuRuntime::apply_joins_until(double t) {
  std::vector<std::size_t> joined;
  while (join_cursor_ < pending_joins_.size() &&
         pending_joins_[join_cursor_].time <= t) {
    const auto ev = pending_joins_[join_cursor_++];
    if (alive_[ev.device]) continue;  // already a member (restored state)
    gpus_[ev.device]->revive_at(t);
    replicas_[ev.device].copy_from(global_);
    w1_fresh_[ev.device] = 1;
    // A joiner seeds from the merged global model; any residual left from
    // its previous membership describes deltas that no longer exist.
    if (!residual_.empty()) {
      std::fill(residual_[ev.device].begin(), residual_[ev.device].end(),
                0.0f);
    }
    // The joiner's moments described a trajectory that ended at its crash;
    // it restarts from the merged global model with fresh optimizer state.
    optimizers_[ev.device]->reset_state();
    alive_[ev.device] = 1;
    fault_stats_.joins += 1;
    // Outage time: from the crash event to the merge boundary that
    // re-admitted the replica.
    fault_stats_.recovery_seconds += t - crash_time_[ev.device];
    joined.push_back(ev.device);
  }
  return joined;
}

MultiGpuRuntime::Batch MultiGpuRuntime::next_batch(std::size_t n) {
  const auto rows = stream_.next(n);
  return {dataset_.train.features.gather_rows(rows),
          dataset_.train.labels.gather_rows(rows)};
}

double MultiGpuRuntime::charge_step(std::size_t g, const sparse::CsrMatrix& x,
                                    double earliest_start) {
  // Host -> GPU batch transfer. With double buffering the transfer of this
  // batch overlaps the device's previous compute: it starts when the batch
  // is dispatched (earliest_start) and only delays the kernels if the
  // device would otherwise start sooner.
  const std::size_t batch_bytes =
      x.nnz() * (sizeof(std::uint32_t) + sizeof(float)) +
      (x.rows() + 1) * sizeof(std::size_t);
  const double xfer =
      links_.transfer_seconds(batch_bytes, sim::LinkModel::kHost,
                              static_cast<int>(g));
  const double data_ready = earliest_start + xfer;

  auto kernels = global_.step_kernels(x);
  const double work_scale = cfg_.framework_overhead * cfg_.compute_scale;
  if (work_scale != 1.0) {
    for (auto& k : kernels) {
      k.flops *= work_scale;
      k.bytes *= work_scale;
    }
  }
  // Transient training state (activations, deltas, batch CSR, sparse
  // gradient rows) must fit next to the resident model; this is the
  // constraint that caps b_max in Section V-A. The reservation is released
  // when the step completes (sequentially ordered on the compute stream).
  const double avg_nnz = x.rows() > 0 ? static_cast<double>(x.nnz()) /
                                            static_cast<double>(x.rows())
                                      : 0.0;
  const std::size_t step_bytes = global_.step_memory_bytes(x.rows(), avg_nnz);
  // Resolve the true kernel start (past any stall window) before touching
  // device state: a dead device must throw before the allocation so no
  // memory leaks on the unavailable path, and the OOM check must use the
  // memory cap in effect when the step actually runs.
  const double start = gpus_[g]->next_available(
      std::max(data_ready, gpus_[g]->stream_free_at(0)));
  if (gpus_[g]->dead_at(start)) {
    gpus_[g]->wait_all_until(gpus_[g]->dead_after());
    throw sim::DeviceUnavailable(static_cast<int>(g), start);
  }
  gpus_[g]->allocate(step_bytes, start);

  const double finish =
      gpus_[g]->submit(/*stream=*/0, kernels, data_ready, cfg_.fused_kernels,
                       /*active_managers=*/gpus_.size());
  gpus_[g]->free(step_bytes);
  if (tracer_ != nullptr) {
    tracer_->add({"sgd_step b=" + std::to_string(x.rows()) +
                      " nnz=" + std::to_string(x.nnz()),
                  "compute", static_cast<int>(g), 0, start, finish - start});
  }
  return finish;
}

double MultiGpuRuntime::run_update_step(std::size_t g, Batch batch, double lr,
                                        double earliest_start) {
  const double finish = charge_step(g, batch.x, earliest_start);
  auto stored = std::make_shared<Batch>(std::move(batch));
  last_batch_[g] = stored;
  executor_->dispatch(g, [this, g, stored, lr] {
    pull_stale_rows(g, stored->x);
    // compute + apply through the optimizer: for sgd this is bit-identical
    // to the old fused train_step (train_step == compute_gradients +
    // apply_gradients, and SgdOptimizer::apply IS apply_gradients).
    const auto stats = replicas_[g].compute_gradients(stored->x, stored->y,
                                                      workspaces_[g]);
    optimizers_[g]->apply(replicas_[g], workspaces_[g],
                          static_cast<float>(lr),
                          static_cast<float>(cfg_.weight_decay));
    // Delta-merge bookkeeping rides inside the manager's work item: the
    // workspace gradient keys are only valid until the next step on g.
    if (cfg_.sparse_merge) {
      touched_w1_[g].add(workspaces_[g].grad_w1.rows());
    }
    loss_slots_[g].sum += stats.loss;
    loss_slots_[g].count += 1;
  });
  return finish;
}

double MultiGpuRuntime::run_gradient_step(std::size_t g, Batch batch,
                                          double earliest_start) {
  const double finish = charge_step(g, batch.x, earliest_start);
  auto stored = std::make_shared<Batch>(std::move(batch));
  last_batch_[g] = stored;
  executor_->dispatch(g, [this, g, stored] {
    pull_stale_rows(g, stored->x);
    const auto stats =
        replicas_[g].compute_gradients(stored->x, stored->y, workspaces_[g]);
    // Conservative for gradient-only steps (the rows may be applied later
    // by the trainer): over-tracking only widens the reduced union, which
    // stays bit-identical — under-tracking is what would break the merge.
    if (cfg_.sparse_merge) {
      touched_w1_[g].add(workspaces_[g].grad_w1.rows());
    }
    loss_slots_[g].sum += stats.loss;
    loss_slots_[g].count += 1;
  });
  return finish;
}

double MultiGpuRuntime::take_mean_loss() {
  double sum = 0.0;
  std::size_t count = 0;
  for (auto& slot : loss_slots_) {
    sum += slot.sum;
    count += slot.count;
    slot = LossSlot{};
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

double MultiGpuRuntime::host_roundtrip_seconds() const {
  return host_roundtrip_seconds(virtual_model_bytes());
}

comm::WirePayload MultiGpuRuntime::virtual_wire(std::size_t params,
                                                std::size_t groups) const {
  if (!compressed_merge()) {
    // Reproduce virtual_payload_bytes exactly (size_t cast included) so the
    // fp32 billing stays bit-identical to the uncompressed code path.
    return comm::WirePayload{
        static_cast<double>(virtual_payload_bytes(params)), 0.0};
  }
  comm::WirePayload w =
      comm::wire_payload(cfg_.merge_precision, groups, params);
  w.payload_bytes *= cfg_.comm_scale;
  w.metadata_bytes *= cfg_.comm_scale;
  return w;
}

comm::WirePayload MultiGpuRuntime::virtual_model_wire() const {
  return virtual_wire(global_.num_parameters(), model_groups_);
}

std::size_t MultiGpuRuntime::build_quant_groups(
    std::span<const std::uint32_t> union_rows, std::size_t hidden) {
  quant_groups_.clear();
  const auto segs = global_.segment_views();
  std::size_t dst = 0;
  const auto add_dense_segment = [&](std::size_t s) {
    const std::size_t len = segs[s].size();
    for (std::size_t o = 0; o < len; o += kQuantGroupCols) {
      const std::size_t blen = std::min(kQuantGroupCols, len - o);
      quant_groups_.push_back({s, o, seg_offset_[s] + o, dst, blen});
      dst += blen;
    }
  };
  if (cfg_.sparse_merge) {
    // One scale group per union W1 row (segment 0 by the Model contract),
    // then 512-blocks of the dense tail.
    for (const std::uint32_t r : union_rows) {
      const std::size_t off = static_cast<std::size_t>(r) * hidden;
      quant_groups_.push_back({0, off, seg_offset_[0] + off, dst, hidden});
      dst += hidden;
    }
    for (std::size_t s = 1; s < segs.size(); ++s) add_dense_segment(s);
  } else {
    for (std::size_t s = 0; s < segs.size(); ++s) add_dense_segment(s);
  }
  return dst;
}

double MultiGpuRuntime::host_roundtrip_seconds(std::size_t bytes) const {
  const double up =
      links_.transfer_seconds(bytes, 0, sim::LinkModel::kHost, 1);
  const double down = links_.transfer_seconds(bytes, sim::LinkModel::kHost, 0,
                                              gpus_.size());
  return up + down;
}

std::size_t MultiGpuRuntime::merge_optimizer_state(
    std::span<const std::size_t> alive_idx,
    std::span<const double> alive_weights) {
  const std::size_t num_slots = optimizers_[alive_idx[0]]->num_slots();
  if (num_slots == 0) return 0;  // sgd: nothing to merge
  const std::size_t n = alive_idx.size();
  switch (cfg_.moment_merge) {
    case MomentMerge::kKeep:
      return 0;
    case MomentMerge::kReset:
      for (const std::size_t g : alive_idx) optimizers_[g]->reset_state();
      return 0;
    case MomentMerge::kAverage:
      break;
  }

  // Algorithm-2 weights renormalized to sum 1: the perturbation may
  // deliberately denormalize the model weights, but state matrices are
  // magnitude-bearing (second moments, accumulators) and must stay a
  // convex combination.
  double wsum = 0.0;
  for (const double w : alive_weights) wsum += w;
  std::vector<double> nw(n);
  for (std::size_t i = 0; i < n; ++i) nw[i] = alive_weights[i] / wsum;

  // Per element: merged = float(sum_i nw_i * s_i[j]) accumulated in double
  // in replica index order, written back to every alive replica. Sharding
  // partitions elements without reordering any sum — bit-identical at any
  // thread count, like the model merge kernels.
  const auto average_span = [&](std::span<float* const> bases,
                                std::size_t off, std::size_t len) {
    for (std::size_t j = off; j < off + len; ++j) {
      double acc = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        acc += nw[i] * static_cast<double>(bases[i][j]);
      }
      const float merged = static_cast<float>(acc);
      for (std::size_t i = 0; i < n; ++i) bases[i][j] = merged;
    }
  };
  const auto average_region = [&](std::span<float* const> bases,
                                  std::size_t len) {
    kernels::parallel_for_ranges(merge_ctx_, len, len * n,
                                 [&](std::size_t b, std::size_t e) {
                                   average_span(bases, b, e - b);
                                 });
  };

  const auto& info = global_.info();
  const std::size_t hidden = info.input_cols();
  std::vector<float*> bases(n);
  std::size_t shipped = 0;
  for (std::size_t slot = 0; slot < num_slots; ++slot) {
    std::vector<std::vector<std::span<float>>> views;
    views.reserve(n);
    for (const std::size_t g : alive_idx) {
      views.push_back(optimizers_[g]->slot_views(slot));
    }
    const std::size_t num_segments = views[0].size();
    std::size_t first_dense = 0;
    if (cfg_.sparse_merge) {
      // Segment 0: the touched union only — untouched rows keep local
      // state, which is still bit-equal across replicas (any previously
      // touched row was averaged at the merge that shipped it).
      for (std::size_t i = 0; i < n; ++i) bases[i] = views[i][0].data();
      const std::span<const std::uint32_t> rows = merge_rows_scratch_;
      kernels::parallel_for_ranges(
          merge_ctx_, rows.size(), rows.size() * hidden * n,
          [&](std::size_t r0, std::size_t r1) {
            for (std::size_t s = r0; s < r1; ++s) {
              average_span(bases,
                           static_cast<std::size_t>(rows[s]) * hidden,
                           hidden);
            }
          });
      shipped += rows.size() * hidden;
      first_dense = 1;
    }
    for (std::size_t seg = first_dense; seg < num_segments; ++seg) {
      for (std::size_t i = 0; i < n; ++i) bases[i] = views[i][seg].data();
      average_region(bases, views[0][seg].size());
      shipped += views[0][seg].size();
    }
  }

  // Lazy row counters (adam/adamw): a merged moment reflects the most
  // advanced replica's trajectory, so counters take the max — written back
  // so the survivor set stays bit-equal. Dense-tail step likewise.
  if (!optimizers_[alive_idx[0]]->row_steps().empty()) {
    std::vector<std::span<std::uint32_t>> steps;
    steps.reserve(n);
    for (const std::size_t g : alive_idx) {
      steps.push_back(optimizers_[g]->row_steps());
    }
    const auto sync_row = [&](std::size_t r) {
      std::uint32_t m = 0;
      for (std::size_t i = 0; i < n; ++i) m = std::max(m, steps[i][r]);
      for (std::size_t i = 0; i < n; ++i) steps[i][r] = m;
    };
    if (cfg_.sparse_merge) {
      for (const std::uint32_t r : merge_rows_scratch_) sync_row(r);
    } else {
      for (std::size_t r = 0; r < info.input_rows(); ++r) sync_row(r);
    }
  }
  std::uint64_t max_step = 0;
  for (const std::size_t g : alive_idx) {
    max_step = std::max(max_step, optimizers_[g]->step());
  }
  for (const std::size_t g : alive_idx) optimizers_[g]->set_step(max_step);
  return shipped;
}

MultiGpuRuntime::MergeTiming MultiGpuRuntime::merge_and_update(
    std::span<const double> weights, double sync_time) {
  assert(weights.size() == replicas_.size());
  math_barrier();

  MergeTiming timing;
  // Elastic membership: the merge group is the alive subset. Survivor
  // weights are compacted in replica index order, which preserves the
  // deterministic accumulation contract (replica 0 of the survivor set
  // initializes, the rest add in order) — bit-identical to a run over the
  // survivors alone.
  std::vector<std::size_t> alive_idx;
  alive_idx.reserve(replicas_.size());
  for (std::size_t g = 0; g < replicas_.size(); ++g) {
    if (alive_[g]) alive_idx.push_back(g);
  }
  const std::size_t n = alive_idx.size();
  assert(n > 0 && "merge_and_update: every replica is dead");
  if (n < replicas_.size()) fault_stats_.degraded_merges += 1;
  std::vector<double> alive_weights(n);
  for (std::size_t i = 0; i < n; ++i) alive_weights[i] = weights[alive_idx[i]];
  const MergeUpdate update{alive_weights, cfg_.momentum_gamma,
                           cfg_.enable_momentum};

  // Fused reduce + momentum over the model segments in place (Section IV:
  // the model update is executed by the scheduler — fewer CPU-GPU
  // transfers). No to_flat()/from_flat() staging and no model-sized
  // accumulator: the kernels stream each replica once and write only the
  // global/previous-global models; the hand-back below refreshes replicas.
  auto global_segs = global_.segment_views();
  auto prev_segs = prev_global_.segment_views();
  std::vector<std::vector<std::span<float>>> replica_segs;
  replica_segs.reserve(n);
  for (const std::size_t g : alive_idx) {
    replica_segs.push_back(replicas_[g].segment_views());
  }
  const std::size_t num_segments = global_segs.size();
  std::vector<const float*> bases(n);
  const auto merge_dense_segment = [&](std::size_t s) {
    for (std::size_t i = 0; i < n; ++i) bases[i] = replica_segs[i][s].data();
    merge_segment(bases, global_segs[s].size(), update, global_segs[s],
                  prev_segs[s], reducer_->num_streams(), merge_ctx_);
  };

  std::size_t payload_params = global_.num_parameters();
  std::size_t payload_groups = 0;
  if (!compressed_merge()) {
    // ---- fp32 (bit-exact oracle) path: ships raw floats. ----------------
    if (!cfg_.sparse_merge) {
      for (std::size_t s = 0; s < num_segments; ++s) merge_dense_segment(s);
    } else {
      // Delta path: only the cross-replica union of touched input-layer rows
      // is reduced; untouched rows — reading as global in every replica
      // since the last merge — collapse to the closed-form
      // sum_i w_i * global_row, same accumulation order. Within the union,
      // a replica's untouched row is stale and reads from global too. The
      // sparse layer is segment 0 of segment_views() by the Model contract.
      merge_union_.clear();
      // Crashed replicas' unions were dropped at apply_crashes_until; union
      // only the alive members so the reduced set matches the survivor run.
      merge_valid_.clear();
      for (const std::size_t g : alive_idx) {
        merge_valid_.push_back(&touched_w1_[g]);
        merge_union_.add(touched_w1_[g]);
      }
      merge_union_.sorted_rows(merge_rows_scratch_);
      const auto& info = global_.info();
      const std::size_t hidden = info.input_cols();
      for (std::size_t i = 0; i < n; ++i) bases[i] = replica_segs[i][0].data();
      merge_touched_rows(bases, merge_rows_scratch_, hidden, update,
                         global_segs[0].data(), prev_segs[0].data(),
                         merge_ctx_, merge_valid_);
      merge_untouched_rows(merge_union_, info.input_rows(), hidden, update,
                           global_segs[0], prev_segs[0], merge_ctx_);
      for (std::size_t s = 1; s < num_segments; ++s) merge_dense_segment(s);
      for (auto& t : touched_w1_) t.clear();
      timing.touched_rows = merge_union_.size();
      // Communication payload: the touched-row delta plus the dense tail.
      payload_params =
          merge_union_.size() * hidden +
          (global_.num_parameters() - info.input_rows() * hidden);
    }
  } else {
    // ---- Compressed merge: ship quantized deltas with error feedback. ---
    // Each replica's contribution is its delta d_i = replica - global (the
    // pending residual folded in), quantized per cfg.merge_precision; the
    // fused merge reconstructs wsum*global + sum_i w_i*dequant(q_i). See
    // DESIGN.md §10 for the pass structure and determinism argument.
    const auto& info = global_.info();
    const std::size_t hidden = info.input_cols();
    std::span<const std::uint32_t> union_rows{};
    if (cfg_.sparse_merge) {
      merge_union_.clear();
      for (const std::size_t g : alive_idx) merge_union_.add(touched_w1_[g]);
      merge_union_.sorted_rows(merge_rows_scratch_);
      union_rows = merge_rows_scratch_;
      timing.touched_rows = merge_union_.size();
    }
    const std::size_t elems = build_quant_groups(union_rows, hidden);
    const std::size_t num_groups = quant_groups_.size();
    payload_params = elems;
    payload_groups = num_groups;
    const auto& vk = vec::kernels();
    const bool is_i8 = cfg_.merge_precision == comm::MergePrecision::kInt8;
    // Summed merge weight for the global term of the delta reconstruction
    // (fixed summation order over the survivor set).
    double wsum = 0.0;
    for (const double w : alive_weights) wsum += w;

    // Pass A — error feedback: r += replica - global over the merge region
    // (pre-merge global). W1 rows outside the union keep their pending
    // residual until a later merge ships them. A union row the replica did
    // not touch is stale and reads as global, whose row is its value.
    for (std::size_t i = 0; i < n; ++i) {
      float* res = residual_[alive_idx[i]].data();
      const auto& rsegs = replica_segs[i];
      const sparse::RowSet* valid =
          cfg_.sparse_merge ? &touched_w1_[alive_idx[i]] : nullptr;
      kernels::parallel_for_ranges(
          merge_ctx_, num_groups, elems, [&](std::size_t g0, std::size_t g1) {
            for (std::size_t g = g0; g < g1; ++g) {
              const auto& q = quant_groups_[g];
              const float* src = rsegs[q.seg].data() + q.off;
              if (q.seg == 0 && valid != nullptr &&
                  !valid->contains(
                      static_cast<std::uint32_t>(q.off / hidden))) {
                src = global_segs[0].data() + q.off;
              }
              vk.ef_delta(src, global_segs[q.seg].data() + q.off,
                          res + q.flat, q.len);
            }
          });
    }
    if (cfg_.sparse_merge) {
      for (auto& t : touched_w1_) t.clear();
    }

    // Pass B — quantize from the residuals (retry-safe: the residuals are
    // not modified until pass D).
    std::vector<const std::uint16_t*> code16(n, nullptr);
    std::vector<const std::int8_t*> code8(n, nullptr);
    std::vector<const float*> scale_ptrs(n, nullptr);
    // Scale the fp16 codes were actually quantized with (the loss-scale
    // guard may grow past it after a clean merge).
    float quant_scale = loss_scale_.scale;
    if (is_i8) {
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t g = alive_idx[i];
        q8_scratch_[g].resize(elems);
        scale_scratch_[g].resize(num_groups);
        float* scales = scale_scratch_[g].data();
        std::int8_t* codes = q8_scratch_[g].data();
        const float* res = residual_[g].data();
        kernels::parallel_for_ranges(
            merge_ctx_, num_groups, elems,
            [&](std::size_t g0, std::size_t g1) {
              for (std::size_t k = g0; k < g1; ++k) {
                const auto& q = quant_groups_[k];
                const float amax = vk.absmax(res + q.flat, q.len);
                float store = 0.0f;  // wire scale: code * store = value
                float mult = 0.0f;   // quantization multiplier
                if (amax > 0.0f && std::isfinite(amax)) {
                  store = amax / 127.0f;
                  mult = 127.0f / amax;
                }
                scales[k] = store;
                vk.quant_i8(res + q.flat, codes + q.dst, mult, q.len);
              }
            });
        code8[i] = codes;
        scale_ptrs[i] = scales;
      }
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        q16_scratch_[alive_idx[i]].resize(elems);
      }
      // Dynamic loss scale: halve and requantize while any element
      // overflows fp16 range; only the *count being nonzero* matters, so
      // the retry decision is deterministic on every ISA.
      bool any_overflow = false;
      for (;;) {
        const float s = loss_scale_.scale;
        quant_scale = s;
        std::atomic<std::size_t> over{0};
        for (std::size_t i = 0; i < n; ++i) {
          const std::size_t g = alive_idx[i];
          std::uint16_t* codes = q16_scratch_[g].data();
          const float* res = residual_[g].data();
          kernels::parallel_for_ranges(
              merge_ctx_, num_groups, elems,
              [&](std::size_t g0, std::size_t g1) {
                std::size_t local = 0;
                for (std::size_t k = g0; k < g1; ++k) {
                  const auto& q = quant_groups_[k];
                  local += vk.quant_fp16(res + q.flat, codes + q.dst, s,
                                         q.len);
                }
                over.fetch_add(local, std::memory_order_relaxed);
              });
        }
        if (over.load(std::memory_order_relaxed) == 0) break;
        any_overflow = true;
        const float before = loss_scale_.scale;
        loss_scale_.on_overflow();
        if (loss_scale_.scale == before) break;  // at the floor; ship as-is
      }
      // Grow the scale only *after* this merge: the codes above were
      // quantized with quant_scale, so dequant must use exactly that scale
      // or every shipped delta lands at half magnitude on a growth merge.
      if (!any_overflow) loss_scale_.on_clean_merge();
      for (std::size_t i = 0; i < n; ++i) {
        code16[i] = q16_scratch_[alive_idx[i]].data();
      }
    }
    const float inv_scale = 1.0f / quant_scale;

    // Pass C — fused quantized merge + momentum, region by region.
    QuantizedSources qsrc;
    qsrc.precision = cfg_.merge_precision;
    qsrc.dequant_scale = inv_scale;
    std::vector<const std::uint16_t*> r16(n);
    std::vector<const std::int8_t*> r8(n);
    std::vector<const float*> rsc(n);
    const auto region_sources = [&](std::size_t code_off,
                                    std::size_t scale_off) {
      if (is_i8) {
        for (std::size_t i = 0; i < n; ++i) {
          r8[i] = code8[i] + code_off;
          rsc[i] = scale_ptrs[i] + scale_off;
        }
        qsrc.i8 = r8;
        qsrc.scales = rsc;
        qsrc.fp16 = {};
      } else {
        for (std::size_t i = 0; i < n; ++i) r16[i] = code16[i] + code_off;
        qsrc.fp16 = r16;
        qsrc.i8 = {};
        qsrc.scales = {};
      }
    };
    std::size_t code_off = 0;
    std::size_t scale_off = 0;
    std::size_t first_dense = 0;
    if (cfg_.sparse_merge) {
      region_sources(0, 0);
      merge_touched_rows_quantized(qsrc, union_rows, hidden, wsum, update,
                                   global_segs[0].data(),
                                   prev_segs[0].data(), merge_ctx_);
      merge_untouched_rows(merge_union_, info.input_rows(), hidden, update,
                           global_segs[0], prev_segs[0], merge_ctx_);
      code_off = union_rows.size() * hidden;
      scale_off = union_rows.size();
      first_dense = 1;
    }
    for (std::size_t s = first_dense; s < num_segments; ++s) {
      region_sources(code_off, scale_off);
      merge_segment_quantized(qsrc, global_segs[s].size(), wsum, update,
                              global_segs[s], prev_segs[s],
                              reducer_->num_streams(), merge_ctx_);
      code_off += global_segs[s].size();
      scale_off +=
          (global_segs[s].size() + kQuantGroupCols - 1) / kQuantGroupCols;
    }

    // Pass D — residual update: r -= dequant(q), leaving exactly the
    // quantization error to be re-injected into the next merge.
    for (std::size_t i = 0; i < n; ++i) {
      float* res = residual_[alive_idx[i]].data();
      const std::uint16_t* codes16 = code16[i];
      const std::int8_t* codes8 = code8[i];
      const float* scales = scale_ptrs[i];
      kernels::parallel_for_ranges(
          merge_ctx_, num_groups, elems, [&](std::size_t g0, std::size_t g1) {
            for (std::size_t k = g0; k < g1; ++k) {
              const auto& q = quant_groups_[k];
              if (is_i8) {
                vk.residual_i8(codes8 + q.dst, scales[k], res + q.flat,
                               q.len);
              } else {
                vk.residual_fp16(codes16 + q.dst, inv_scale, res + q.flat,
                                 q.len);
              }
            }
          });
    }
  }
  // Merge-boundary policy for the per-replica optimizer state; must run
  // while merge_rows_scratch_ still holds this merge's touched union.
  const std::size_t moment_params =
      merge_optimizer_state(alive_idx, alive_weights);
  if (cfg_.sparse_merge) {
    // Hand back the dense tail only; W1 rows are pulled on first touch.
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t s = 1; s < num_segments; ++s) {
        std::copy(global_segs[s].begin(), global_segs[s].end(),
                  replica_segs[i][s].begin());
      }
      w1_fresh_[alive_idx[i]] = 0;
    }
  } else {
    broadcast_global();
  }

  // Charge the collective at the simulated (paper-scale) payload size, like
  // every other kernel/transfer cost; compressed merges bill the quantized
  // element bytes plus their scale/header metadata. The moment-merge state
  // exchange ships as raw fp32 regardless of cfg.merge_precision.
  auto wire = virtual_wire(payload_params, payload_groups);
  if (moment_params != 0) {
    wire.payload_bytes +=
        static_cast<double>(virtual_payload_bytes(moment_params));
  }
  // Bill the collective over the surviving ranks' actual topology: on one
  // node this is the flat collective (bit-identical to the scalar query);
  // across nodes it is the two-level intra-ring + chunked inter-node ring.
  const auto cost = reducer_->cost(std::span<const std::size_t>(alive_idx),
                                   wire);
  timing.allreduce_seconds = cost.seconds;
  timing.payload_bytes = cost.payload_bytes;
  timing.wire_bytes = cost.wire_bytes;
  timing.host_roundtrip_seconds =
      host_roundtrip_seconds(static_cast<std::size_t>(wire.total()));

  timing.finish =
      sync_time + timing.allreduce_seconds + timing.host_roundtrip_seconds;
  // Dead devices' clocks stay frozen at the crash point (they rejoin via
  // revive_at, which advances them to the admitting boundary).
  for (std::size_t g = 0; g < gpus_.size(); ++g) {
    if (alive_[g]) gpus_[g]->wait_all_until(timing.finish);
  }
  if (tracer_ != nullptr) {
    for (std::size_t g = 0; g < gpus_.size(); ++g) {
      tracer_->add({"allreduce_merge", "comm", static_cast<int>(g), 0,
                    sync_time, timing.allreduce_seconds});
    }
    tracer_->add({"momentum_global_update", "merge", /*device=*/-1, 0,
                  sync_time + timing.allreduce_seconds,
                  timing.host_roundtrip_seconds});
  }
  if (publish_hook_) publish_hook_(global_, timing.finish);
  return timing;
}

bool MultiGpuRuntime::replicas_l2_below(std::span<const std::size_t> replicas,
                                        double threshold) {
  const auto exact_below = [&](std::size_t g) {
    return replica(g).l2_norm_per_parameter() < threshold;
  };
  if (!cfg_.sparse_merge) {
    return std::all_of(replicas.begin(), replicas.end(), exact_below);
  }
  // Read at the gate, not cached from the merge: a write through the
  // non-const global_model() (restore, tests) would leave a cached norm
  // stale.
  const auto global_segs = std::as_const(global_).segment_views();
  const double global_l2 = l2_per_parameter(global_segs, merge_ctx_);
  const std::size_t cols = global_.info().input_cols();
  for (const std::size_t g : replicas) {
    // D reads only touched rows and the dense tail, which are current in a
    // stale replica.
    switch (certify_l2_below(std::as_const(replicas_[g]).segment_views(),
                             global_segs, touched_w1_[g].rows(), cols,
                             global_l2, threshold, merge_ctx_)) {
      case L2Gate::kBelow:
        break;
      case L2Gate::kNotBelow:
        return false;
      case L2Gate::kUndecided:
        if (!exact_below(g)) return false;
        break;
    }
  }
  return true;
}

void MultiGpuRuntime::broadcast_global() {
  for (std::size_t g = 0; g < replicas_.size(); ++g) {
    if (!alive_[g]) continue;  // dead replicas rejoin later
    replicas_[g].copy_from(global_);
    w1_fresh_[g] = 1;
  }
}

void MultiGpuRuntime::record_curve_point(TrainResult& result, double vtime,
                                         std::size_t megabatch,
                                         double train_loss) {
  const auto eval =
      nn::evaluate(global_, dataset_.test, eval_ws_, cfg_.eval_samples);
  CurvePoint p;
  p.vtime = vtime;
  p.samples = stream_.samples_served();
  p.passes = static_cast<double>(p.samples) /
             static_cast<double>(stream_.dataset_size());
  p.megabatch = megabatch;
  p.top1 = eval.top1;
  p.top5 = eval.top5;
  p.test_loss = eval.loss;
  p.train_loss = train_loss;
  p.alive_gpus = num_alive();
  result.curve.push_back(p);
}

std::size_t MultiGpuRuntime::max_feasible_batch(std::size_t g,
                                                double at) const {
  const double avg_nnz = dataset_.train.features.avg_row_nnz();
  const std::size_t per_sample = global_.step_memory_bytes(1, avg_nnz);
  return gpus_[g]->max_batch_for(per_sample, at);
}

}  // namespace hetero::core
