// Shared multi-GPU execution state for all HeteroGPU trainers.
//
// The runtime owns the simulated devices, the interconnect, the model
// replicas with their workspaces, the shuffled sample stream, and the
// all-reduce implementation. Trainers (Adaptive, Elastic, Sync, CROSSBOW)
// compose its primitives; this mirrors the paper implementing three of its
// four GPU baselines inside the same C++ framework so that performance
// differences come from algorithmic structure only.
//
// Time model: every primitive takes an `earliest_start` virtual time and
// returns a finish time, advancing the device's stream clocks. Real math is
// executed through the Executor (inline in deterministic mode, GPU-manager
// threads in threaded mode).
#pragma once

#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "comm/allreduce.h"
#include "core/config.h"
#include "core/executor.h"
#include "core/metrics.h"
#include "data/sample_stream.h"
#include "data/synthetic.h"
#include "nn/evaluate.h"
#include "nn/model.h"
#include "nn/optimizer.h"
#include "sim/profiles.h"
#include "sim/trace.h"
#include "sim/virtual_gpu.h"
#include "sparse/sparse_gradient.h"
#include "util/kernel_context.h"

namespace hetero::core {

class MultiGpuRuntime {
 public:
  MultiGpuRuntime(const data::XmlDataset& dataset, const TrainerConfig& cfg,
                  std::vector<sim::DeviceSpec> devices);

  std::size_t num_gpus() const { return gpus_.size(); }
  const TrainerConfig& config() const { return cfg_; }
  const data::XmlDataset& dataset() const { return dataset_; }
  /// Shape of the model being trained.
  const nn::ModelInfo& model_info() const { return global_.info(); }

  sim::VirtualGpu& gpu(std::size_t g) { return *gpus_[g]; }
  const sim::VirtualGpu& gpu(std::size_t g) const { return *gpus_[g]; }
  /// Replica g's model, every parameter current. Under sparse_merge a
  /// merge hands W1 back lazily: a replica's W1 rows outside the rows it
  /// touched since the merge hold stale values that read as global, and
  /// each step pulls the rows its batch reads. The first call after a
  /// merge waits for in-flight math and copies the stale rows in from
  /// global; later calls are O(1). Call from the scheduler thread only.
  nn::Model& replica(std::size_t g);
  nn::ModelWorkspace& workspace(std::size_t g) { return workspaces_[g]; }

  /// Replica g's update rule + state (cfg.optimizer). Trainers whose
  /// replicas advance independently (adaptive/elastic via run_update_step,
  /// CROSSBOW via its SMA loop) apply updates through these; the moment
  /// merge policy (cfg.moment_merge) acts on them at merge boundaries.
  nn::Optimizer& optimizer(std::size_t g) { return *optimizers_[g]; }
  const nn::Optimizer& optimizer(std::size_t g) const {
    return *optimizers_[g];
  }

  /// Shared update rule + state for the global model: the
  /// gradient-aggregating trainers (sync, async, parameter server) apply
  /// their aggregated gradients through this one. Built on the first call,
  /// so runs that never call it hold no model-sized state for it.
  nn::Optimizer& global_optimizer();

  /// Zeroes the global optimizer's state if global_optimizer() has built it
  /// (a checkpoint without an optimizer section); an unbuilt one starts
  /// from zero anyway.
  void reset_global_optimizer_state() {
    if (global_optimizer_) global_optimizer_->reset_state();
  }

  /// Earliest time device g can accept new work (compute stream), pushed
  /// past any stall window; +infinity when the device is dead by then.
  double gpu_free_at(std::size_t g) const;

  /// Index of the alive device that becomes free first (dynamic
  /// scheduling). Stalled devices are considered at their post-stall
  /// availability; dead or not-yet-joined replicas are skipped entirely.
  /// Throws std::runtime_error when no alive device can accept work.
  std::size_t next_free_gpu() const;

  /// True when replica g can be dispatched to: a merge-group member whose
  /// device will accept work at some finite time.
  bool schedulable(std::size_t g) const {
    return replica_alive(g) && gpu_free_at(g) <
                                   std::numeric_limits<double>::infinity();
  }

  // --- elastic membership (fault subsystem) ----------------------------------

  /// True when replica g is a member of the merge group. Membership
  /// shrinks/grows only at merge boundaries (apply_crashes_until /
  /// apply_joins_until); the device-level kill takes effect immediately.
  bool replica_alive(std::size_t g) const { return alive_[g] != 0; }
  std::size_t num_alive() const;

  /// Overrides a replica's membership flag directly (checkpoint restore).
  void set_replica_alive(std::size_t g, bool alive) {
    alive_[g] = alive ? 1 : 0;
  }

  /// Schedules replica g to leave the merge group: the device stops
  /// accepting new work at `time` (kill armed immediately on the virtual
  /// timeline); the membership flag flips at the next merge boundary and
  /// the replica's pending updates are dropped.
  void schedule_crash(std::size_t g, double time);

  /// Records the time of a crash that a restored checkpoint already
  /// reflects (the replica is restored dead), so a later join counts the
  /// whole outage in FaultStats::recovery_seconds.
  void restore_crash_time(std::size_t g, double time) {
    crash_time_[g] = time;
  }

  /// Schedules replica g to re-enter the group at `time`: applied at the
  /// first merge boundary at or after `time`, seeding the replica from the
  /// merged global model with update count 0.
  void schedule_join(std::size_t g, double time);

  /// True while scheduled crash or join events have not been applied yet.
  bool has_fault_schedule() const {
    return !pending_crashes_.empty() || !pending_joins_.empty();
  }

  /// Applies scheduled crashes with event time <= t: marks the replicas
  /// dead and drops their pending merge state (touched-row unions, loss
  /// slots). A crashing replica first copies in its stale W1 rows, so it
  /// keeps the model it last merged into plus its own steps since. Call
  /// after math_barrier(), before computing merge weights.
  /// Returns the replica indices crashed by this call; each event fires
  /// once.
  std::vector<std::size_t> apply_crashes_until(double t);

  /// Applies scheduled joins with event time <= t: revives the device at
  /// `t` (the admitting merge boundary) and seeds the replica from the
  /// global model. Call after merge_and_update(); the trainer resets the
  /// replica's SGD state (update count 0). Returns the indices joined.
  std::vector<std::size_t> apply_joins_until(double t);

  FaultStats& fault_stats() { return fault_stats_; }
  const FaultStats& fault_stats() const { return fault_stats_; }

  /// Previous global model (Algorithm 2 momentum state) — checkpointed
  /// alongside the global model for bit-identical recovery.
  nn::Model& prev_global_model() { return prev_global_; }
  const nn::Model& prev_global_model() const { return prev_global_; }

  /// Fast-forwards the sample stream without materializing ids
  /// (checkpoint resume).
  void skip_samples(std::size_t n) { stream_.skip(n); }

  // --- batches ---------------------------------------------------------------

  struct Batch {
    sparse::CsrMatrix x;
    sparse::CsrMatrix y;
  };

  /// Draws the next `n` samples from the shuffled stream.
  Batch next_batch(std::size_t n);

  std::size_t samples_served() const { return stream_.samples_served(); }
  double passes() const {
    return static_cast<double>(stream_.samples_served()) /
           static_cast<double>(stream_.dataset_size());
  }

  // --- execution primitives ---------------------------------------------------

  /// One SGD step on replica g (forward+backward+update with lr). Charges
  /// the batch host->GPU transfer (overlapped with previous compute) and
  /// the kernel sequence; dispatches the real math to g's manager, which
  /// first pulls the batch's stale W1 rows from global (see replica()).
  /// Returns the virtual finish time. The batch is retained as g's
  /// `last_batch` until the next step on g.
  double run_update_step(std::size_t g, Batch batch, double lr,
                         double earliest_start);

  /// Gradient-only step (no model update): used by gradient-aggregation and
  /// CROSSBOW trainers. Gradients are left in workspace(g).
  double run_gradient_step(std::size_t g, Batch batch, double earliest_start);

  const Batch& last_batch(std::size_t g) const { return *last_batch_[g]; }

  /// Bytes of the model as charged to the interconnect: the parameter
  /// buffer times cfg.comm_scale. All communication costs (all-reduce,
  /// host round trips) use this size.
  std::size_t virtual_model_bytes() const {
    return virtual_payload_bytes(global_.num_parameters());
  }

  /// Interconnect charge for an arbitrary parameter count (the delta merge
  /// charges only touched-rows x hidden + the dense tail).
  std::size_t virtual_payload_bytes(std::size_t params) const {
    return static_cast<std::size_t>(
        static_cast<double>(params * sizeof(float)) * cfg_.comm_scale);
  }

  /// True when merges ship compressed payloads (cfg.merge_precision !=
  /// fp32): per-replica error-feedback residuals and the loss-scale guard
  /// are live state.
  bool compressed_merge() const {
    return cfg_.merge_precision != comm::MergePrecision::kFp32;
  }

  /// Wire description (element data + compression metadata, both scaled by
  /// comm_scale) of a payload of `params` parameters carrying `groups`
  /// quantization scale groups under cfg.merge_precision. fp32 reproduces
  /// virtual_payload_bytes exactly (cast included) so uncompressed billing
  /// stays bit-identical.
  comm::WirePayload virtual_wire(std::size_t params, std::size_t groups) const;

  /// virtual_wire for the whole model under the dense 512-block grouping —
  /// the cost-only transfer size for trainers that bill model-sized
  /// exchanges (sync, CROSSBOW, parameter server) without running the
  /// quantized merge math.
  comm::WirePayload virtual_model_wire() const;

  /// Per-replica error-feedback residual (flat model layout; empty when the
  /// merge is uncompressed). Exposed for checkpointing and tests.
  std::span<float> residual_state(std::size_t g) {
    return residual_.empty() ? std::span<float>{}
                             : std::span<float>(residual_[g]);
  }
  std::span<const float> residual_state(std::size_t g) const {
    return residual_.empty() ? std::span<const float>{}
                             : std::span<const float>(residual_[g]);
  }

  /// fp16 dynamic loss-scale state (checkpointed with the residuals).
  comm::LossScaleGuard& loss_scale_guard() { return loss_scale_; }
  const comm::LossScaleGuard& loss_scale_guard() const { return loss_scale_; }

  /// Cost-only step accounting: charges device g for the batch transfer and
  /// the kernel sequence of one SGD step over `x`, without running any
  /// math. Trainers that manage model math themselves (gradient
  /// aggregation, CROSSBOW) use this together with nn:: functions.
  double charge_step(std::size_t g, const sparse::CsrMatrix& x,
                     double earliest_start);

  /// Dispatches arbitrary math to device g's manager (FIFO per device).
  void dispatch_math(std::size_t g, std::function<void()> work) {
    executor_->dispatch(g, std::move(work));
  }

  /// Waits for all in-flight math (threaded mode) — must be called before
  /// the scheduler reads replica state.
  void math_barrier() { executor_->barrier(); }

  /// Mean training loss accumulated since the last take_mean_loss() call.
  /// (Slots are written by manager threads; read only after math_barrier().)
  double take_mean_loss();

  /// Records a step loss against device g's slot (for trainers that run
  /// their math through dispatch_math). Call only from g's manager work.
  void record_loss(std::size_t g, double loss) {
    loss_slots_[g].sum += loss;
    loss_slots_[g].count += 1;
  }

  // --- merging -----------------------------------------------------------------

  struct MergeTiming {
    double allreduce_seconds = 0.0;
    double host_roundtrip_seconds = 0.0;
    double finish = 0.0;  // virtual time when all GPUs hold the new model
    // Diagnostics: W1 rows in the cross-replica touched union (delta merges
    // only; 0 in dense mode) and the logical bytes charged to the
    // collective (delta bytes when sparse_merge is on, model bytes
    // otherwise).
    std::size_t touched_rows = 0;
    double payload_bytes = 0.0;
    // Total bytes on the wire: payload_bytes plus compression metadata
    // (scales, header, loss scale). Equals payload_bytes for fp32 merges.
    double wire_bytes = 0.0;
  };

  /// Merges replicas with the given weights via the configured all-reduce,
  /// applies the momentum global update on the host (the scheduler-side
  /// choice of Section IV), and hands the new global model back to every
  /// alive replica; alive devices synchronize their clocks to `finish`.
  /// A dense merge copies the whole model into each replica. A sparse merge
  /// copies only the dense tail (every segment after W1) and marks replica
  /// W1 stale: each row is copied on its first touch (run_update_step) or
  /// when something reads the whole replica (replica(), a crash).
  ///
  /// `weights` is always full-size (one entry per replica); only alive
  /// replicas participate — their weight entries are compacted in replica
  /// index order, so the accumulation is bit-identical to a run over the
  /// survivor set alone. Dead replicas' entries must be 0 (see
  /// expand_alive_weights). The all-reduce topology/cost and the per-merge
  /// payload are re-derived over the alive subset.
  MergeTiming merge_and_update(std::span<const double> weights,
                               double sync_time);

  /// Algorithm 2's perturbation gate: true when every replica in `replicas`
  /// has l2_norm_per_parameter() < threshold, and exactly when that holds
  /// (DESIGN.md §5c). With sparse_merge on, outside the W1 rows it touched
  /// since the last merge a replica reads as global, so certify_l2_below
  /// decides it from one pooled pass over the global model plus those rows
  /// and the dense tail; the exact sweep runs only where the bound cannot
  /// decide, on the resolved replica (replica()). Dense runs track no rows
  /// and sweep every replica. Stops at the first replica not below. Changes
  /// no model value; call after math_barrier().
  bool replicas_l2_below(std::span<const std::size_t> replicas,
                         double threshold);

  /// The current global model (host copy).
  const nn::Model& global_model() const { return global_; }
  nn::Model& global_model() { return global_; }

  /// Copies the global model into every alive replica (used at restore and
  /// by trainers that keep identical replicas).
  void broadcast_global();

  /// Replica -> host model transfer cost (e.g. sync SGD publishing state).
  double host_roundtrip_seconds() const;

  /// Same, for an explicit payload size (delta merges round-trip only the
  /// touched rows plus the dense tail).
  double host_roundtrip_seconds(std::size_t bytes) const;

  // --- evaluation -----------------------------------------------------------------

  /// Evaluates the global model on the test prefix (on the kernel pool,
  /// through a workspace kept for it) and appends a curve point to `result`.
  void record_curve_point(TrainResult& result, double vtime,
                          std::size_t megabatch, double train_loss);

  /// Largest batch size that fits in device memory next to the model and
  /// gradients at virtual time `at` (used to validate b_max and to re-clamp
  /// after a simulated OOM under a memory-cap window).
  std::size_t max_feasible_batch(std::size_t g, double at = 0.0) const;

  const comm::AllReducer& reducer() const { return *reducer_; }
  const sim::LinkModel& links() const { return links_; }

  /// Attaches a tracer: subsequent steps and merges are recorded on the
  /// virtual timeline (Chrome trace format via sim::Tracer). Pass nullptr
  /// to detach. The tracer must outlive the runtime.
  void set_tracer(sim::Tracer* tracer) { tracer_ = tracer; }
  sim::Tracer* tracer() { return tracer_; }

  /// Fired at the end of every merge_and_update, after the momentum global
  /// update and the hand-back, with the new global model and the boundary's
  /// virtual finish time. This is the serving publication point
  /// (serve::SnapshotStore::publish): the model passed is exactly the
  /// state a checkpoint captured at the same boundary would serialize.
  /// Runs on the training thread — keep it cheap (a copy + swap).
  /// Distinct from the Trainer boundary hook so checkpointing and serving
  /// can coexist. Pass nullptr to detach.
  using PublishHook = std::function<void(const nn::Model&, double vtime)>;
  void set_publish_hook(PublishHook hook) { publish_hook_ = std::move(hook); }

 private:
  const data::XmlDataset& dataset_;
  TrainerConfig cfg_;

  std::vector<std::unique_ptr<sim::VirtualGpu>> gpus_;
  sim::LinkModel links_;
  std::unique_ptr<comm::AllReducer> reducer_;
  std::unique_ptr<Executor> executor_;
  // Shared kernel pool for the replicas' compute kernels (null when
  // cfg.kernel_threads resolves to 1); workspaces hold Contexts into it.
  std::unique_ptr<util::ThreadPool> kernel_pool_;

  // The global model, built from the configured hidden list.
  nn::Model global_;
  // Previous global model for the momentum term (Algorithm 2 line 8); kept
  // as a model so the merge runs segment-wise in place — no flat staging
  // buffers on the merge path.
  nn::Model prev_global_;

  // One replica and workspace per device. Sized once at construction:
  // manager threads hold references into them.
  std::vector<nn::Model> replicas_;
  std::vector<nn::ModelWorkspace> workspaces_;
  // Update rules + state (cfg.optimizer): one per replica plus one for the
  // global model, built by the first global_optimizer() call. Crash/join
  // always resets the affected replica's state (moments describing a dead
  // replica's trajectory are meaningless to the fresh seed); merge
  // boundaries apply cfg.moment_merge.
  std::vector<std::unique_ptr<nn::Optimizer>> optimizers_;
  std::unique_ptr<nn::Optimizer> global_optimizer_;

  // Merge-boundary optimizer-state policy (cfg.moment_merge, DESIGN.md
  // §11) over the alive subset; uses merge_rows_scratch_ (the current
  // touched union) for segment 0 when sparse_merge is on. Returns the
  // fp32 element count shipped for the state exchange (0 for keep/reset
  // and for stateless optimizers).
  std::size_t merge_optimizer_state(std::span<const std::size_t> alive_idx,
                                    std::span<const double> alive_weights);
  // Shared ownership: in threaded mode the manager's work item must keep
  // its batch alive even after the scheduler dispatches the next one.
  std::vector<std::shared_ptr<Batch>> last_batch_;

  data::SampleStream stream_;

  // Delta-merge state (cfg.sparse_merge): per-replica mega-batch unions of
  // touched W1 rows, written by each GPU's manager inside its dispatched
  // step and read by the scheduler after math_barrier(); plus the
  // cross-replica union + sorted scratch and the alive replicas' touched
  // sets (merge_touched_rows' valid sets) used during the merge.
  std::vector<sparse::RowSet> touched_w1_;
  sparse::RowSet merge_union_;
  std::vector<std::uint32_t> merge_rows_scratch_;
  std::vector<const sparse::RowSet*> merge_valid_;

  // Pull on first touch (DESIGN.md §5c). w1_fresh_[g] is 0 from a sparse
  // merge until replica g is resolved, joins or is broadcast to; meanwhile
  // its valid W1 rows are exactly touched_w1_[g] and every other row reads
  // as global, which does not change before the next merge. Only the
  // scheduler writes the flags, after math_barrier(). pull_bits_ (one bit
  // per W1 row, all zero between steps) and pull_rows_ are each manager's
  // scratch for the batch's stale rows.
  std::vector<char> w1_fresh_;
  std::vector<std::vector<std::uint64_t>> pull_bits_;
  std::vector<std::vector<std::uint32_t>> pull_rows_;
  // Copies the rows of x's columns that replica g holds stale from global.
  // Runs inside g's manager work item, before the step reads the model.
  void pull_stale_rows(std::size_t g, const sparse::CsrMatrix& x);
  // Copies every stale W1 row of replica g from global and marks it fresh.
  void resolve_replica(std::size_t g);
  // Context for the merge kernels (scheduler-side, whole pool).
  kernels::Context merge_ctx_;
  // Evaluation workspace of the global model; its context is merge_ctx_.
  nn::ModelWorkspace eval_ws_;

  // Merge-payload compression state (cfg.merge_precision != kFp32).
  // Residuals live in the flat model layout (segment concatenation order),
  // one buffer per replica, so untouched W1 rows keep their pending
  // correction across merges whose unions differ. Scratch holds the
  // per-replica packed code/scale regions of the current merge.
  std::vector<std::vector<float>> residual_;
  comm::LossScaleGuard loss_scale_;
  std::vector<std::size_t> seg_offset_;  // flat offset of each segment
  std::vector<std::vector<std::uint16_t>> q16_scratch_;
  std::vector<std::vector<std::int8_t>> q8_scratch_;
  std::vector<std::vector<float>> scale_scratch_;
  // Quantization group table of the current merge; see
  // build_quant_groups(). One entry per scale group (a union W1 row or a
  // 512-block of a dense segment), addressing the group three ways: by
  // model segment (seg/off — replica and global reads), by flat model
  // offset (flat — the residual buffers), and by packed code offset (dst —
  // the code/scale scratch).
  struct QuantGroup {
    std::size_t seg = 0;
    std::size_t off = 0;   // offset within segment `seg`
    std::size_t flat = 0;  // residual (flat model) offset
    std::size_t dst = 0;   // packed code offset
    std::size_t len = 0;
  };
  std::vector<QuantGroup> quant_groups_;
  std::size_t model_groups_ = 0;  // dense 512-block group count, full model

  // Builds quant_groups_ for the current merge region and returns the total
  // element count. Sparse mode: one group per union W1 row (width = hidden)
  // followed by 512-blocks of the dense tail segments; dense mode:
  // 512-blocks of every segment.
  std::size_t build_quant_groups(std::span<const std::uint32_t> union_rows,
                                 std::size_t hidden);

  // Loss accumulation (slot per GPU; written only by that GPU's manager —
  // cache-line padded so adjacent slots never false-share across managers).
  struct alignas(64) LossSlot {
    double sum = 0.0;
    std::size_t count = 0;
  };
  std::vector<LossSlot> loss_slots_;

  // Elastic membership: per-replica alive flags plus the crash/join
  // schedule (kept sorted by time; cursors make each event fire once).
  struct MembershipEvent {
    std::size_t device = 0;
    double time = 0.0;
  };
  std::vector<char> alive_;
  std::vector<MembershipEvent> pending_crashes_;
  std::vector<MembershipEvent> pending_joins_;
  std::size_t crash_cursor_ = 0;
  std::size_t join_cursor_ = 0;
  std::vector<double> crash_time_;  // last applied crash per device
  FaultStats fault_stats_;

  sim::Tracer* tracer_ = nullptr;
  PublishHook publish_hook_;
};

}  // namespace hetero::core
