// Checkpointed recovery for the adaptive trainer (tentpole: fault
// subsystem). A checkpoint captures everything the mega-batch loop depends
// on at a merge boundary — global + momentum models, sample-stream
// position, per-device SGD state, clocks and jitter RNGs, scaling-cadence
// state, early-stopping state, and the run's totals — so that an
// interrupted run resumed from the checkpoint is bit-identical to the
// uninterrupted run at every subsequent merge boundary and reports the
// same totals.
//
// A checkpoint costs one pass over its bytes on each side. Capture copies
// only the small state below; the model-sized payload (global and
// previous-global parameters, error-feedback residuals, optimizer slots and
// row counters) stays in the trainer, and save_checkpoint streams it from
// there. Restore reads each payload section straight into the runtime
// buffer it restores.
//
// On-disk format (little-endian host order, like nn/serialize):
//   magic "HGCK" | version u32 (1 to 4) | seed u64 |
//   megabatches_completed u64 |
//   samples_served u64 | round_robin_cursor u64 | vtime f64 | best_top1 f64 |
//   stagnation u64 | num_gpus u64 |
//   per gpu { batch_size u64 | learning_rate f64 | updates u64 | alive u8 |
//             busy_seconds f64 | degraded_until f64 | transient_episodes u64 |
//             rng s[4] u64 | rng cached f64 | rng has_cached u8 } |
//   scaling-scheduler state |
//   [v2+] merge-compression section: compressed u8 | when 1:
//     loss_scale f64 | loss_scale_streak u64 | num_residuals u64 |
//     per replica residual (raw fp32 bytes, size-prefixed) |
//   [v3+] optimizer section: opt_kind u8 | opt_num_slots u8 |
//     opt_has_row_steps u8 | num_replica_states u64 | per replica {
//       step u64 | [has_row_steps] row-counter count u64 + raw u32 |
//       per slot: element count u64 + raw f32 } |
//   [v4] run section, 73 bytes: method u8 (core::Method) | merges u64 |
//     perturbed_merges u64 | scaling_updates u64 | comm_seconds f64 |
//     crashes u64 | joins u64 | oom_clamps u64 | degraded_merges u64 |
//     recovery_seconds f64 |
//   global model record | prev-global model record
//   (each a u64 byte count, nn::serialized_size, then the nn::save_model
//   bytes; always the final two records, so tail-relative tooling keeps
//   working across versions).
// Version 1 checkpoints load with an empty compression section: a
// compressed run restoring one restarts its residuals at zero with the
// default loss scale, which is a valid (if less converged) error-feedback
// state. Versions 1 and 2 load with an empty optimizer section: restoring
// one into a stateful-optimizer run resets moments/counters to zero (a
// valid fresh-start state; bit-identical resume needs a v3+ checkpoint).
// Versions 1 to 3 carry no run section: their method goes unchecked and a
// run resumed from one counts its totals from zero.
// All length/count fields are validated against the remaining stream size
// and every optimizer-state float must be finite — violations throw
// hetero::ParseError, never a bad_alloc or a poisoned runtime. A
// well-formed checkpoint that does not fit the trainer (GPU count, seed,
// sample position, method, model shape, merge precision, optimizer)
// throws hetero::MismatchError.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/adaptive_sgd.h"
#include "util/rng.h"

namespace hetero::fault {

/// The small state of a checkpoint: everything but the model-sized payload.
struct TrainingCheckpoint {
  std::uint32_t version = 0;  // format version written or read
  std::uint64_t seed = 0;
  std::uint64_t megabatches_completed = 0;
  std::uint64_t samples_served = 0;
  std::uint64_t round_robin_cursor = 0;
  double vtime = 0.0;
  double best_top1 = 0.0;
  std::uint64_t stagnation = 0;

  struct GpuState {
    std::uint64_t batch_size = 0;
    double learning_rate = 0.0;
    std::uint64_t updates = 0;
    std::uint8_t alive = 1;
    double busy_seconds = 0.0;
    double degraded_until = 0.0;
    std::uint64_t transient_episodes = 0;
    util::Rng::State rng;
  };
  std::vector<GpuState> gpus;

  core::ScalingSchedulerState scaling;

  // Merge-compression state (format v2; absent in v1): whether the run
  // merged through fp16/int8 with per-replica error-feedback residuals
  // (the payload), and the fp16 loss-scale guard.
  std::uint8_t compressed = 0;
  float loss_scale = 1024.0f;
  std::uint32_t loss_scale_streak = 0;

  // Optimizer state (format v3; absent in v1/v2): the update rule the run
  // trained with, its state shape, and each replica's step counter. The
  // state matrices and lazy row counters are payload.
  std::uint8_t opt_kind = 0;  // nn::OptimizerKind byte
  std::uint8_t opt_num_slots = 0;
  std::uint8_t opt_has_row_steps = 0;
  std::vector<std::uint64_t> opt_steps;  // one per replica

  // Run section (format v4; absent in v1-v3): the method that wrote the
  // checkpoint and the totals train() had summed. Of `faults` only the
  // counters train() accumulates are carried (crashes, joins, oom_clamps,
  // degraded_merges, recovery_seconds); the plan counters are re-counted
  // when the resumed run re-arms its plan.
  core::Method method = core::Method::kAdaptive;
  core::RunTotals totals;
  core::FaultStats faults;

  /// The trainer a captured checkpoint streams its payload from; null for
  /// one that was read back (load_checkpoint, restore_checkpoint).
  core::AdaptiveSgdTrainer* trainer = nullptr;
};

/// Snapshots the trainer at the current merge boundary. The small state is
/// copied; the payload is borrowed, so a captured checkpoint is valid until
/// the trainer trains again or is destroyed. Save it at the boundary it was
/// captured at.
TrainingCheckpoint capture_checkpoint(core::AdaptiveSgdTrainer& trainer);

/// Writes the current format: the small state, then each payload section
/// streamed from the captured trainer's runtime. Throws
/// std::invalid_argument for a checkpoint that was not captured.
void save_checkpoint(std::ostream& out, const TrainingCheckpoint& ckpt);

/// Writes `path` through a sibling temporary file renamed over it, so a
/// failed write, crash or kill leaves the previous file as it was.
void save_checkpoint_file(const std::string& path,
                          const TrainingCheckpoint& ckpt);

/// Restores an HGCK stream into a FRESHLY CONSTRUCTED trainer built from
/// the same config (seed, devices, dataset, method) and returns the small
/// state. This is an untrusted-input path: each payload section's length
/// is checked against the bytes left and against the runtime buffer it
/// restores before the section is read into it. Malformed bytes throw
/// hetero::ParseError carrying the byte offset; a checkpoint that does not
/// match the trainer throws hetero::MismatchError. The checks run in file
/// order, so a restore that throws may have written part of the runtime:
/// discard that trainer.
TrainingCheckpoint restore_checkpoint(core::AdaptiveSgdTrainer& trainer,
                                      std::istream& in);
TrainingCheckpoint restore_checkpoint_file(core::AdaptiveSgdTrainer& trainer,
                                           const std::string& path);

/// Reads an HGCK stream's small state without a trainer: each payload
/// section is skipped by its length, checked against the bytes left, and
/// `in` is left at the global model's nn::save_model bytes, so
/// nn::load_any_model(in) reads it next. Errors as for restore_checkpoint.
TrainingCheckpoint load_checkpoint(std::istream& in);
TrainingCheckpoint load_checkpoint_file(const std::string& path);

/// Installs a boundary hook writing `path` every `every` completed
/// mega-batches (and at the final one).
void enable_periodic_checkpoint(core::AdaptiveSgdTrainer& trainer,
                                std::string path, std::size_t every);

}  // namespace hetero::fault
