#include "fault/checkpoint.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <span>
#include <stdexcept>

#include "comm/quant.h"
#include "nn/serialize.h"
#include "util/error.h"

namespace hetero::fault {

namespace {

constexpr char kMagic[4] = {'H', 'G', 'C', 'K'};
// v2 adds the merge-compression section (error-feedback residuals + fp16
// loss-scale guard) between the scaling state and the model records; v3
// adds the per-replica optimizer-state section after it; v4 adds the run
// section (method and totals) right before the model records. Older
// checkpoints still load; their missing sections are defaulted.
constexpr std::uint32_t kVersion = 4;

void write_bytes(std::ostream& out, const void* p, std::size_t n) {
  out.write(static_cast<const char*>(p), static_cast<std::streamsize>(n));
}
void write_u8(std::ostream& out, std::uint8_t v) { write_bytes(out, &v, 1); }
void write_u32(std::ostream& out, std::uint32_t v) {
  write_bytes(out, &v, sizeof v);
}
void write_u64(std::ostream& out, std::uint64_t v) {
  write_bytes(out, &v, sizeof v);
}
void write_f64(std::ostream& out, double v) { write_bytes(out, &v, sizeof v); }

template <typename T>
void write_span(std::ostream& out, std::span<T> s) {
  write_bytes(out, s.data(), s.size_bytes());
}

std::size_t stream_offset(std::istream& in) {
  const auto pos = in.tellg();
  return pos == std::istream::pos_type(-1) ? ParseError::npos
                                           : static_cast<std::size_t>(pos);
}

[[noreturn]] void bad_checkpoint(std::istream& in, const std::string& what) {
  in.clear();  // tellg on a failed stream would itself fail
  throw ParseError("checkpoint", what, ParseError::npos, stream_offset(in));
}

[[noreturn]] void mismatch(const std::string& what) {
  throw MismatchError("checkpoint: " + what);
}

/// Bytes between the read cursor and end-of-stream, or npos when the stream
/// is not seekable. Length/count fields are validated against this before
/// any allocation or write so a corrupt 2^63 length cannot drive either.
std::size_t remaining_bytes(std::istream& in) {
  const auto pos = in.tellg();
  if (pos == std::istream::pos_type(-1)) return ParseError::npos;
  in.seekg(0, std::ios::end);
  const auto end = in.tellg();
  in.seekg(pos);
  if (end == std::istream::pos_type(-1) || end < pos) return ParseError::npos;
  return static_cast<std::size_t>(end - pos);
}

/// Validates `count` records of at least `min_record_bytes` each against the
/// remaining stream size.
void check_count(std::istream& in, std::uint64_t count,
                 std::size_t min_record_bytes, const char* what) {
  const auto remaining = remaining_bytes(in);
  if (remaining == ParseError::npos) return;  // non-seekable: cannot bound
  if (count > remaining / min_record_bytes) {
    bad_checkpoint(in, std::string(what) + " count " + std::to_string(count) +
                           " exceeds remaining stream size " +
                           std::to_string(remaining));
  }
}

void read_bytes(std::istream& in, void* p, std::size_t n) {
  in.read(static_cast<char*>(p), static_cast<std::streamsize>(n));
  if (!in) bad_checkpoint(in, "truncated input");
}
std::uint8_t read_u8(std::istream& in) {
  std::uint8_t v;
  read_bytes(in, &v, 1);
  return v;
}
std::uint32_t read_u32(std::istream& in) {
  std::uint32_t v;
  read_bytes(in, &v, sizeof v);
  return v;
}
std::uint64_t read_u64(std::istream& in) {
  std::uint64_t v;
  read_bytes(in, &v, sizeof v);
  return v;
}
double read_f64(std::istream& in) {
  double v;
  read_bytes(in, &v, sizeof v);
  return v;
}
/// A finite, non-negative f64 (a time or a total of times).
double read_seconds(std::istream& in, const char* what) {
  const double v = read_f64(in);
  if (!std::isfinite(v) || v < 0.0) {
    bad_checkpoint(in, std::string(what) + " is not a finite time");
  }
  return v;
}

/// Reads a payload record's u64 element count and checks that many
/// `elem_bytes`-sized elements fit in the bytes left.
std::uint64_t read_count(std::istream& in, std::size_t elem_bytes,
                         const char* what) {
  const auto n = read_u64(in);
  check_count(in, n, elem_bytes, what);
  return n;
}

/// Reads a payload record's elements into `dst`, or skips them when the
/// checkpoint is only being loaded (`dst` null). `n` was checked against
/// the bytes left, and against the buffer behind `dst`.
void read_payload(std::istream& in, void* dst, std::uint64_t n) {
  if (dst != nullptr) {
    read_bytes(in, dst, static_cast<std::size_t>(n));
  } else if (!in.seekg(static_cast<std::streamoff>(n), std::ios::cur)) {
    bad_checkpoint(in, "cannot skip " + std::to_string(n) + " bytes");
  }
}

void write_small_state(std::ostream& out, const TrainingCheckpoint& ckpt) {
  write_u64(out, ckpt.seed);
  write_u64(out, ckpt.megabatches_completed);
  write_u64(out, ckpt.samples_served);
  write_u64(out, ckpt.round_robin_cursor);
  write_f64(out, ckpt.vtime);
  write_f64(out, ckpt.best_top1);
  write_u64(out, ckpt.stagnation);
  write_u64(out, ckpt.gpus.size());
  for (const auto& s : ckpt.gpus) {
    write_u64(out, s.batch_size);
    write_f64(out, s.learning_rate);
    write_u64(out, s.updates);
    write_u8(out, s.alive);
    write_f64(out, s.busy_seconds);
    write_f64(out, s.degraded_until);
    write_u64(out, s.transient_episodes);
    for (auto word : s.rng.s) write_u64(out, word);
    write_f64(out, s.rng.cached_gaussian);
    write_u8(out, s.rng.has_cached_gaussian ? 1 : 0);
  }
  const auto& sc = ckpt.scaling;
  write_u64(out, sc.interval);
  write_u64(out, sc.since_last_scale);
  write_u8(out, sc.stable ? 1 : 0);
  write_u8(out, sc.oscillating ? 1 : 0);
  write_u64(out, sc.previous.size());
  for (auto v : sc.previous) write_u64(out, v);
  write_u64(out, sc.last_direction.size());
  for (auto v : sc.last_direction) {
    write_u64(out, static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
  }
  write_u64(out, sc.steps_without_change);
  write_u64(out, sc.reversal_streak);
}

/// Reads the small state that precedes the payload sections.
void read_small_state(std::istream& in, TrainingCheckpoint& ckpt) {
  ckpt.seed = read_u64(in);
  ckpt.megabatches_completed = read_u64(in);
  ckpt.samples_served = read_u64(in);
  ckpt.round_robin_cursor = read_u64(in);
  ckpt.vtime = read_f64(in);
  ckpt.best_top1 = read_f64(in);
  ckpt.stagnation = read_u64(in);
  // Each per-GPU record is at least 90 bytes on disk; a corrupt count field
  // must fail here, not in a multi-gigabyte resize.
  const auto num_gpus = read_u64(in);
  check_count(in, num_gpus, 90, "gpu");
  ckpt.gpus.resize(static_cast<std::size_t>(num_gpus));
  for (auto& s : ckpt.gpus) {
    s.batch_size = read_u64(in);
    s.learning_rate = read_f64(in);
    s.updates = read_u64(in);
    s.alive = read_u8(in);
    s.busy_seconds = read_f64(in);
    s.degraded_until = read_f64(in);
    s.transient_episodes = read_u64(in);
    for (auto& word : s.rng.s) word = read_u64(in);
    s.rng.cached_gaussian = read_f64(in);
    s.rng.has_cached_gaussian = read_u8(in) != 0;
  }
  auto& sc = ckpt.scaling;
  sc.interval = read_u64(in);
  sc.since_last_scale = read_u64(in);
  sc.stable = read_u8(in) != 0;
  sc.oscillating = read_u8(in) != 0;
  const auto num_previous = read_u64(in);
  check_count(in, num_previous, sizeof(std::uint64_t), "scaling history");
  sc.previous.resize(static_cast<std::size_t>(num_previous));
  for (auto& v : sc.previous) v = read_u64(in);
  const auto num_directions = read_u64(in);
  check_count(in, num_directions, sizeof(std::uint64_t), "scaling direction");
  sc.last_direction.resize(static_cast<std::size_t>(num_directions));
  for (auto& v : sc.last_direction) {
    v = static_cast<int>(static_cast<std::int64_t>(read_u64(in)));
  }
  sc.steps_without_change = read_u64(in);
  sc.reversal_streak = read_u64(in);
}

/// The small state must describe a boundary of this trainer's run before
/// any payload is read into it.
void check_fits(const TrainingCheckpoint& ckpt,
                core::AdaptiveSgdTrainer& trainer) {
  const auto& runtime = trainer.runtime();
  const auto& cfg = trainer.config();
  if (ckpt.gpus.size() != runtime.num_gpus()) {
    mismatch("GPU count does not match runtime");
  }
  if (ckpt.seed != cfg.seed) mismatch("seed does not match config");
  if (runtime.samples_served() != 0) {
    throw std::runtime_error(
        "checkpoint: restore requires a freshly constructed trainer");
  }
  // Every mega-batch draws exactly megabatch_samples(), so the sample
  // position follows from the boundary; checking it also bounds the replay
  // of the sample stream that restoring it costs.
  const std::size_t mega = cfg.megabatch_samples();
  if (ckpt.megabatches_completed > cfg.num_megabatches ||
      ckpt.samples_served != ckpt.megabatches_completed * mega) {
    mismatch(std::to_string(ckpt.samples_served) + " samples after " +
             std::to_string(ckpt.megabatches_completed) +
             " mega-batches do not fit a run of " +
             std::to_string(cfg.num_megabatches) + " mega-batches of " +
             std::to_string(mega) + " samples");
  }
}

/// The merge-compression section (v2+): residuals go straight into the
/// runtime's error-feedback buffers.
void read_compression(std::istream& in, TrainingCheckpoint& ckpt,
                      core::MultiGpuRuntime* into) {
  ckpt.compressed = read_u8(in);
  if (ckpt.compressed > 1) {
    bad_checkpoint(in, "invalid compressed flag " +
                           std::to_string(ckpt.compressed));
  }
  if (ckpt.compressed == 0) return;
  const double scale = read_f64(in);
  if (!std::isfinite(scale) ||
      scale < static_cast<double>(comm::LossScaleGuard::kMinScale) ||
      scale > static_cast<double>(comm::LossScaleGuard::kMaxScale)) {
    bad_checkpoint(in, "loss scale out of range");
  }
  ckpt.loss_scale = static_cast<float>(scale);
  const auto streak = read_u64(in);
  ckpt.loss_scale_streak =
      static_cast<std::uint32_t>(std::min<std::uint64_t>(streak, 0xffffffffu));
  // Each residual record is at least its 8-byte length prefix.
  const auto num_residuals = read_u64(in);
  check_count(in, num_residuals, 8, "residual");
  if (into != nullptr) {
    if (!into->compressed_merge()) {
      mismatch("carries merge-compression state but the runtime merges at "
               "fp32");
    }
    if (num_residuals != into->num_gpus()) {
      mismatch("residual count does not match runtime GPU count");
    }
  }
  for (std::uint64_t g = 0; g < num_residuals; ++g) {
    const auto n = read_count(in, 1, "residual byte");
    float* dst = nullptr;
    if (into != nullptr) {
      const auto res = into->residual_state(static_cast<std::size_t>(g));
      if (n != res.size_bytes()) {
        mismatch("residual size does not match runtime parameter count");
      }
      dst = res.data();
    }
    read_payload(in, dst, n);
  }
}

/// The optimizer section (v3+): row counters and state matrices go straight
/// into each replica's optimizer.
void read_optimizer(std::istream& in, TrainingCheckpoint& ckpt,
                    core::MultiGpuRuntime* into) {
  ckpt.opt_kind = read_u8(in);
  const auto kind = nn::optimizer_kind_from_byte(ckpt.opt_kind);
  if (!kind) {
    bad_checkpoint(in, "invalid optimizer kind " +
                           std::to_string(ckpt.opt_kind));
  }
  ckpt.opt_num_slots = read_u8(in);
  ckpt.opt_has_row_steps = read_u8(in);
  // The shape metadata is implied by the kind; hostile values fail here,
  // before any record is parsed under the wrong layout.
  std::uint8_t want_slots = 0;
  std::uint8_t want_rows = 0;
  switch (*kind) {
    case nn::OptimizerKind::kSgd:
      break;
    case nn::OptimizerKind::kAdagrad:
      want_slots = 1;
      break;
    case nn::OptimizerKind::kAdam:
    case nn::OptimizerKind::kAdamW:
      want_slots = 2;
      want_rows = 1;
      break;
  }
  if (ckpt.opt_num_slots != want_slots ||
      ckpt.opt_has_row_steps != want_rows) {
    bad_checkpoint(in, "optimizer shape metadata does not match kind " +
                           std::to_string(ckpt.opt_kind));
  }
  // Each replica record is at least its 8-byte step counter.
  const auto num_states = read_u64(in);
  check_count(in, num_states, 8, "optimizer replica");
  if (into != nullptr) {
    if (*kind != into->optimizer(0).kind()) {
      mismatch("optimizer kind does not match config");
    }
    if (num_states != into->num_gpus()) {
      mismatch("optimizer replica count does not match runtime");
    }
  }
  ckpt.opt_steps.resize(static_cast<std::size_t>(num_states));
  for (std::size_t g = 0; g < ckpt.opt_steps.size(); ++g) {
    nn::Optimizer* opt = into != nullptr ? &into->optimizer(g) : nullptr;
    ckpt.opt_steps[g] = read_u64(in);
    if (opt != nullptr) opt->set_step(ckpt.opt_steps[g]);
    if (ckpt.opt_has_row_steps != 0) {
      const auto n = read_count(in, sizeof(std::uint32_t), "row counter");
      std::uint32_t* dst = nullptr;
      if (opt != nullptr) {
        const auto steps = opt->row_steps();
        if (n != steps.size()) {
          mismatch("optimizer row-counter count does not match model");
        }
        dst = steps.data();
      }
      read_payload(in, dst, n * sizeof(std::uint32_t));
    }
    for (std::uint8_t slot = 0; slot < ckpt.opt_num_slots; ++slot) {
      const auto n = read_count(in, sizeof(float), "optimizer slot");
      if (opt == nullptr) {
        read_payload(in, nullptr, n * sizeof(float));
        continue;
      }
      const auto views = opt->slot_views(slot);
      std::size_t total = 0;
      for (const auto seg : views) total += seg.size();
      if (n != total) mismatch("optimizer state size does not match model");
      for (const auto seg : views) {
        read_payload(in, seg.data(), seg.size_bytes());
        // Moments/accumulators feed divisions and square roots on the hot
        // path; a NaN/Inf smuggled through a checkpoint would poison the
        // model silently. Typed parse failure instead.
        for (const float v : seg) {
          if (!std::isfinite(v)) {
            bad_checkpoint(in, "non-finite optimizer state value");
          }
        }
      }
    }
  }
}

/// The run section (v4).
void read_run(std::istream& in, TrainingCheckpoint& ckpt) {
  const auto method = read_u8(in);
  if (method != static_cast<std::uint8_t>(core::Method::kAdaptive) &&
      method != static_cast<std::uint8_t>(core::Method::kElastic)) {
    bad_checkpoint(in, "invalid method " + std::to_string(method));
  }
  ckpt.method = static_cast<core::Method>(method);
  auto& t = ckpt.totals;
  t.merges = read_u64(in);
  t.perturbed_merges = read_u64(in);
  t.scaling_updates = read_u64(in);
  t.comm_seconds = read_seconds(in, "comm_seconds");
  auto& f = ckpt.faults;
  f.crashes = read_u64(in);
  f.joins = read_u64(in);
  f.oom_clamps = read_u64(in);
  f.degraded_merges = read_u64(in);
  f.recovery_seconds = read_seconds(in, "recovery_seconds");
}

/// Reads everything before the two model records. With a trainer, the
/// small state is checked against it first, and each payload section is
/// read straight into the runtime buffer it restores once its length has
/// been checked against the bytes left and against that buffer; without
/// one, each section is skipped by its checked length.
TrainingCheckpoint read_until_models(std::istream& in,
                                     core::AdaptiveSgdTrainer* trainer) {
  char magic[4];
  read_bytes(in, magic, 4);
  if (std::memcmp(magic, kMagic, 4) != 0) {
    bad_checkpoint(in, "bad magic");
  }
  TrainingCheckpoint ckpt;
  ckpt.version = read_u32(in);
  if (ckpt.version < 1 || ckpt.version > kVersion) {
    bad_checkpoint(in, "unsupported version " + std::to_string(ckpt.version));
  }
  read_small_state(in, ckpt);
  core::MultiGpuRuntime* into = nullptr;
  if (trainer != nullptr) {
    check_fits(ckpt, *trainer);
    into = &trainer->runtime();
  }
  if (ckpt.version >= 2) read_compression(in, ckpt, into);
  if (ckpt.version >= 3) read_optimizer(in, ckpt, into);
  if (ckpt.version >= 4) {
    read_run(in, ckpt);
    if (trainer != nullptr && ckpt.method != trainer->method()) {
      mismatch("written by " + core::to_string(ckpt.method) +
               ", cannot resume " + core::to_string(trainer->method()));
    }
  }
  return ckpt;
}

/// Reads a model record's u64 byte count, checked against the bytes left.
std::uint64_t read_record_length(std::istream& in) {
  return read_count(in, 1, "model record byte");
}

/// Reads a model record straight into `model` (its shape checked first).
void restore_model(std::istream& in, nn::Model& model) {
  const auto n = read_record_length(in);
  const auto got = nn::load_model_into(in, model);
  if (got != n) {
    bad_checkpoint(in, "model record of " + std::to_string(n) +
                           " bytes holds a " + std::to_string(got) +
                           "-byte model");
  }
}

}  // namespace

TrainingCheckpoint capture_checkpoint(core::AdaptiveSgdTrainer& trainer) {
  auto& runtime = trainer.runtime();
  TrainingCheckpoint ckpt;
  ckpt.version = kVersion;
  ckpt.seed = trainer.config().seed;
  ckpt.megabatches_completed = trainer.megabatch_index();
  ckpt.samples_served = runtime.samples_served();
  ckpt.round_robin_cursor = trainer.round_robin_cursor();
  ckpt.best_top1 = trainer.early_stop_best();
  ckpt.stagnation = trainer.early_stop_stagnation();

  double vtime = 0.0;
  for (std::size_t g = 0; g < runtime.num_gpus(); ++g) {
    vtime = std::max(vtime, runtime.gpu(g).device_free_at());
  }
  ckpt.vtime = vtime;

  const auto& sgd = trainer.sgd_state();
  ckpt.gpus.resize(runtime.num_gpus());
  for (std::size_t g = 0; g < runtime.num_gpus(); ++g) {
    auto& s = ckpt.gpus[g];
    const auto& gpu = runtime.gpu(g);
    s.batch_size = sgd[g].batch_size;
    s.learning_rate = sgd[g].learning_rate;
    s.updates = sgd[g].updates;
    s.alive = runtime.replica_alive(g) ? 1 : 0;
    s.busy_seconds = gpu.busy_seconds();
    s.degraded_until = gpu.degraded_until();
    s.transient_episodes = gpu.transient_episodes();
    s.rng = gpu.rng().state();
  }

  ckpt.scaling = trainer.scaling_scheduler().snapshot();

  if (runtime.compressed_merge()) {
    ckpt.compressed = 1;
    ckpt.loss_scale = runtime.loss_scale_guard().scale;
    ckpt.loss_scale_streak = runtime.loss_scale_guard().good_streak;
  }

  // The adaptive trainer's updates all flow through the per-replica
  // optimizers, so their states (plus kind/shape metadata) are exactly what
  // bit-identical resume needs.
  auto& opt0 = runtime.optimizer(0);
  ckpt.opt_kind = static_cast<std::uint8_t>(opt0.kind());
  ckpt.opt_num_slots = static_cast<std::uint8_t>(opt0.num_slots());
  ckpt.opt_has_row_steps = opt0.row_steps().empty() ? 0 : 1;
  for (std::size_t g = 0; g < runtime.num_gpus(); ++g) {
    ckpt.opt_steps.push_back(runtime.optimizer(g).step());
  }

  ckpt.method = trainer.method();
  ckpt.totals = trainer.run_totals();
  ckpt.faults = runtime.fault_stats();
  ckpt.trainer = &trainer;
  return ckpt;
}

void save_checkpoint(std::ostream& out, const TrainingCheckpoint& ckpt) {
  if (ckpt.trainer == nullptr) {
    throw std::invalid_argument(
        "checkpoint: only a captured checkpoint can be saved (its trainer "
        "holds the payload)");
  }
  auto& runtime = ckpt.trainer->runtime();
  write_bytes(out, kMagic, 4);
  write_u32(out, kVersion);
  write_small_state(out, ckpt);

  write_u8(out, ckpt.compressed);
  if (ckpt.compressed != 0) {
    write_f64(out, static_cast<double>(ckpt.loss_scale));
    write_u64(out, ckpt.loss_scale_streak);
    write_u64(out, runtime.num_gpus());
    for (std::size_t g = 0; g < runtime.num_gpus(); ++g) {
      const auto res = runtime.residual_state(g);
      write_u64(out, res.size_bytes());
      write_span(out, res);
    }
  }

  write_u8(out, ckpt.opt_kind);
  write_u8(out, ckpt.opt_num_slots);
  write_u8(out, ckpt.opt_has_row_steps);
  write_u64(out, ckpt.opt_steps.size());
  for (std::size_t g = 0; g < ckpt.opt_steps.size(); ++g) {
    auto& opt = runtime.optimizer(g);
    write_u64(out, ckpt.opt_steps[g]);
    if (ckpt.opt_has_row_steps != 0) {
      const auto steps = opt.row_steps();
      write_u64(out, steps.size());
      write_span(out, steps);
    }
    for (std::size_t slot = 0; slot < ckpt.opt_num_slots; ++slot) {
      const auto views = opt.slot_views(slot);
      std::size_t total = 0;
      for (const auto seg : views) total += seg.size();
      write_u64(out, total);
      for (const auto seg : views) write_span(out, seg);
    }
  }

  write_u8(out, static_cast<std::uint8_t>(ckpt.method));
  write_u64(out, ckpt.totals.merges);
  write_u64(out, ckpt.totals.perturbed_merges);
  write_u64(out, ckpt.totals.scaling_updates);
  write_f64(out, ckpt.totals.comm_seconds);
  write_u64(out, ckpt.faults.crashes);
  write_u64(out, ckpt.faults.joins);
  write_u64(out, ckpt.faults.oom_clamps);
  write_u64(out, ckpt.faults.degraded_merges);
  write_f64(out, ckpt.faults.recovery_seconds);

  for (const nn::Model* model :
       {&runtime.global_model(), &runtime.prev_global_model()}) {
    write_u64(out, nn::serialized_size(*model));
    nn::save_model(out, *model);
  }
  if (!out) throw std::runtime_error("checkpoint: write failed");
}

TrainingCheckpoint restore_checkpoint(core::AdaptiveSgdTrainer& trainer,
                                      std::istream& in) {
  auto ckpt = read_until_models(in, &trainer);
  auto& runtime = trainer.runtime();
  restore_model(in, runtime.global_model());
  restore_model(in, runtime.prev_global_model());

  if (ckpt.compressed == 0 && runtime.compressed_merge()) {
    // An uncompressed (or v1) checkpoint restoring into a compressed
    // runtime: zero the error-feedback residuals and reset the loss-scale
    // guard explicitly rather than trusting the runtime to be untouched —
    // a valid state, the merge just re-learns the residuals.
    for (std::size_t g = 0; g < runtime.num_gpus(); ++g) {
      const auto res = runtime.residual_state(g);
      std::fill(res.begin(), res.end(), 0.0f);
    }
    runtime.loss_scale_guard() = comm::LossScaleGuard{};
  } else if (ckpt.compressed != 0) {
    auto& guard = runtime.loss_scale_guard();
    guard.scale = ckpt.loss_scale;
    guard.good_streak = ckpt.loss_scale_streak;
  }
  if (ckpt.version < 3) {
    // v1/v2 checkpoint (no optimizer section): restart the moments,
    // accumulators and lazy counters from zero — explicitly, so a reused
    // trainer cannot smuggle stale state past the restore. A valid state;
    // bit-identical resume of a stateful run needs a v3+ checkpoint.
    for (std::size_t g = 0; g < runtime.num_gpus(); ++g) {
      runtime.optimizer(g).reset_state();
    }
    runtime.reset_global_optimizer_state();
  }

  runtime.skip_samples(ckpt.samples_served);
  std::vector<core::GpuSgdState> sgd(ckpt.gpus.size());
  for (std::size_t g = 0; g < ckpt.gpus.size(); ++g) {
    const auto& s = ckpt.gpus[g];
    auto& gpu = runtime.gpu(g);
    gpu.rng().set_state(s.rng);
    gpu.restore_timing(ckpt.vtime, s.busy_seconds, s.degraded_until,
                       s.transient_episodes);
    runtime.set_replica_alive(g, s.alive != 0);
    sgd[g].batch_size = s.batch_size;
    sgd[g].learning_rate = s.learning_rate;
    sgd[g].updates = s.updates;
  }
  // The counters train() accumulates in the runtime; the plan counters are
  // re-counted when the resumed run re-arms its plan.
  auto& faults = runtime.fault_stats();
  faults.crashes = ckpt.faults.crashes;
  faults.joins = ckpt.faults.joins;
  faults.oom_clamps = ckpt.faults.oom_clamps;
  faults.degraded_merges = ckpt.faults.degraded_merges;
  faults.recovery_seconds = ckpt.faults.recovery_seconds;

  // At a merge boundary every alive replica holds the freshly broadcast
  // global model.
  runtime.broadcast_global();

  trainer.restore_progress(std::move(sgd), ckpt.megabatches_completed,
                           ckpt.round_robin_cursor);
  trainer.scaling_scheduler_mutable().restore(ckpt.scaling);
  trainer.set_resume_point(ckpt.megabatches_completed, ckpt.best_top1,
                           ckpt.stagnation, ckpt.totals);
  return ckpt;
}

TrainingCheckpoint restore_checkpoint_file(core::AdaptiveSgdTrainer& trainer,
                                           const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("checkpoint: cannot open " + path);
  return restore_checkpoint(trainer, in);
}

TrainingCheckpoint load_checkpoint(std::istream& in) {
  auto ckpt = read_until_models(in, nullptr);
  read_record_length(in);
  return ckpt;
}

TrainingCheckpoint load_checkpoint_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("checkpoint: cannot open " + path);
  return load_checkpoint(in);
}

void save_checkpoint_file(const std::string& path,
                          const TrainingCheckpoint& ckpt) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("checkpoint: cannot open " + tmp);
    try {
      save_checkpoint(out, ckpt);
      out.close();
      if (!out) throw std::runtime_error("checkpoint: write failed: " + tmp);
    } catch (...) {
      out.close();
      std::remove(tmp.c_str());
      throw;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("checkpoint: cannot rename " + tmp + " to " +
                             path);
  }
}

void enable_periodic_checkpoint(core::AdaptiveSgdTrainer& trainer,
                                std::string path, std::size_t every) {
  if (every == 0) return;
  trainer.set_boundary_hook(
      [&trainer, path = std::move(path), every](std::size_t megabatch,
                                                double /*vtime*/) {
        if (megabatch % every == 0 ||
            megabatch == trainer.config().num_megabatches) {
          save_checkpoint_file(path, capture_checkpoint(trainer));
        }
      });
}

}  // namespace hetero::fault
