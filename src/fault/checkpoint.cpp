#include "fault/checkpoint.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "comm/quant.h"
#include "nn/serialize.h"
#include "util/error.h"

namespace hetero::fault {

namespace {

constexpr char kMagic[4] = {'H', 'G', 'C', 'K'};
// v2 adds the merge-compression section (error-feedback residuals + fp16
// loss-scale guard) between the scaling state and the model blobs; v3 adds
// the per-replica optimizer-state section after it. v1/v2 checkpoints still
// load; their missing sections are defaulted (fresh optimizer state).
constexpr std::uint32_t kVersion = 3;

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
void write_blob(std::ostream& out, const std::string& blob) {
  write_u64(out, blob.size());
  write_bytes(out, blob.data(), blob.size());
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

/// Bytes between the read cursor and end-of-stream, or npos when the stream
/// is not seekable. Length/count fields are validated against this before
/// any allocation so a corrupt 2^63 length cannot drive a huge resize.
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
std::string read_blob(std::istream& in) {
  const auto n = read_u64(in);
  // Validate the length against the bytes actually present BEFORE the
  // resize: a corrupt/hostile length field (e.g. 2^63) must produce a typed
  // error, not a bad_alloc/length_error from a huge allocation.
  const auto remaining = remaining_bytes(in);
  if (remaining != ParseError::npos && n > remaining) {
    bad_checkpoint(in, "blob length " + std::to_string(n) +
                           " exceeds remaining stream size " +
                           std::to_string(remaining));
  }
  std::string blob(static_cast<std::size_t>(n), '\0');
  read_bytes(in, blob.data(), static_cast<std::size_t>(n));
  return blob;
}

/// "features x hidden... x classes", e.g. "64x8x4x16".
std::string shape_string(const nn::ModelInfo& info) {
  std::string s = std::to_string(info.num_features);
  for (const std::size_t h : info.hidden) s += "x" + std::to_string(h);
  return s + "x" + std::to_string(info.num_classes);
}

void copy_blob_into(const std::string& blob, nn::Model& target) {
  std::istringstream in(blob, std::ios::binary);
  const auto loaded = nn::load_any_model(in);
  // The shape, not the parameter count: 91x6x16 and 64x8x16 both hold 664.
  const auto& got = loaded.info();
  const auto& want = target.info();
  if (got.num_features != want.num_features || got.hidden != want.hidden ||
      got.num_classes != want.num_classes) {
    throw std::runtime_error("checkpoint: model shape " + shape_string(got) +
                             " does not match runtime " +
                             shape_string(want));
  }
  target.copy_from(loaded);
}

}  // namespace

TrainingCheckpoint capture_checkpoint(core::AdaptiveSgdTrainer& trainer) {
  auto& runtime = trainer.runtime();
  TrainingCheckpoint ckpt;
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
    ckpt.residual_blobs.resize(runtime.num_gpus());
    for (std::size_t g = 0; g < runtime.num_gpus(); ++g) {
      const auto res = runtime.residual_state(g);
      ckpt.residual_blobs[g].assign(
          reinterpret_cast<const char*>(res.data()),
          res.size() * sizeof(float));
    }
  }

  // Optimizer section (v3): the adaptive trainer's updates all flow through
  // the per-replica optimizers, so those states (plus kind/shape metadata)
  // are exactly what bit-identical resume needs.
  {
    auto& opt0 = runtime.optimizer(0);
    ckpt.opt_kind = static_cast<std::uint8_t>(opt0.kind());
    ckpt.opt_num_slots = static_cast<std::uint8_t>(opt0.num_slots());
    ckpt.opt_has_row_steps = opt0.row_steps().empty() ? 0 : 1;
    ckpt.opt_replicas.resize(runtime.num_gpus());
    for (std::size_t g = 0; g < runtime.num_gpus(); ++g) {
      auto& opt = runtime.optimizer(g);
      auto& s = ckpt.opt_replicas[g];
      s.step = opt.step();
      const auto steps = opt.row_steps();
      s.row_steps.assign(steps.begin(), steps.end());
      s.slots.resize(opt.num_slots());
      for (std::size_t slot = 0; slot < opt.num_slots(); ++slot) {
        const auto views = opt.slot_views(slot);
        std::size_t total = 0;
        for (const auto seg : views) total += seg.size();
        auto& flat = s.slots[slot];
        flat.reserve(total);
        for (const auto seg : views) {
          flat.insert(flat.end(), seg.begin(), seg.end());
        }
      }
    }
  }

  ckpt.global_blob = nn::model_blob(runtime.global_model());
  ckpt.prev_global_blob = nn::model_blob(runtime.prev_global_model());
  return ckpt;
}

void restore_checkpoint(core::AdaptiveSgdTrainer& trainer,
                        const TrainingCheckpoint& ckpt) {
  auto& runtime = trainer.runtime();
  if (ckpt.gpus.size() != runtime.num_gpus()) {
    throw std::runtime_error("checkpoint: GPU count does not match runtime");
  }
  if (ckpt.seed != trainer.config().seed) {
    throw std::runtime_error("checkpoint: seed does not match config");
  }
  if (runtime.samples_served() != 0) {
    throw std::runtime_error(
        "checkpoint: restore requires a freshly constructed trainer");
  }

  copy_blob_into(ckpt.global_blob, runtime.global_model());
  copy_blob_into(ckpt.prev_global_blob, runtime.prev_global_model());
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

  if (ckpt.compressed != 0) {
    if (!runtime.compressed_merge()) {
      throw std::runtime_error(
          "checkpoint: carries merge-compression state but the runtime "
          "merges at fp32");
    }
    if (ckpt.residual_blobs.size() != runtime.num_gpus()) {
      throw std::runtime_error(
          "checkpoint: residual count does not match runtime GPU count");
    }
    for (std::size_t g = 0; g < runtime.num_gpus(); ++g) {
      const auto res = runtime.residual_state(g);
      const auto& blob = ckpt.residual_blobs[g];
      if (blob.size() != res.size() * sizeof(float)) {
        throw std::runtime_error(
            "checkpoint: residual size does not match runtime parameter "
            "count");
      }
      std::memcpy(res.data(), blob.data(), blob.size());
    }
    auto& guard = runtime.loss_scale_guard();
    guard.scale = ckpt.loss_scale;
    guard.good_streak = ckpt.loss_scale_streak;
  } else if (runtime.compressed_merge()) {
    // An uncompressed (or v1) checkpoint restoring into a compressed
    // runtime: zero the error-feedback residuals and reset the loss-scale
    // guard explicitly rather than trusting the runtime to be untouched —
    // a valid state, the merge just re-learns the residuals.
    for (std::size_t g = 0; g < runtime.num_gpus(); ++g) {
      const auto res = runtime.residual_state(g);
      std::fill(res.begin(), res.end(), 0.0f);
    }
    runtime.loss_scale_guard() = comm::LossScaleGuard{};
  }

  if (!ckpt.opt_replicas.empty()) {
    const auto kind = nn::optimizer_kind_from_byte(ckpt.opt_kind);
    if (!kind || *kind != runtime.optimizer(0).kind()) {
      throw std::runtime_error(
          "checkpoint: optimizer kind does not match config");
    }
    if (ckpt.opt_replicas.size() != runtime.num_gpus()) {
      throw std::runtime_error(
          "checkpoint: optimizer replica count does not match runtime");
    }
    for (std::size_t g = 0; g < runtime.num_gpus(); ++g) {
      auto& opt = runtime.optimizer(g);
      const auto& s = ckpt.opt_replicas[g];
      if (s.slots.size() != opt.num_slots()) {
        throw std::runtime_error(
            "checkpoint: optimizer slot count does not match config");
      }
      const auto steps = opt.row_steps();
      if (s.row_steps.size() != steps.size()) {
        throw std::runtime_error(
            "checkpoint: optimizer row-counter count does not match model");
      }
      std::copy(s.row_steps.begin(), s.row_steps.end(), steps.begin());
      opt.set_step(s.step);
      for (std::size_t slot = 0; slot < opt.num_slots(); ++slot) {
        const auto& flat = s.slots[slot];
        auto views = opt.slot_views(slot);
        std::size_t total = 0;
        for (const auto seg : views) total += seg.size();
        if (flat.size() != total) {
          throw std::runtime_error(
              "checkpoint: optimizer state size does not match model");
        }
        std::size_t off = 0;
        for (auto seg : views) {
          std::copy(flat.begin() + static_cast<std::ptrdiff_t>(off),
                    flat.begin() + static_cast<std::ptrdiff_t>(off) +
                        static_cast<std::ptrdiff_t>(seg.size()),
                    seg.begin());
          off += seg.size();
        }
      }
    }
  } else {
    // v1/v2 checkpoint (no optimizer section): restart the moments,
    // accumulators and lazy counters from zero — explicitly, so a reused
    // trainer cannot smuggle stale state past the restore. A valid state;
    // bit-identical resume of a stateful run needs a v3 checkpoint.
    for (std::size_t g = 0; g < runtime.num_gpus(); ++g) {
      runtime.optimizer(g).reset_state();
    }
    runtime.reset_global_optimizer_state();
  }

  // At a merge boundary every alive replica holds the freshly broadcast
  // global model.
  runtime.broadcast_global();

  trainer.restore_progress(std::move(sgd), ckpt.megabatches_completed,
                           ckpt.round_robin_cursor);
  trainer.scaling_scheduler_mutable().restore(ckpt.scaling);
  trainer.set_resume_point(ckpt.megabatches_completed, ckpt.best_top1,
                           ckpt.stagnation);
}

void save_checkpoint(std::ostream& out, const TrainingCheckpoint& ckpt) {
  write_bytes(out, kMagic, 4);
  write_u32(out, kVersion);
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
  write_u8(out, ckpt.compressed);
  if (ckpt.compressed != 0) {
    write_f64(out, static_cast<double>(ckpt.loss_scale));
    write_u64(out, ckpt.loss_scale_streak);
    write_u64(out, ckpt.residual_blobs.size());
    for (const auto& blob : ckpt.residual_blobs) write_blob(out, blob);
  }
  write_u8(out, ckpt.opt_kind);
  write_u8(out, ckpt.opt_num_slots);
  write_u8(out, ckpt.opt_has_row_steps);
  write_u64(out, ckpt.opt_replicas.size());
  for (const auto& s : ckpt.opt_replicas) {
    write_u64(out, s.step);
    if (ckpt.opt_has_row_steps != 0) {
      write_u64(out, s.row_steps.size());
      write_bytes(out, s.row_steps.data(),
                  s.row_steps.size() * sizeof(std::uint32_t));
    }
    for (const auto& slot : s.slots) {
      write_u64(out, slot.size());
      write_bytes(out, slot.data(), slot.size() * sizeof(float));
    }
  }
  write_blob(out, ckpt.global_blob);
  write_blob(out, ckpt.prev_global_blob);
  if (!out) throw std::runtime_error("checkpoint: write failed");
}

TrainingCheckpoint load_checkpoint(std::istream& in) {
  char magic[4];
  read_bytes(in, magic, 4);
  if (std::memcmp(magic, kMagic, 4) != 0) {
    bad_checkpoint(in, "bad magic");
  }
  const auto version = read_u32(in);
  if (version < 1 || version > kVersion) {
    bad_checkpoint(in, "unsupported version " + std::to_string(version));
  }
  TrainingCheckpoint ckpt;
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
  if (version >= 2) {
    ckpt.compressed = read_u8(in);
    if (ckpt.compressed > 1) {
      bad_checkpoint(in, "invalid compressed flag " +
                             std::to_string(ckpt.compressed));
    }
    if (ckpt.compressed != 0) {
      const double scale = read_f64(in);
      if (!std::isfinite(scale) ||
          scale < static_cast<double>(comm::LossScaleGuard::kMinScale) ||
          scale > static_cast<double>(comm::LossScaleGuard::kMaxScale)) {
        bad_checkpoint(in, "loss scale out of range");
      }
      ckpt.loss_scale = static_cast<float>(scale);
      const auto streak = read_u64(in);
      ckpt.loss_scale_streak = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(streak, 0xffffffffu));
      // Each residual record is at least its 8-byte length prefix.
      const auto num_residuals = read_u64(in);
      check_count(in, num_residuals, 8, "residual");
      ckpt.residual_blobs.resize(static_cast<std::size_t>(num_residuals));
      for (auto& blob : ckpt.residual_blobs) blob = read_blob(in);
    }
  }
  if (version >= 3) {
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
    ckpt.opt_replicas.resize(static_cast<std::size_t>(num_states));
    for (auto& s : ckpt.opt_replicas) {
      s.step = read_u64(in);
      if (ckpt.opt_has_row_steps != 0) {
        const auto n = read_u64(in);
        check_count(in, n, sizeof(std::uint32_t), "row counter");
        s.row_steps.resize(static_cast<std::size_t>(n));
        read_bytes(in, s.row_steps.data(), s.row_steps.size() *
                                               sizeof(std::uint32_t));
      }
      s.slots.resize(ckpt.opt_num_slots);
      for (auto& slot : s.slots) {
        const auto n = read_u64(in);
        check_count(in, n, sizeof(float), "optimizer slot");
        slot.resize(static_cast<std::size_t>(n));
        read_bytes(in, slot.data(), slot.size() * sizeof(float));
        for (const float v : slot) {
          // Moments/accumulators feed divisions and square roots on the hot
          // path; a NaN/Inf smuggled through a checkpoint would poison the
          // model silently. Typed parse failure instead.
          if (!std::isfinite(v)) {
            bad_checkpoint(in, "non-finite optimizer state value");
          }
        }
      }
    }
  }
  ckpt.global_blob = read_blob(in);
  ckpt.prev_global_blob = read_blob(in);
  return ckpt;
}

void save_checkpoint_file(const std::string& path,
                          const TrainingCheckpoint& ckpt) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("checkpoint: cannot open " + path);
  save_checkpoint(out, ckpt);
}

TrainingCheckpoint load_checkpoint_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("checkpoint: cannot open " + path);
  return load_checkpoint(in);
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
