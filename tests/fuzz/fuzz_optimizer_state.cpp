// Fuzzes the checkpoint-v3 optimizer-state section (fault/checkpoint.cpp):
// per-replica moment matrices, lazy row counters, and the kind/slots
// metadata. The seeds are real v3 checkpoints with populated adam and
// adagrad state, so the mutator's integer smashing lands on the
// row-counter/element counts (hostile lengths must throw ParseError before
// allocation, never bad_alloc) and the float-byte dictionary injects
// NaN/Inf moments (non-finite state must be rejected — a resumed run would
// poison every subsequent update otherwise).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>

#include "fault/checkpoint.h"
#include "nn/model.h"
#include "nn/serialize.h"
#include "util/error.h"
#include "util/fuzz.h"

namespace hetero::fault {
namespace {

namespace fuzz = util::fuzz;

std::string serialized_model() {
  const nn::Model model(12, {6}, 4);
  std::ostringstream out(std::ios::binary);
  nn::save_model(out, model);
  return out.str();
}

// 12*6 + 6 + 6*4 + 4 = 106 parameters per slot, matching the model blob's
// architecture so accepted mutants stay shape-consistent.
constexpr std::size_t kParams = 106;
constexpr std::size_t kRows = 12;

std::string checkpoint_with_optimizer(std::uint8_t kind,
                                      std::uint8_t num_slots,
                                      std::uint8_t has_row_steps) {
  TrainingCheckpoint ckpt;
  ckpt.seed = 7;
  ckpt.megabatches_completed = 2;
  ckpt.samples_served = 512;
  ckpt.gpus.resize(2);
  for (std::size_t g = 0; g < ckpt.gpus.size(); ++g) {
    ckpt.gpus[g].batch_size = 32;
    ckpt.gpus[g].learning_rate = 0.02;
    ckpt.gpus[g].rng = util::Rng(g).state();
  }
  ckpt.opt_kind = kind;
  ckpt.opt_num_slots = num_slots;
  ckpt.opt_has_row_steps = has_row_steps;
  ckpt.opt_replicas.resize(ckpt.gpus.size());
  for (std::size_t g = 0; g < ckpt.opt_replicas.size(); ++g) {
    auto& rep = ckpt.opt_replicas[g];
    rep.step = 10 + g;
    if (has_row_steps) {
      rep.row_steps.resize(kRows);
      for (std::size_t r = 0; r < kRows; ++r) {
        rep.row_steps[r] = static_cast<std::uint32_t>(r + g);
      }
    }
    rep.slots.resize(num_slots);
    for (auto& slot : rep.slots) {
      slot.resize(kParams);
      for (std::size_t i = 0; i < kParams; ++i) {
        slot[i] = 0.125f * static_cast<float>(i % 17) + 0.001f;
      }
    }
  }
  ckpt.global_blob = serialized_model();
  ckpt.prev_global_blob = serialized_model();
  std::ostringstream out(std::ios::binary);
  save_checkpoint(out, ckpt);
  return out.str();
}

TEST(FuzzOptimizerState, LoaderNeverCrashesAcceptsOnlyFiniteBoundedState) {
  // adam (2 slots + row counters), adagrad (1 slot, no counters), sgd
  // (metadata-only records) — every v3 section shape the writer produces.
  fuzz::Corpus corpus({
      checkpoint_with_optimizer(1, 2, 1),  // adam
      checkpoint_with_optimizer(2, 2, 1),  // adamw
      checkpoint_with_optimizer(3, 1, 0),  // adagrad
      checkpoint_with_optimizer(0, 0, 0),  // sgd
  });
  // Little-endian float bytes for NaN, +Inf, -Inf, fp32-max, plus smashed
  // count bytes: the tokens that matter for state-blob hostility.
  const fuzz::Mutator mutator({
      std::string("\x00\x00\xc0\x7f", 4),  // quiet NaN
      std::string("\x00\x00\x80\x7f", 4),  // +inf
      std::string("\x00\x00\x80\xff", 4),  // -inf
      std::string("\xff\xff\x7f\x7f", 4),  // FLT_MAX
      std::string("\xee\xee\xee\xee\xee\xee\xee\xee", 8),  // hostile count
      std::string(8, '\0'),                                // zero count
  });
  auto opts = fuzz::Options::from_env({});
  opts.seed = 0x0975A7Eull;
  const auto stats =
      fuzz::run(opts, corpus, mutator, [](const std::string& input) {
        std::istringstream in(input, std::ios::binary);
        const auto ckpt = load_checkpoint(in);
        // Accepted optimizer state must be bounded by its own bytes and
        // arithmetic-safe: every count validated against the stream, every
        // float finite.
        if (ckpt.opt_replicas.size() > input.size()) {
          throw std::logic_error("replica count exceeds input size");
        }
        for (const auto& rep : ckpt.opt_replicas) {
          if (rep.row_steps.size() * sizeof(std::uint32_t) > input.size()) {
            throw std::logic_error("row counters exceed input size");
          }
          for (const auto& slot : rep.slots) {
            if (slot.size() * sizeof(float) > input.size()) {
              throw std::logic_error("slot exceeds input size");
            }
            for (const float v : slot) {
              if (!std::isfinite(v)) {
                throw std::logic_error("accepted non-finite optimizer state");
              }
            }
          }
        }
      });
  EXPECT_GE(stats.iterations, 10000u);
  EXPECT_GT(stats.accepted, 0u);
  EXPECT_GT(stats.rejected, 0u);
}

}  // namespace
}  // namespace hetero::fault
