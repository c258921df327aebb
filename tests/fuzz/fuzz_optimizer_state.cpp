// Fuzzes the checkpoint optimizer-state section (fault/checkpoint.cpp):
// per-replica moment matrices, lazy row counters, and the kind/slots
// metadata. The seeds are real checkpoints of a tiny trainer with populated
// adam, adamw and adagrad state, so the mutator's integer smashing lands on
// the row-counter/element counts (hostile lengths must throw ParseError
// before anything is allocated or written, never bad_alloc) and the
// float-byte dictionary injects NaN/Inf moments (non-finite state must be
// rejected — a resumed run would poison every subsequent update
// otherwise).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>

#include "checkpoint_fuzz.h"
#include "util/error.h"
#include "util/fuzz.h"

namespace hetero::fault {
namespace {

namespace fuzz = util::fuzz;
namespace seeds = fuzz_checkpoint;

TEST(FuzzOptimizerState, LoaderNeverCrashesAcceptsOnlyFiniteBoundedState) {
  // adam and adamw (2 slots + row counters), adagrad (1 slot, no
  // counters), sgd (step-only records) — every section shape the writer
  // produces.
  const auto adaptive = core::Method::kAdaptive;
  fuzz::Corpus corpus({
      seeds::checkpoint(nn::OptimizerKind::kAdam, false, adaptive),
      seeds::checkpoint(nn::OptimizerKind::kAdamW, true, adaptive),
      seeds::checkpoint(nn::OptimizerKind::kAdagrad, false, adaptive),
      seeds::checkpoint(nn::OptimizerKind::kSgd, false, adaptive),
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
  std::size_t restored = 0;
  const auto stats =
      fuzz::run(opts, corpus, mutator, [&](const std::string& input) {
        const auto trainer = seeds::restore(input);
        if (trainer == nullptr) return;  // typed MismatchError
        ++restored;
        // Accepted optimizer state must be arithmetic-safe: every float
        // the restore wrote is finite.
        auto& runtime = trainer->runtime();
        for (std::size_t g = 0; g < runtime.num_gpus(); ++g) {
          auto& opt = runtime.optimizer(g);
          for (std::size_t slot = 0; slot < opt.num_slots(); ++slot) {
            for (const auto seg : opt.slot_views(slot)) {
              for (const float v : seg) {
                if (!std::isfinite(v)) {
                  throw std::logic_error(
                      "accepted non-finite optimizer state");
                }
              }
            }
          }
        }
      });
  EXPECT_GE(stats.iterations, 10000u);
  EXPECT_GT(restored, 0u);
  EXPECT_GT(stats.rejected, 0u);
}

}  // namespace
}  // namespace hetero::fault
