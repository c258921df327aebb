// Fuzzes the HGCK checkpoint readers and the embedded model loader
// (nn::save_model v1/v2). Seeds are real checkpoints of a tiny trainer and
// real serialized models; the mutator's 8-byte integer smashing reaches the
// length/count fields, so this is the regression guard for "hostile length
// must throw hetero::ParseError, not bad_alloc" (restartable training
// consumes these bytes from disk on every --resume-from, and serving reads
// them in --snapshot-from-checkpoint).
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "checkpoint_fuzz.h"
#include "nn/model.h"
#include "nn/serialize.h"
#include "util/error.h"
#include "util/fuzz.h"

namespace hetero::fault {
namespace {

namespace fuzz = util::fuzz;
namespace seeds = fuzz_checkpoint;

std::string serialized_model_v1() {
  const nn::Model model(12, {6}, 4);
  std::ostringstream out(std::ios::binary);
  nn::save_model(out, model);
  return out.str();
}

std::string serialized_model_v2() {
  const nn::Model model(10, {8, 5}, 3);
  std::ostringstream out(std::ios::binary);
  nn::save_model(out, model);
  return out.str();
}

// fp32 adaptive, elastic, a crashed replica, and an int8 run's residuals.
fuzz::Corpus checkpoint_corpus() {
  const auto sgd = nn::OptimizerKind::kSgd;
  return fuzz::Corpus({
      seeds::checkpoint(sgd, false, core::Method::kAdaptive),
      seeds::checkpoint(sgd, false, core::Method::kElastic),
      seeds::checkpoint(sgd, false, core::Method::kAdaptive, true),
      seeds::checkpoint(sgd, true, core::Method::kAdaptive),
  });
}

// Binary formats: no text dictionary; the integer-smash and truncate ops do
// the structural damage.
const fuzz::Mutator kBinaryMutator{};

TEST(FuzzCheckpoint, LoaderNeverCrashesOrOverAllocates) {
  auto corpus = checkpoint_corpus();
  auto opts = fuzz::Options::from_env({});
  const auto stats =
      fuzz::run(opts, corpus, kBinaryMutator, [](const std::string& input) {
        // The serving path: the small state, then the global model read
        // straight from where load_checkpoint leaves the stream.
        std::istringstream in(input, std::ios::binary);
        const auto ckpt = load_checkpoint(in);
        // Accepted checkpoints must be bounded by their own bytes: the
        // loader validated every length field against the stream size.
        if (ckpt.gpus.size() > input.size() ||
            ckpt.scaling.previous.size() > input.size() ||
            ckpt.opt_steps.size() > input.size()) {
          throw std::logic_error("checkpoint fields exceed input size");
        }
        const auto model = nn::load_any_model(in);
        if (model.num_parameters() * sizeof(float) > input.size()) {
          throw std::logic_error("model larger than its checkpoint");
        }
      });
  EXPECT_GE(stats.iterations, 10000u);
  EXPECT_GT(stats.accepted, 0u);
  EXPECT_GT(stats.rejected, 0u);
}

TEST(FuzzCheckpoint, RestoreIntoFreshTrainerSucceedsOrThrowsTyped) {
  auto corpus = checkpoint_corpus();
  auto opts = fuzz::Options::from_env({});
  opts.seed = 0x5E5708Eull;
  std::size_t restored = 0;
  const auto stats = fuzz::run(
      opts, corpus, kBinaryMutator, [&](const std::string& input) {
        const auto trainer = seeds::restore(input);
        if (trainer == nullptr) return;  // typed MismatchError
        ++restored;
        // The sample stream replays at most the trainer's own run.
        const auto& cfg = trainer->config();
        if (trainer->runtime().samples_served() >
            cfg.num_megabatches * cfg.megabatch_samples()) {
          throw std::logic_error("restored past the end of the run");
        }
      });
  EXPECT_GE(stats.iterations, 10000u);
  EXPECT_GT(restored, 0u);
  EXPECT_GT(stats.rejected, 0u);
}

TEST(FuzzCheckpoint, ModelBlobLoaderNeverCrashesOrOverAllocates) {
  fuzz::Corpus corpus({serialized_model_v1(), serialized_model_v2()});
  auto opts = fuzz::Options::from_env({});
  opts.seed = 0xB10BULL;
  const auto stats =
      fuzz::run(opts, corpus, kBinaryMutator, [](const std::string& input) {
        std::istringstream in(input, std::ios::binary);
        const auto model = nn::load_any_model(in);
        // The v1/v2 headers were validated against the payload actually
        // present, so the parameter count is bounded by the input size.
        if (model.num_parameters() * sizeof(float) > input.size()) {
          throw std::logic_error("model larger than its serialized form");
        }
        // Loading into a model of the same shape reads the same bytes; into
        // another shape it is a typed MismatchError.
        for (nn::Model target : {nn::Model(12, {6}, 4),
                                 nn::Model(10, {8, 5}, 3)}) {
          std::istringstream again(input, std::ios::binary);
          try {
            if (nn::load_model_into(again, target) !=
                static_cast<std::size_t>(again.tellg())) {
              throw std::logic_error("load_model_into miscounted its bytes");
            }
          } catch (const MismatchError&) {
          }
        }
      });
  EXPECT_GE(stats.iterations, 10000u);
  EXPECT_GT(stats.accepted, 0u);
  EXPECT_GT(stats.rejected, 0u);
}

}  // namespace
}  // namespace hetero::fault
