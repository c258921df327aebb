// Fuzzes the HGCK checkpoint loader and the embedded model-blob loader
// (nn::save_model v1/v2). Seeds are real serialized checkpoints/models;
// the mutator's 8-byte integer smashing reaches the length/count fields,
// so this is the regression guard for "hostile length must throw
// hetero::ParseError, not bad_alloc" (restartable training consumes these
// bytes from disk on every --resume-from).
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "fault/checkpoint.h"
#include "nn/model.h"
#include "nn/serialize.h"
#include "util/error.h"
#include "util/fuzz.h"

namespace hetero::fault {
namespace {

namespace fuzz = util::fuzz;

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

std::string serialized_checkpoint() {
  TrainingCheckpoint ckpt;
  ckpt.seed = 42;
  ckpt.megabatches_completed = 3;
  ckpt.samples_served = 1280;
  ckpt.round_robin_cursor = 2;
  ckpt.vtime = 1.75;
  ckpt.best_top1 = 0.5;
  ckpt.stagnation = 1;
  ckpt.gpus.resize(3);
  for (std::size_t g = 0; g < ckpt.gpus.size(); ++g) {
    auto& s = ckpt.gpus[g];
    s.batch_size = 32 << g;
    s.learning_rate = 0.5 / static_cast<double>(g + 1);
    s.updates = 10 * g;
    s.alive = g == 2 ? 0 : 1;
    s.busy_seconds = 0.25 * static_cast<double>(g);
    s.rng = util::Rng(g).state();
  }
  ckpt.scaling.interval = 2;
  ckpt.scaling.previous = {32, 64, 128};
  ckpt.scaling.last_direction = {1, -1, 0};
  ckpt.global_blob = serialized_model_v1();
  ckpt.prev_global_blob = serialized_model_v1();
  std::ostringstream out(std::ios::binary);
  save_checkpoint(out, ckpt);
  return out.str();
}

// Binary formats: no text dictionary; the integer-smash and truncate ops do
// the structural damage.
const fuzz::Mutator kBinaryMutator{};

TEST(FuzzCheckpoint, LoaderNeverCrashesOrOverAllocates) {
  fuzz::Corpus corpus({serialized_checkpoint()});
  auto opts = fuzz::Options::from_env({});
  const auto stats =
      fuzz::run(opts, corpus, kBinaryMutator, [](const std::string& input) {
        std::istringstream in(input, std::ios::binary);
        const auto ckpt = load_checkpoint(in);
        // Accepted checkpoints must be bounded by their own bytes: the
        // loader validated every length field against the stream size.
        if (ckpt.global_blob.size() > input.size() ||
            ckpt.prev_global_blob.size() > input.size() ||
            ckpt.gpus.size() > input.size()) {
          throw std::logic_error("checkpoint fields exceed input size");
        }
      });
  EXPECT_GE(stats.iterations, 10000u);
  EXPECT_GT(stats.accepted, 0u);
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
      });
  EXPECT_GE(stats.iterations, 10000u);
  EXPECT_GT(stats.accepted, 0u);
  EXPECT_GT(stats.rejected, 0u);
}

}  // namespace
}  // namespace hetero::fault
