// Shared by the checkpoint fuzzers: a tiny dataset and trainer, real
// checkpoints of it as seeds, and the restore target that drives mutated
// bytes into a fresh trainer configured the way the bytes claim.
#pragma once

#include <cmath>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/adaptive_sgd.h"
#include "data/synthetic.h"
#include "fault/checkpoint.h"
#include "fault/fault_injector.h"
#include "sim/profiles.h"
#include "util/error.h"

namespace hetero::fault::fuzz_checkpoint {

// 12 features, 6 hidden, 4 classes: 106 parameters per model, so a whole
// checkpoint stays within the mutator's 16 KB output cap.
inline const data::XmlDataset& dataset() {
  static const data::XmlDataset ds = [] {
    data::SyntheticXmlConfig c;
    c.name = "fuzz";
    c.num_features = 12;
    c.num_classes = 4;
    c.num_train = 64;
    c.num_test = 16;
    c.avg_features_per_sample = 3.0;
    c.avg_labels_per_sample = 1.0;
    c.salient_features_per_class = 2;
    return data::generate_xml_dataset(c);
  }();
  return ds;
}

inline core::TrainerConfig config(nn::OptimizerKind kind, bool compressed) {
  core::TrainerConfig cfg;
  cfg.hidden = 6;
  cfg.batch_max = 8;
  cfg.batches_per_megabatch = 2;
  cfg.eval_samples = 16;
  cfg.num_megabatches = 3;
  cfg.optimizer.kind = kind;
  if (compressed) cfg.merge_precision = comm::MergePrecision::kInt8;
  return cfg;
}

inline std::unique_ptr<core::AdaptiveSgdTrainer> trainer(
    const core::TrainerConfig& cfg, core::Method method) {
  return std::make_unique<core::AdaptiveSgdTrainer>(
      dataset(), cfg, sim::v100_heterogeneous(2), method);
}

/// The checkpoint of a 2-mega-batch run, optionally with gpu1 crashed in
/// the second mega-batch.
inline std::string checkpoint(nn::OptimizerKind kind, bool compressed,
                              core::Method method, bool crash = false) {
  auto cfg = config(kind, compressed);
  cfg.num_megabatches = 2;
  auto t = trainer(cfg, method);
  if (crash) {
    const double span = trainer(cfg, method)->train().total_vtime;
    FaultPlan plan;
    plan.events.push_back({FaultKind::kCrash, 1, 0.6 * span, 0.0, 1.0, 0});
    FaultInjector(plan).arm(t->runtime());
  }
  t->train();
  std::ostringstream out(std::ios::binary);
  save_checkpoint(out, capture_checkpoint(*t));
  return out.str();
}

/// Restores `input` into a fresh trainer built as its small state says
/// (optimizer kind, merge precision, method) and returns that trainer, or
/// null when the bytes are well-formed but do not fit it (a
/// hetero::MismatchError: another seed, GPU count or sample position).
/// Malformed bytes throw hetero::ParseError. Whatever is accepted is
/// bounded by the input: every count was checked against the bytes left.
inline std::unique_ptr<core::AdaptiveSgdTrainer> restore(
    const std::string& input) {
  std::istringstream probe(input, std::ios::binary);
  const auto state = load_checkpoint(probe);
  if (state.gpus.size() > input.size() ||
      state.scaling.previous.size() > input.size() ||
      state.scaling.last_direction.size() > input.size() ||
      state.opt_steps.size() > input.size()) {
    throw std::logic_error("checkpoint fields exceed input size");
  }
  const auto kind = nn::optimizer_kind_from_byte(state.opt_kind);
  auto t = trainer(config(kind.value_or(nn::OptimizerKind::kSgd),
                          state.compressed != 0),
                   state.method);
  std::istringstream in(input, std::ios::binary);
  try {
    restore_checkpoint(*t, in);
  } catch (const MismatchError&) {
    return nullptr;
  }
  return t;
}

}  // namespace hetero::fault::fuzz_checkpoint
