#include "nn/model.h"

#include <cassert>
#include <stdexcept>

#include "nn/deep_mlp.h"

namespace hetero::nn {

double Model::squared_distance(const Model& other) const {
  assert(num_parameters() == other.num_parameters());
  const auto a = to_flat();
  const auto b = other.to_flat();
  double ss = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    ss += d * d;
  }
  return ss;
}

std::unique_ptr<Model> make_model(std::size_t num_features,
                                  std::span<const std::size_t> hidden,
                                  std::size_t num_classes) {
  if (hidden.empty()) {
    throw std::invalid_argument("model requires at least one hidden layer");
  }
  for (std::size_t h : hidden) {
    if (h == 0) {
      throw std::invalid_argument("hidden layer sizes must be positive");
    }
  }
  DeepMlpConfig cfg;
  cfg.num_features = num_features;
  cfg.hidden.assign(hidden.begin(), hidden.end());
  cfg.num_classes = num_classes;
  return std::make_unique<DeepMlp>(cfg);
}

}  // namespace hetero::nn
