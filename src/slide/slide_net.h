// SLIDE-style network: one ReLU hidden layer + sampled softmax output whose
// active neuron set is selected per sample by LSH (Chen et al., "SLIDE: In
// Defense of Smart Algorithms over Hardware Acceleration", the paper's CPU
// baseline).
//
// Layout differs from nn::Model: the output weights are stored
// neuron-major (C x H) so a neuron's weight vector is contiguous — needed
// both for per-neuron LSH hashing and for touching only the active rows.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "slide/lsh_table.h"
#include "sparse/libsvm.h"
#include "util/rng.h"

namespace hetero::slide {

struct SlideNetConfig {
  std::size_t num_features = 0;
  std::size_t hidden = 64;
  std::size_t num_classes = 0;
  std::size_t k_bits = 6;
  std::size_t l_tables = 8;
  /// Bounds on the active output set (true labels always included).
  std::size_t min_active = 32;
  std::size_t max_active = 128;
};

struct SampleStats {
  double loss = 0.0;
  std::size_t active = 0;      // active output neurons
  double flops = 0.0;          // work estimate for the CPU cost model
};

class SlideNetwork {
 public:
  SlideNetwork(const SlideNetConfig& cfg, util::Rng& rng);

  /// One asynchronous SGD update from a single sample (SLIDE processes one
  /// sample per thread). Active set = true labels ∪ LSH(h) ∪ random fill.
  SampleStats train_sample(std::span<const std::uint32_t> x_cols,
                           std::span<const float> x_vals,
                           std::span<const std::uint32_t> labels, float lr,
                           util::Rng& rng);

  /// Rehashes all output neurons (called every `rebuild_every` updates).
  void rebuild_lsh();

  /// Full-softmax top-1 accuracy on a test prefix (evaluation uses the
  /// exact forward pass, not the sampled one).
  double evaluate_top1(const sparse::LabeledDataset& test,
                       std::size_t max_samples) const;

  const SlideNetConfig& config() const { return cfg_; }
  std::size_t lsh_rebuilds() const { return lsh_.rebuilds(); }

 private:
  void hidden_forward(std::span<const std::uint32_t> x_cols,
                      std::span<const float> x_vals,
                      std::vector<float>& h) const;

  SlideNetConfig cfg_;
  std::vector<float> w1_;  // F x H, row-major per feature
  std::vector<float> b1_;  // H
  std::vector<float> wn_;  // C x H, row-major per neuron
  std::vector<float> bn_;  // C
  LshIndex lsh_;

  // Scratch (single-writer; the trainer serializes updates).
  std::vector<float> h_;
  std::vector<float> dh_;
  std::vector<std::uint32_t> active_;
  std::vector<float> logits_;
};

}  // namespace hetero::slide
