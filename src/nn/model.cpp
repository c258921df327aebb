#include "nn/model.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "sparse/ops.h"
#include "tensor/ops.h"

namespace hetero::nn {

void ModelWorkspace::ensure(const ModelInfo& info) {
  const std::size_t nh = info.hidden.size();
  const std::size_t layers = info.num_layers();
  deltas.resize(layers);
  // grad_w1 is keyed per batch by compute_gradients; nothing to pre-size.
  grad_w.resize(layers - 1);
  grad_b.resize(layers);
  std::size_t in = info.hidden.front();
  for (std::size_t l = 1; l < layers; ++l) {
    const std::size_t out = l < nh ? info.hidden[l] : info.num_classes;
    if (grad_w[l - 1].rows() != in || grad_w[l - 1].cols() != out) {
      grad_w[l - 1].resize(in, out);
    }
    in = out;
  }
  for (std::size_t l = 0; l < layers; ++l) {
    const std::size_t out = l < nh ? info.hidden[l] : info.num_classes;
    grad_b[l].assign(out, 0.0f);
  }
}

Model::Model(std::size_t num_features, std::vector<std::size_t> hidden,
             std::size_t num_classes) {
  if (hidden.empty()) {
    throw std::invalid_argument("model requires at least one hidden layer");
  }
  for (std::size_t h : hidden) {
    if (h == 0) {
      throw std::invalid_argument("hidden layer sizes must be positive");
    }
  }
  std::size_t in = num_features;
  for (std::size_t h : hidden) {
    weights_.emplace_back(in, h);
    biases_.emplace_back(h, 0.0f);
    info_.num_parameters += in * h + h;
    in = h;
  }
  weights_.emplace_back(in, num_classes);
  biases_.emplace_back(num_classes, 0.0f);
  info_.num_parameters += in * num_classes + num_classes;
  info_.num_features = num_features;
  info_.hidden = std::move(hidden);
  info_.num_classes = num_classes;
}

void Model::init(util::Rng& rng) {
  for (std::size_t l = 0; l < weights_.size(); ++l) {
    const double fan_in = static_cast<double>(
        std::max<std::size_t>(1, weights_[l].rows()));
    tensor::init_gaussian(weights_[l], 1.0 / std::sqrt(fan_in), rng);
    std::fill(biases_[l].begin(), biases_[l].end(), 0.0f);
  }
}

void Model::copy_from(const Model& other) {
  assert(other.info_.num_features == info_.num_features &&
         other.info_.hidden == info_.hidden &&
         other.info_.num_classes == info_.num_classes);
  for (std::size_t l = 0; l < weights_.size(); ++l) {
    weights_[l] = other.weights_[l];
    biases_[l] = other.biases_[l];
  }
}

std::vector<float> Model::to_flat() const {
  std::vector<float> flat;
  flat.reserve(num_parameters());
  for (std::size_t l = 0; l < weights_.size(); ++l) {
    flat.insert(flat.end(), weights_[l].flat().begin(),
                weights_[l].flat().end());
    flat.insert(flat.end(), biases_[l].begin(), biases_[l].end());
  }
  return flat;
}

void Model::from_flat(std::span<const float> flat) {
  assert(flat.size() == num_parameters());
  const float* p = flat.data();
  for (std::size_t l = 0; l < weights_.size(); ++l) {
    std::copy_n(p, weights_[l].size(), weights_[l].data());
    p += weights_[l].size();
    std::copy_n(p, biases_[l].size(), biases_[l].data());
    p += biases_[l].size();
  }
}

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

std::vector<std::span<float>> Model::segment_views() {
  std::vector<std::span<float>> views;
  views.reserve(2 * weights_.size());
  for (std::size_t l = 0; l < weights_.size(); ++l) {
    views.push_back({weights_[l].data(), weights_[l].size()});
    views.push_back({biases_[l].data(), biases_[l].size()});
  }
  return views;
}

std::vector<std::span<const float>> Model::segment_views() const {
  std::vector<std::span<const float>> views;
  views.reserve(2 * weights_.size());
  for (std::size_t l = 0; l < weights_.size(); ++l) {
    views.push_back({weights_[l].data(), weights_[l].size()});
    views.push_back({biases_[l].data(), biases_[l].size()});
  }
  return views;
}

double Model::l2_norm_per_parameter() const {
  double ss = 0.0;
  for (std::size_t l = 0; l < weights_.size(); ++l) {
    ss += tensor::sum_of_squares(weights_[l].flat());
    ss += tensor::sum_of_squares({biases_[l].data(), biases_[l].size()});
  }
  return std::sqrt(ss) / static_cast<double>(num_parameters());
}

void Model::forward_hidden(const sparse::CsrMatrix& x,
                           std::vector<tensor::Matrix>& acts,
                           const kernels::Context& ctx) const {
  assert(x.cols() == info_.num_features);
  // Per layer: spmm (layer 0) or gemm, bias, relu in place. The order is
  // part of the pinned one-hidden-layer bits.
  const std::size_t nh = info_.hidden.size();
  acts.resize(nh);
  for (std::size_t l = 0; l < nh; ++l) {
    if (l == 0) {
      sparse::spmm(x, weights_[0], acts[0], ctx);
    } else {
      tensor::gemm(acts[l - 1], weights_[l], acts[l], ctx);
    }
    tensor::add_row_bias(acts[l], biases_[l]);
    tensor::relu(acts[l]);
  }
}

void Model::forward_output(const tensor::Matrix& h, tensor::Matrix& out,
                           const kernels::Context& ctx) const {
  const std::size_t nh = info_.hidden.size();
  tensor::gemm(h, weights_[nh], out, ctx);
  tensor::add_row_bias(out, biases_[nh]);
}

double Model::forward_loss(const sparse::CsrMatrix& x,
                           const sparse::CsrMatrix& y,
                           ModelWorkspace& ws) const {
  assert(y.cols() == info_.num_classes);
  assert(x.rows() == y.rows());
  forward_hidden(x, ws.acts, ws.ctx);
  // Output layer straight into the shared probs buffer.
  forward_output(ws.acts.back(), ws.probs, ws.ctx);
  tensor::softmax_rows(ws.probs, ws.ctx);

  // Multi-label cross-entropy, uniform target over positive labels.
  double loss = 0.0;
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const auto labels = y.row_cols(r);
    if (labels.empty()) continue;
    const float* p = ws.probs.data() + r * info_.num_classes;
    double row_loss = 0.0;
    for (auto c : labels) {
      row_loss -= std::log(std::max(1e-12f, p[c]));
    }
    loss += row_loss / static_cast<double>(labels.size());
  }
  return loss / static_cast<double>(std::max<std::size_t>(1, x.rows()));
}

StepStats Model::compute_gradients(const sparse::CsrMatrix& x,
                                   const sparse::CsrMatrix& y,
                                   ModelWorkspace& ws) const {
  ws.ensure(info_);
  const std::size_t layers = info_.num_layers();
  const std::size_t nh = info_.hidden.size();

  StepStats stats;
  stats.batch_size = x.rows();
  stats.batch_nnz = x.nnz();
  stats.loss = forward_loss(x, y, ws);

  const float inv_batch = 1.0f / static_cast<float>(x.rows());

  // Output delta: (probs - target) / batch, target uniform over positives.
  auto& dlast = ws.deltas[layers - 1];
  dlast = ws.probs;
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const auto labels = y.row_cols(r);
    if (labels.empty()) continue;
    const float share = 1.0f / static_cast<float>(labels.size());
    float* d = dlast.data() + r * info_.num_classes;
    for (auto c : labels) d[c] -= share;
  }
  tensor::scale(dlast.flat(), inv_batch);

  // Output-layer gradients.
  tensor::gemm_at_b(ws.acts[nh - 1], dlast, ws.grad_w[layers - 2], ws.ctx);
  tensor::column_sums(dlast, {ws.grad_b[layers - 1].data(),
                              ws.grad_b[layers - 1].size()});

  // Propagate down the dense stack; deltas are w.r.t. pre-activations.
  // The relu mask reads the activations: relu(a) > 0 exactly where a > 0,
  // and NaN stays NaN, so it equals the pre-activation mask bit for bit.
  for (std::size_t l = layers - 1; l-- > 0;) {
    tensor::gemm_a_bt(ws.deltas[l + 1], weights_[l + 1], ws.deltas[l],
                      ws.ctx);
    tensor::relu_backward(ws.acts[l], ws.deltas[l]);
    if (l > 0) {
      tensor::gemm_at_b(ws.acts[l - 1], ws.deltas[l], ws.grad_w[l - 1],
                        ws.ctx);
      tensor::column_sums(ws.deltas[l],
                          {ws.grad_b[l].data(), ws.grad_b[l].size()});
    }
  }

  // Sparse input layer: touched-row gradient keyed by this batch. No
  // F x H1 dense buffer is ever materialized.
  ws.grad_w1.reset(x, info_.hidden.front());
  ws.grad_w1.accumulate_spmm_t(x, ws.deltas[0], ws.ctx);
  tensor::column_sums(ws.deltas[0],
                      {ws.grad_b[0].data(), ws.grad_b[0].size()});
  return stats;
}

void Model::apply_gradients(const ModelWorkspace& ws, float lr,
                            float weight_decay) {
  const std::size_t layers = info_.num_layers();
  // Decoupled L2 decay factor; 1.0 when decay is off.
  const float keep = 1.0f - lr * weight_decay;
  // Sparse input layer: only the feature rows present in the batch carry
  // gradient (and, for consistency, decay).
  ws.grad_w1.apply_to(weights_[0], lr, keep, ws.ctx);
  if (weight_decay != 0.0f) {
    tensor::scale({biases_[0].data(), biases_[0].size()}, keep);
    for (std::size_t l = 1; l < layers; ++l) {
      tensor::scale(weights_[l].flat(), keep);
      tensor::scale({biases_[l].data(), biases_[l].size()}, keep);
    }
  }
  tensor::axpy(-lr, {ws.grad_b[0].data(), ws.grad_b[0].size()},
               {biases_[0].data(), biases_[0].size()});
  for (std::size_t l = 1; l < layers; ++l) {
    tensor::axpy(-lr, ws.grad_w[l - 1].flat(), weights_[l].flat());
    tensor::axpy(-lr, {ws.grad_b[l].data(), ws.grad_b[l].size()},
                 {biases_[l].data(), biases_[l].size()});
  }
}

StepStats Model::train_step(const sparse::CsrMatrix& x,
                            const sparse::CsrMatrix& y, float lr,
                            ModelWorkspace& ws, float weight_decay) {
  const StepStats stats = compute_gradients(x, y, ws);
  apply_gradients(ws, lr, weight_decay);
  return stats;
}

std::vector<sim::KernelDesc> Model::step_kernels(
    const sparse::CsrMatrix& x) const {
  const std::size_t layers = info_.num_layers();
  const double b = static_cast<double>(x.rows());
  const double nnz = static_cast<double>(x.nnz());
  const double c = static_cast<double>(info_.num_classes);
  const double h1 = static_cast<double>(info_.hidden.front());
  const double f4 = sizeof(float);

  // out[l] = output width of layer l.
  std::vector<double> out;
  out.reserve(layers);
  for (std::size_t h : info_.hidden) out.push_back(static_cast<double>(h));
  out.push_back(c);

  std::vector<sim::KernelDesc> kernels;
  const auto add = [&](double flops, double bytes, bool sparse,
                       std::string name) {
    kernels.push_back({flops, bytes, sparse, std::move(name)});
  };

  // Forward. With one hidden layer the names, formulas and order are
  // pinned (test_deep_mlp): they set the virtual time of every default run.
  add(2 * nnz * h1, nnz * (4 + f4) + nnz * h1 * f4 + b * h1 * f4, true,
      "spmm_fwd1");
  add(b * h1, 2 * b * h1 * f4, false, "bias_relu1");
  for (std::size_t l = 1; l < layers; ++l) {
    const double m = out[l - 1], n = out[l];
    add(2 * b * m * n, (b * m + m * n + b * n) * f4, false,
        "gemm_fwd" + std::to_string(l + 1));
    if (l + 1 < layers) {
      add(b * n, 2 * b * n * f4, false, "bias_relu" + std::to_string(l + 1));
    } else {
      add(b * c * 4, 2 * b * c * f4, false, "bias_softmax");
    }
  }
  // Backward.
  add(b * c, 2 * b * c * f4, false, "delta" + std::to_string(layers));
  for (std::size_t l = layers; l-- > 1;) {
    const double m = out[l - 1], n = out[l];
    add(2 * b * m * n, (b * m + b * n + m * n) * f4, false,
        "gemm_grad_w" + std::to_string(l + 1));
    add(2 * b * m * n, (b * n + m * n + b * m) * f4, false,
        "gemm_delta" + std::to_string(l));
    add(b * m, 2 * b * m * f4, false,
        l == 1 ? std::string("relu_bwd") : "relu_bwd" + std::to_string(l));
  }
  add(2 * nnz * h1, nnz * (4 + f4) + nnz * h1 * f4, true, "spmm_t_grad_w1");
  // Updates (sparse for the input layer: rows touched by the batch only).
  add(2 * nnz * h1, 2 * nnz * h1 * f4, true, "update_w1");
  for (std::size_t l = 1; l < layers; ++l) {
    const double m = out[l - 1], n = out[l];
    add(2 * m * n, 3 * m * n * f4, false,
        "update_w" + std::to_string(l + 1));
  }
  double bias_total = 0.0;
  for (double n : out) bias_total += n;
  add(bias_total, 2 * bias_total * f4, false, "update_bias");
  return kernels;
}

std::size_t Model::step_memory_bytes(std::size_t batch_size,
                                     double avg_nnz) const {
  const double c = static_cast<double>(info_.num_classes);
  const double h1 = static_cast<double>(info_.hidden.front());
  const double nnz = avg_nnz * static_cast<double>(batch_size);
  double sum_hidden = 0.0;
  for (std::size_t h : info_.hidden) sum_hidden += static_cast<double>(h);
  // Per hidden layer: pre + act + delta; output layer: probs + delta.
  const double activations =
      static_cast<double>(batch_size) * (3.0 * sum_hidden + 2.0 * c) *
      sizeof(float);
  const double csr = nnz * (sizeof(std::uint32_t) + sizeof(float));
  // Dense-layer gradients + sparse input-layer gradient rows.
  double dense_w = 0.0;
  double in = h1;
  for (std::size_t l = 1; l < info_.num_layers(); ++l) {
    const double n = l < info_.hidden.size()
                         ? static_cast<double>(info_.hidden[l])
                         : c;
    dense_w += in * n;
    in = n;
  }
  const double grads = (dense_w + nnz * h1) * sizeof(float);
  return static_cast<std::size_t>(activations + csr + grads);
}

}  // namespace hetero::nn
