#include "nn/train_step.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

#include "tensor/ops.h"

namespace hetero::nn {

void Workspace::swap_gradients(ModelWorkspace& other) {
  auto& o = dynamic_cast<Workspace&>(other);
  std::swap(grad_w1, o.grad_w1);
  std::swap(grad_w2, o.grad_w2);
  std::swap(grad_b1, o.grad_b1);
  std::swap(grad_b2, o.grad_b2);
}

void Workspace::ensure(const MlpConfig& cfg) {
  // grad_w1 is keyed per batch by compute_gradients; nothing to pre-size
  // here (and nothing O(num_features) to zero).
  if (grad_w2.rows() != cfg.hidden || grad_w2.cols() != cfg.num_classes) {
    grad_w2.resize(cfg.hidden, cfg.num_classes);
  }
  grad_b1.assign(cfg.hidden, 0.0f);
  grad_b2.assign(cfg.num_classes, 0.0f);
}

namespace {

/// Forward pass into ws.h_pre / ws.h / ws.probs; returns mean CE loss.
double forward_impl(const MlpModel& model, const sparse::CsrMatrix& x,
                    const sparse::CsrMatrix& y, Workspace& ws) {
  const auto& cfg = model.config();
  assert(x.cols() == cfg.num_features);
  assert(y.cols() == cfg.num_classes);
  assert(x.rows() == y.rows());

  sparse::spmm(x, model.w1(), ws.h_pre, ws.ctx);
  tensor::add_row_bias(ws.h_pre, {model.b1().data(), model.b1().size()});
  ws.h = ws.h_pre;
  tensor::relu(ws.h);

  tensor::gemm(ws.h, model.w2(), ws.probs, ws.ctx);
  tensor::add_row_bias(ws.probs, {model.b2().data(), model.b2().size()});
  tensor::softmax_rows(ws.probs, ws.ctx);

  // Multi-label cross-entropy with a uniform target over positive labels:
  //   L = -(1/|P|) sum_{c in P} log p_c, averaged over the batch.
  double loss = 0.0;
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const auto labels = y.row_cols(r);
    if (labels.empty()) continue;
    const float* p = ws.probs.data() + r * cfg.num_classes;
    double row_loss = 0.0;
    for (auto c : labels) {
      row_loss -= std::log(std::max(1e-12f, p[c]));
    }
    loss += row_loss / static_cast<double>(labels.size());
  }
  return loss / static_cast<double>(std::max<std::size_t>(1, x.rows()));
}

}  // namespace

double forward_loss(const MlpModel& model, const sparse::CsrMatrix& x,
                    const sparse::CsrMatrix& y, Workspace& ws) {
  return forward_impl(model, x, y, ws);
}

StepStats compute_gradients(const MlpModel& model, const sparse::CsrMatrix& x,
                            const sparse::CsrMatrix& y, Workspace& ws) {
  const auto& cfg = model.config();
  ws.ensure(cfg);

  StepStats stats;
  stats.batch_size = x.rows();
  stats.batch_nnz = x.nnz();
  stats.loss = forward_impl(model, x, y, ws);

  const auto batch = static_cast<float>(x.rows());
  const float inv_batch = 1.0f / batch;

  // Output delta: (probs - target) / batch, target uniform over positives.
  ws.delta2 = ws.probs;
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const auto labels = y.row_cols(r);
    if (labels.empty()) continue;
    const float share = 1.0f / static_cast<float>(labels.size());
    float* d = ws.delta2.data() + r * cfg.num_classes;
    for (auto c : labels) d[c] -= share;
  }
  tensor::scale(ws.delta2.flat(), inv_batch);

  // Gradients of layer 2.
  tensor::gemm_at_b(ws.h, ws.delta2, ws.grad_w2, ws.ctx);
  tensor::column_sums(ws.delta2, {ws.grad_b2.data(), ws.grad_b2.size()});

  // Hidden delta: delta1 = delta2 * W2^T, masked by ReLU.
  tensor::gemm_a_bt(ws.delta2, model.w2(), ws.delta1, ws.ctx);
  tensor::relu_backward(ws.h_pre, ws.delta1);

  // Gradients of layer 1: touched-row sparse gradient. Keying records the
  // batch's distinct feature columns once (apply_gradients reuses the key);
  // only the packed touched x H block is zeroed and scattered into — the
  // full F x H buffer is never materialized.
  ws.grad_w1.reset(x, cfg.hidden);
  ws.grad_w1.accumulate_spmm_t(x, ws.delta1, ws.ctx);
  tensor::column_sums(ws.delta1, {ws.grad_b1.data(), ws.grad_b1.size()});
  return stats;
}

void apply_gradients(MlpModel& model, const Workspace& ws, float lr,
                     float weight_decay) {
  // Decoupled L2 decay factor; 1.0 when decay is off.
  const float keep = 1.0f - lr * weight_decay;
  // W1 is updated sparsely over the touched-row key computed with the
  // gradient: only the feature rows present in that batch carry gradient
  // (and, for consistency, decay).
  ws.grad_w1.apply_to(model.w1(), lr, keep, ws.ctx);
  if (weight_decay != 0.0f) {
    tensor::scale({model.b1().data(), model.b1().size()}, keep);
    tensor::scale(model.w2().flat(), keep);
    tensor::scale({model.b2().data(), model.b2().size()}, keep);
  }
  tensor::axpy(-lr, {ws.grad_b1.data(), ws.grad_b1.size()},
               {model.b1().data(), model.b1().size()});
  tensor::axpy(-lr, ws.grad_w2.flat(), model.w2().flat());
  tensor::axpy(-lr, {ws.grad_b2.data(), ws.grad_b2.size()},
               {model.b2().data(), model.b2().size()});
}

StepStats sgd_step(MlpModel& model, const sparse::CsrMatrix& x,
                   const sparse::CsrMatrix& y, float lr, Workspace& ws,
                   float weight_decay) {
  const StepStats stats = compute_gradients(model, x, y, ws);
  apply_gradients(model, ws, lr, weight_decay);
  return stats;
}

std::vector<sim::KernelDesc> step_kernels(const MlpConfig& cfg,
                                          const sparse::CsrMatrix& x) {
  const double b = static_cast<double>(x.rows());
  const double h = static_cast<double>(cfg.hidden);
  const double c = static_cast<double>(cfg.num_classes);
  const double nnz = static_cast<double>(x.nnz());
  const double f4 = sizeof(float);

  std::vector<sim::KernelDesc> kernels;
  const auto add = [&](double flops, double bytes, bool sparse,
                       const char* name) {
    kernels.push_back({flops, bytes, sparse, name});
  };

  // Forward.
  add(2 * nnz * h, nnz * (4 + f4) + nnz * h * f4 + b * h * f4, true,
      "spmm_fwd1");
  add(b * h, 2 * b * h * f4, false, "bias_relu1");
  add(2 * b * h * c, (b * h + h * c + b * c) * f4, false, "gemm_fwd2");
  add(b * c * 4, 2 * b * c * f4, false, "bias_softmax");
  // Backward.
  add(b * c, 2 * b * c * f4, false, "delta2");
  add(2 * b * h * c, (b * h + b * c + h * c) * f4, false, "gemm_grad_w2");
  add(2 * b * h * c, (b * c + h * c + b * h) * f4, false, "gemm_delta1");
  add(b * h, 2 * b * h * f4, false, "relu_bwd");
  add(2 * nnz * h, nnz * (4 + f4) + nnz * h * f4, true, "spmm_t_grad_w1");
  // Updates (sparse for W1: rows touched by the batch only).
  add(2 * nnz * h, 2 * nnz * h * f4, true, "update_w1");
  add(2 * h * c, 3 * h * c * f4, false, "update_w2");
  add(h + c, 2 * (h + c) * f4, false, "update_bias");
  return kernels;
}

std::size_t step_memory_bytes(const MlpConfig& cfg, std::size_t batch_size,
                              double avg_nnz) {
  const std::size_t h = cfg.hidden;
  const std::size_t c = cfg.num_classes;
  const double nnz = avg_nnz * static_cast<double>(batch_size);
  // Activations + deltas (h_pre, h, probs, delta1, delta2) and batch CSR.
  const double activations =
      static_cast<double>(batch_size) * (2.0 * static_cast<double>(h) +
                                         2.0 * static_cast<double>(c) +
                                         static_cast<double>(h)) *
      sizeof(float);
  const double csr = nnz * (sizeof(std::uint32_t) + sizeof(float));
  // Dense layer-2 gradient + sparse layer-1 gradient rows.
  const double grads =
      (static_cast<double>(h) * c + nnz * static_cast<double>(h)) *
      sizeof(float);
  return static_cast<std::size_t>(activations + csr + grads);
}

}  // namespace hetero::nn
