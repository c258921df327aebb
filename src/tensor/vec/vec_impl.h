// Generic kernel bodies for the vec backend, templated over the Vec wrapper
// types (vec_scalar.h / vec256.h / vec512.h) and instantiated once per ISA
// translation unit via make_table<>.
//
// Every body evaluates the exact per-element expression of the scalar code
// it replaces (see the call sites in tensor/ops.cpp, sparse/ops.cpp,
// core/merging.cpp) — no fused multiply-adds, no reassociation. The
// reductions follow the fixed 8-virtual-lane contract documented in vec.h:
// element p lands in lane p mod 8 on every ISA, the main loop consumes 8
// elements per iteration, the tail element at offset t past the last full
// virtual row therefore lands in lane t, and the lanes are combined with
// one fixed tree.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "tensor/vec/vec.h"

namespace hetero::vec::impl {

// ---------------------------------------------------------------------------
// Element-wise float kernels over VF. Lane width only changes how many
// elements one iteration touches, never the per-element expression.
// ---------------------------------------------------------------------------

// y[i] += a * x[i]
template <class VF>
void axpy(float a, const float* x, float* y, std::size_t n) {
  constexpr std::size_t W = VF::kWidth;
  const VF av = VF::broadcast(a);
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    (VF::load(y + i) + av * VF::load(x + i)).store(y + i);
  }
  if (const std::size_t r = n - i) {
    (VF::load_n(y + i, r) + av * VF::load_n(x + i, r)).store_n(y + i, r);
  }
}

// y[i] = a * x[i] + b * y[i]
template <class VF>
void axpby(float a, const float* x, float b, float* y, std::size_t n) {
  constexpr std::size_t W = VF::kWidth;
  const VF av = VF::broadcast(a);
  const VF bv = VF::broadcast(b);
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    (av * VF::load(x + i) + bv * VF::load(y + i)).store(y + i);
  }
  if (const std::size_t r = n - i) {
    (av * VF::load_n(x + i, r) + bv * VF::load_n(y + i, r)).store_n(y + i, r);
  }
}

// x[i] *= a
template <class VF>
void scale(float* x, float a, std::size_t n) {
  constexpr std::size_t W = VF::kWidth;
  const VF av = VF::broadcast(a);
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    (VF::load(x + i) * av).store(x + i);
  }
  if (const std::size_t r = n - i) {
    (VF::load_n(x + i, r) * av).store_n(x + i, r);
  }
}

// y[i] += x[i]
template <class VF>
void add(const float* x, float* y, std::size_t n) {
  constexpr std::size_t W = VF::kWidth;
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    (VF::load(y + i) + VF::load(x + i)).store(y + i);
  }
  if (const std::size_t r = n - i) {
    (VF::load_n(y + i, r) + VF::load_n(x + i, r)).store_n(y + i, r);
  }
}

// x[i] = max(x[i], 0) with std::max's NaN/-0 semantics
template <class VF>
void relu(float* x, std::size_t n) {
  constexpr std::size_t W = VF::kWidth;
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    VF::relu(VF::load(x + i)).store(x + i);
  }
  if (const std::size_t r = n - i) {
    VF::relu(VF::load_n(x + i, r)).store_n(x + i, r);
  }
}

// g[i] = (a[i] <= 0) ? 0 : g[i]
template <class VF>
void relu_backward(const float* a, float* g, std::size_t n) {
  constexpr std::size_t W = VF::kWidth;
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    VF::zero_where_nonpositive(VF::load(a + i), VF::load(g + i))
        .store(g + i);
  }
  if (const std::size_t r = n - i) {
    VF::zero_where_nonpositive(VF::load_n(a + i, r), VF::load_n(g + i, r))
        .store_n(g + i, r);
  }
}

// w = global[i]; global[i] = merged[i] + gamma * (w - prev[i]); prev[i] = w
template <class VF>
void momentum_update(const float* merged, float* global, float* prev,
                     float gamma, std::size_t n) {
  constexpr std::size_t W = VF::kWidth;
  const VF gv = VF::broadcast(gamma);
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    const VF w = VF::load(global + i);
    (VF::load(merged + i) + gv * (w - VF::load(prev + i))).store(global + i);
    w.store(prev + i);
  }
  if (const std::size_t r = n - i) {
    const VF w = VF::load_n(global + i, r);
    (VF::load_n(merged + i, r) + gv * (w - VF::load_n(prev + i, r)))
        .store_n(global + i, r);
    w.store_n(prev + i, r);
  }
}

// ---------------------------------------------------------------------------
// Fixed 8-virtual-lane reductions. RF/VD must satisfy kWidth <= 8 and
// 8 % kWidth == 0 so the 8-lane accumulator splits evenly across registers:
// scalar keeps 8 one-lane accumulators, AVX2 one 8-float ymm (or two
// 4-double ymm), AVX-512 reuses the AVX2 float shape and one 8-double zmm.
// ---------------------------------------------------------------------------

inline float reduce_tree8(const float* l) {
  const float t0 = l[0] + l[4];
  const float t1 = l[1] + l[5];
  const float t2 = l[2] + l[6];
  const float t3 = l[3] + l[7];
  const float u0 = t0 + t2;
  const float u1 = t1 + t3;
  return u0 + u1;
}

inline double reduce_tree8d(const double* l) {
  const double t0 = l[0] + l[4];
  const double t1 = l[1] + l[5];
  const double t2 = l[2] + l[6];
  const double t3 = l[3] + l[7];
  const double u0 = t0 + t2;
  const double u1 = t1 + t3;
  return u0 + u1;
}

// sum_p a[p] * b[p] in float (gemm_a_bt inner product).
template <class RF>
float dot_f32(const float* a, const float* b, std::size_t n) {
  constexpr std::size_t W = RF::kWidth;
  static_assert(W <= 8 && 8 % W == 0, "reduction lanes must tile 8");
  constexpr std::size_t kAcc = 8 / W;
  RF acc[kAcc];
  for (auto& v : acc) v = RF::zero();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (std::size_t k = 0; k < kAcc; ++k) {
      acc[k] = acc[k] + RF::load(a + i + k * W) * RF::load(b + i + k * W);
    }
  }
  alignas(32) float lanes[8];
  for (std::size_t k = 0; k < kAcc; ++k) acc[k].store(lanes + k * W);
  // The main loop consumed a multiple of 8, so tail element t belongs to
  // lane t — same accumulation expression, scalar this time.
  for (std::size_t l = 0; i < n; ++i, ++l) {
    lanes[l] = lanes[l] + a[i] * b[i];
  }
  return reduce_tree8(lanes);
}

// sum_p double(a[p]) * b[p] (tensor::dot).
template <class VD>
double dot_f64(const float* a, const float* b, std::size_t n) {
  constexpr std::size_t W = VD::kWidth;
  static_assert(W <= 8 && 8 % W == 0, "reduction lanes must tile 8");
  constexpr std::size_t kAcc = 8 / W;
  VD acc[kAcc];
  for (auto& v : acc) v = VD::zero();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (std::size_t k = 0; k < kAcc; ++k) {
      acc[k] = acc[k] +
               VD::from_float(a + i + k * W) * VD::from_float(b + i + k * W);
    }
  }
  alignas(64) double lanes[8];
  for (std::size_t k = 0; k < kAcc; ++k) acc[k].store(lanes + k * W);
  for (std::size_t l = 0; i < n; ++i, ++l) {
    lanes[l] = lanes[l] + static_cast<double>(a[i]) * b[i];
  }
  return reduce_tree8d(lanes);
}

// sum_p double(x[p]) * x[p] (tensor::sum_of_squares).
template <class VD>
double sum_squares(const float* x, std::size_t n) {
  constexpr std::size_t W = VD::kWidth;
  static_assert(W <= 8 && 8 % W == 0, "reduction lanes must tile 8");
  constexpr std::size_t kAcc = 8 / W;
  VD acc[kAcc];
  for (auto& v : acc) v = VD::zero();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (std::size_t k = 0; k < kAcc; ++k) {
      const VD v = VD::from_float(x + i + k * W);
      acc[k] = acc[k] + v * v;
    }
  }
  alignas(64) double lanes[8];
  for (std::size_t k = 0; k < kAcc; ++k) acc[k].store(lanes + k * W);
  for (std::size_t l = 0; i < n; ++i, ++l) {
    lanes[l] = lanes[l] + static_cast<double>(x[i]) * x[i];
  }
  return reduce_tree8d(lanes);
}

// sum_p (double(a[p]) - b[p])^2 (core::certify_l2_below's distance).
template <class VD>
double squared_distance(const float* a, const float* b, std::size_t n) {
  constexpr std::size_t W = VD::kWidth;
  static_assert(W <= 8 && 8 % W == 0, "reduction lanes must tile 8");
  constexpr std::size_t kAcc = 8 / W;
  VD acc[kAcc];
  for (auto& v : acc) v = VD::zero();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (std::size_t k = 0; k < kAcc; ++k) {
      const VD d =
          VD::from_float(a + i + k * W) - VD::from_float(b + i + k * W);
      acc[k] = acc[k] + d * d;
    }
  }
  alignas(64) double lanes[8];
  for (std::size_t k = 0; k < kAcc; ++k) acc[k].store(lanes + k * W);
  for (std::size_t l = 0; i < n; ++i, ++l) {
    const double d = static_cast<double>(a[i]) - b[i];
    lanes[l] = lanes[l] + d * d;
  }
  return reduce_tree8d(lanes);
}

// ---------------------------------------------------------------------------
// Fused-merge building blocks over a double accumulator block. Element-wise
// in double, scalar tails (the accumulator blocks are at most 512 elements,
// so the tail is cold). The finalize kernels narrow through VD::NarrowF —
// a float type of the same lane count.
// ---------------------------------------------------------------------------

// acc[i] = w * x[i]
template <class VD>
void merge_init(double* acc, const float* x, double w, std::size_t n) {
  constexpr std::size_t W = VD::kWidth;
  const VD wv = VD::broadcast(w);
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    (wv * VD::from_float(x + i)).store(acc + i);
  }
  for (; i < n; ++i) acc[i] = w * x[i];
}

// acc[i] += w * x[i]
template <class VD>
void merge_accum(double* acc, const float* x, double w, std::size_t n) {
  constexpr std::size_t W = VD::kWidth;
  const VD wv = VD::broadcast(w);
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    (VD::load(acc + i) + wv * VD::from_float(x + i)).store(acc + i);
  }
  for (; i < n; ++i) acc[i] = acc[i] + w * x[i];
}

// w = g[i]; g[i] = float(acc[i]) + gamma * (w - p[i]); p[i] = w
template <class VD>
void merge_finalize_momentum(const double* acc, float* g, float* p,
                             float gamma, std::size_t n) {
  using NF = typename VD::NarrowF;
  constexpr std::size_t W = VD::kWidth;
  static_assert(NF::kWidth == W, "NarrowF must match the double lane count");
  const NF gv = NF::broadcast(gamma);
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    const NF af = VD::load(acc + i).to_float();
    const NF w = NF::load(g + i);
    (af + gv * (w - NF::load(p + i))).store(g + i);
    w.store(p + i);
  }
  for (; i < n; ++i) {
    const float w = g[i];
    g[i] = static_cast<float>(acc[i]) + gamma * (w - p[i]);
    p[i] = w;
  }
}

// p[i] = g[i]; g[i] = float(acc[i])
template <class VD>
void merge_finalize_plain(const double* acc, float* g, float* p,
                          std::size_t n) {
  using NF = typename VD::NarrowF;
  constexpr std::size_t W = VD::kWidth;
  static_assert(NF::kWidth == W, "NarrowF must match the double lane count");
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    NF::load(g + i).store(p + i);
    VD::load(acc + i).to_float().store(g + i);
  }
  for (; i < n; ++i) {
    p[i] = g[i];
    g[i] = static_cast<float>(acc[i]);
  }
}

// ---------------------------------------------------------------------------
// Quantization kernels (DESIGN.md §10). Element-wise over VF with the same
// width-agnostic discipline as above; the dequantized value is always the
// single-rounded float `code * scale`, and the merge accumulators widen that
// float to double exactly — so every ISA sees the same per-element bits.
// ---------------------------------------------------------------------------

// r[i] = (w[i] - g[i]) + r[i]  (error-feedback delta: replica minus global
// plus the carried residual, in exactly this association)
template <class VF>
void ef_delta(const float* w, const float* g, float* r, std::size_t n) {
  constexpr std::size_t W = VF::kWidth;
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    ((VF::load(w + i) - VF::load(g + i)) + VF::load(r + i)).store(r + i);
  }
  if (const std::size_t r_n = n - i) {
    ((VF::load_n(w + i, r_n) - VF::load_n(g + i, r_n)) +
     VF::load_n(r + i, r_n))
        .store_n(r + i, r_n);
  }
}

// max over |x[i]|; 0 when n == 0. Fixed 8-virtual-lane accumulator like the
// sum reductions, combined with the same fixed tree — but using the maxps
// expression (m > a) ? m : a at every site, so all ISAs agree bit for bit.
template <class RF>
float absmax(const float* x, std::size_t n) {
  constexpr std::size_t W = RF::kWidth;
  static_assert(W <= 8 && 8 % W == 0, "reduction lanes must tile 8");
  constexpr std::size_t kAcc = 8 / W;
  RF acc[kAcc];
  for (auto& v : acc) v = RF::zero();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (std::size_t k = 0; k < kAcc; ++k) {
      acc[k] = RF::max(acc[k], RF::abs(RF::load(x + i + k * W)));
    }
  }
  alignas(32) float lanes[8];
  for (std::size_t k = 0; k < kAcc; ++k) acc[k].store(lanes + k * W);
  for (std::size_t l = 0; i < n; ++i, ++l) {
    const float a = std::fabs(x[i]);
    lanes[l] = lanes[l] > a ? lanes[l] : a;
  }
  const float t0 = lanes[0] > lanes[4] ? lanes[0] : lanes[4];
  const float t1 = lanes[1] > lanes[5] ? lanes[1] : lanes[5];
  const float t2 = lanes[2] > lanes[6] ? lanes[2] : lanes[6];
  const float t3 = lanes[3] > lanes[7] ? lanes[3] : lanes[7];
  const float u0 = t0 > t2 ? t0 : t2;
  const float u1 = t1 > t3 ? t1 : t3;
  return u0 > u1 ? u0 : u1;
}

// q[i] = half(x[i] * scale), round-to-nearest-even; returns the number of
// elements with |x[i] * scale| > 65504 (the fp16 overflow count driving the
// dynamic loss-scale guard). Dead tail lanes are zero-filled and can never
// exceed the limit.
template <class VF>
std::size_t quant_fp16(const float* x, std::uint16_t* q, float scale,
                       std::size_t n) {
  constexpr std::size_t W = VF::kWidth;
  const VF sv = VF::broadcast(scale);
  const VF lim = VF::broadcast(65504.0f);
  std::size_t over = 0;
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    const VF v = VF::load(x + i) * sv;
    over += VF::count_abs_gt(v, lim);
    v.store_half(q + i);
  }
  if (const std::size_t r = n - i) {
    const VF v = VF::load_n(x + i, r) * sv;
    over += VF::count_abs_gt(v, lim);
    v.store_half_n(q + i, r);
  }
  return over;
}

// x[i] = float(q[i]) * inv_scale  (the canonical dequantized value: one
// float multiply, single rounding)
template <class VF>
void dequant_fp16(const std::uint16_t* q, float* x, float inv_scale,
                  std::size_t n) {
  constexpr std::size_t W = VF::kWidth;
  const VF sv = VF::broadcast(inv_scale);
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    (VF::load_half(q + i) * sv).store(x + i);
  }
  if (const std::size_t r = n - i) {
    (VF::load_half_n(q + i, r) * sv).store_n(x + i, r);
  }
}

// r[i] = r[i] - float(q[i]) * inv_scale  (subtract what the receivers will
// reconstruct; the leftovers carry to the next merge)
template <class VF>
void residual_fp16(const std::uint16_t* q, float inv_scale, float* r,
                   std::size_t n) {
  constexpr std::size_t W = VF::kWidth;
  const VF sv = VF::broadcast(inv_scale);
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    (VF::load(r + i) - VF::load_half(q + i) * sv).store(r + i);
  }
  if (const std::size_t r_n = n - i) {
    (VF::load_n(r + i, r_n) - VF::load_half_n(q + i, r_n) * sv)
        .store_n(r + i, r_n);
  }
}

// acc[i] += w * double(float(q[i]) * inv_scale)  (fused dequantize +
// weighted accumulate into the merge's double block)
template <class VF, class VD>
void merge_accum_fp16(double* acc, const std::uint16_t* q, double w,
                      float inv_scale, std::size_t n) {
  constexpr std::size_t WF = VF::kWidth;
  constexpr std::size_t WD = VD::kWidth;
  static_assert(WF % WD == 0, "float width must tile the double width");
  const VF sv = VF::broadcast(inv_scale);
  const VD wv = VD::broadcast(w);
  alignas(64) float tmp[WF];
  std::size_t i = 0;
  for (; i + WF <= n; i += WF) {
    (VF::load_half(q + i) * sv).store(tmp);
    for (std::size_t k = 0; k < WF / WD; ++k) {
      (VD::load(acc + i + k * WD) + wv * VD::from_float(tmp + k * WD))
          .store(acc + i + k * WD);
    }
  }
  if (const std::size_t r = n - i) {
    (VF::load_half_n(q + i, r) * sv).store(tmp);
    for (std::size_t k = 0; k < r; ++k) {
      acc[i + k] = acc[i + k] + w * static_cast<double>(tmp[k]);
    }
  }
}

// q[i] = rne(clamp(x[i] * scale, -127, 127)). The clamp is written as
// minps-then-maxps so a NaN product deterministically lands on +127 on
// every ISA, and the float->int conversion is round-to-nearest-even
// (cvtps2dq under the default MXCSR mode / std::nearbyintf).
template <class VF>
void quant_i8(const float* x, std::int8_t* q, float scale, std::size_t n) {
  constexpr std::size_t W = VF::kWidth;
  const VF sv = VF::broadcast(scale);
  const VF hi = VF::broadcast(127.0f);
  const VF lo = VF::broadcast(-127.0f);
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    VF::max(VF::min(VF::load(x + i) * sv, hi), lo).store_i8_rne(q + i);
  }
  if (const std::size_t r = n - i) {
    VF::max(VF::min(VF::load_n(x + i, r) * sv, hi), lo)
        .store_i8_rne_n(q + i, r);
  }
}

// x[i] = float(q[i]) * scale
template <class VF>
void dequant_i8(const std::int8_t* q, float* x, float scale, std::size_t n) {
  constexpr std::size_t W = VF::kWidth;
  const VF sv = VF::broadcast(scale);
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    (VF::load_i8(q + i) * sv).store(x + i);
  }
  if (const std::size_t r = n - i) {
    (VF::load_i8_n(q + i, r) * sv).store_n(x + i, r);
  }
}

// r[i] = r[i] - float(q[i]) * scale
template <class VF>
void residual_i8(const std::int8_t* q, float scale, float* r,
                 std::size_t n) {
  constexpr std::size_t W = VF::kWidth;
  const VF sv = VF::broadcast(scale);
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    (VF::load(r + i) - VF::load_i8(q + i) * sv).store(r + i);
  }
  if (const std::size_t r_n = n - i) {
    (VF::load_n(r + i, r_n) - VF::load_i8_n(q + i, r_n) * sv)
        .store_n(r + i, r_n);
  }
}

// acc[i] += w * double(float(q[i]) * scale)
template <class VF, class VD>
void merge_accum_i8(double* acc, const std::int8_t* q, double w, float scale,
                    std::size_t n) {
  constexpr std::size_t WF = VF::kWidth;
  constexpr std::size_t WD = VD::kWidth;
  static_assert(WF % WD == 0, "float width must tile the double width");
  const VF sv = VF::broadcast(scale);
  const VD wv = VD::broadcast(w);
  alignas(64) float tmp[WF];
  std::size_t i = 0;
  for (; i + WF <= n; i += WF) {
    (VF::load_i8(q + i) * sv).store(tmp);
    for (std::size_t k = 0; k < WF / WD; ++k) {
      (VD::load(acc + i + k * WD) + wv * VD::from_float(tmp + k * WD))
          .store(acc + i + k * WD);
    }
  }
  if (const std::size_t r = n - i) {
    (VF::load_i8_n(q + i, r) * sv).store(tmp);
    for (std::size_t k = 0; k < r; ++k) {
      acc[i + k] = acc[i + k] + w * static_cast<double>(tmp[k]);
    }
  }
}

// ---------------------------------------------------------------------------
// Optimizer update kernels (DESIGN.md §11). Element-wise over VF; the only
// non-arithmetic primitives are sqrt and division, both IEEE correctly
// rounded on every ISA (sqrtss/sqrtps, divss/divps), so the per-element
// bits match across tables just like the mul/add kernels above.
// ---------------------------------------------------------------------------

// Fused Adam/AdamW step (see vec.h for the exact per-element expression).
template <class VF>
void adam_update(float* w, const float* g, float* m, float* v,
                 const AdamParams& p, std::size_t n) {
  constexpr std::size_t W = VF::kWidth;
  const VF lr = VF::broadcast(p.lr);
  const VF b1 = VF::broadcast(p.beta1);
  const VF c1 = VF::broadcast(1.0f - p.beta1);
  const VF b2 = VF::broadcast(p.beta2);
  const VF c2 = VF::broadcast(1.0f - p.beta2);
  const VF eps = VF::broadcast(p.eps);
  const VF bc1 = VF::broadcast(p.bias1);
  const VF bc2 = VF::broadcast(p.bias2);
  const VF wd = VF::broadcast(p.weight_decay);
  const VF keep = VF::broadcast(p.keep);
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    const VF wv = VF::load(w + i);
    const VF gv = VF::load(g + i) + wd * wv;
    const VF mv = b1 * VF::load(m + i) + c1 * gv;
    const VF vv = b2 * VF::load(v + i) + c2 * (gv * gv);
    mv.store(m + i);
    vv.store(v + i);
    (keep * wv - lr * ((mv * bc1) / (VF::sqrt(vv * bc2) + eps)))
        .store(w + i);
  }
  if (const std::size_t r = n - i) {
    const VF wv = VF::load_n(w + i, r);
    const VF gv = VF::load_n(g + i, r) + wd * wv;
    const VF mv = b1 * VF::load_n(m + i, r) + c1 * gv;
    const VF vv = b2 * VF::load_n(v + i, r) + c2 * (gv * gv);
    mv.store_n(m + i, r);
    vv.store_n(v + i, r);
    (keep * wv - lr * ((mv * bc1) / (VF::sqrt(vv * bc2) + eps)))
        .store_n(w + i, r);
  }
}

// Adagrad step (see vec.h for the exact per-element expression).
template <class VF>
void adagrad_update(float* w, const float* g, float* a,
                    const AdagradParams& p, std::size_t n) {
  constexpr std::size_t W = VF::kWidth;
  const VF lr = VF::broadcast(p.lr);
  const VF eps = VF::broadcast(p.eps);
  const VF wd = VF::broadcast(p.weight_decay);
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    const VF wv = VF::load(w + i);
    const VF gv = VF::load(g + i) + wd * wv;
    const VF av = VF::load(a + i) + gv * gv;
    av.store(a + i);
    (wv - lr * (gv / (VF::sqrt(av) + eps))).store(w + i);
  }
  if (const std::size_t r = n - i) {
    const VF wv = VF::load_n(w + i, r);
    const VF gv = VF::load_n(g + i, r) + wd * wv;
    const VF av = VF::load_n(a + i, r) + gv * gv;
    av.store_n(a + i, r);
    (wv - lr * (gv / (VF::sqrt(av) + eps))).store_n(w + i, r);
  }
}

// ---------------------------------------------------------------------------
// Table assembly. VF: element-wise float type. VD: double type (also used
// for the double reductions). RF: float reduction type — the avx512 table
// passes the 8-lane AVX2 type here to honor the 8-virtual-lane contract.
// ---------------------------------------------------------------------------

template <class VF, class VD, class RF>
VecKernels make_table(Isa isa) {
  VecKernels t{};
  t.isa = isa;
  t.axpy = &axpy<VF>;
  t.axpby = &axpby<VF>;
  t.scale = &scale<VF>;
  t.add = &add<VF>;
  t.relu = &relu<VF>;
  t.relu_backward = &relu_backward<VF>;
  t.momentum_update = &momentum_update<VF>;
  t.dot_f32 = &dot_f32<RF>;
  t.dot_f64 = &dot_f64<VD>;
  t.sum_squares = &sum_squares<VD>;
  t.squared_distance = &squared_distance<VD>;
  t.merge_init = &merge_init<VD>;
  t.merge_accum = &merge_accum<VD>;
  t.merge_finalize_momentum = &merge_finalize_momentum<VD>;
  t.merge_finalize_plain = &merge_finalize_plain<VD>;
  t.ef_delta = &ef_delta<VF>;
  t.absmax = &absmax<RF>;
  t.quant_fp16 = &quant_fp16<VF>;
  t.dequant_fp16 = &dequant_fp16<VF>;
  t.residual_fp16 = &residual_fp16<VF>;
  t.merge_accum_fp16 = &merge_accum_fp16<VF, VD>;
  t.quant_i8 = &quant_i8<VF>;
  t.dequant_i8 = &dequant_i8<VF>;
  t.residual_i8 = &residual_i8<VF>;
  t.merge_accum_i8 = &merge_accum_i8<VF, VD>;
  t.adam_update = &adam_update<VF>;
  t.adagrad_update = &adagrad_update<VF>;
  return t;
}

}  // namespace hetero::vec::impl
