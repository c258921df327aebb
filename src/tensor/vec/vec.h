// SIMD-vectorized kernel backend with runtime ISA dispatch.
//
// In the style of ATen's cpu/vec headers: fixed-width Vec wrappers over
// scalar / AVX2+FMA / AVX-512 (vec_scalar.h, vec256.h, vec512.h), generic
// kernel bodies (vec_impl.h) instantiated once per ISA in separate
// translation units compiled with the matching -m flags, and a function
// table selected once at startup. The binary always runs on baseline
// x86-64: nothing outside the per-ISA TUs is compiled with AVX flags, and
// the dispatcher only installs a table the host CPU supports.
//
// Determinism contract (pinned by tests/test_vec.cpp): every kernel in the
// table produces bit-identical output on every ISA.
//  * Element-wise kernels (axpy, axpby, scale, relu, merge accumulation,
//    ...) evaluate the exact same unfused expression per element; lane
//    width only changes how many elements are processed per instruction,
//    never the per-element operation order. The per-ISA TUs are compiled
//    with -ffp-contract=off so the compiler cannot fuse the mul+add pairs
//    into FMAs (which round once instead of twice) behind our back.
//  * Reductions (dot_f32, dot_f64, sum_squares, squared_distance)
//    accumulate into a fixed 8-lane virtual accumulator — element p always
//    lands in lane p mod 8, on every ISA — and the lanes are combined with
//    one fixed reduction tree: t_i = l_i + l_{i+4}, u_0 = t_0 + t_2,
//    u_1 = t_1 + t_3, total = u_0 + u_1. The scalar table keeps 8 named
//    accumulators; AVX2 uses one 8-float ymm (or two 4-double ymm);
//    AVX-512 deliberately sticks to the same 8-lane shape (256-bit
//    accumulators for float, one 8-double zmm) so the sums match AVX2 and
//    scalar bit for bit.
//
// ISA selection order: HETERO_ISA environment variable (scalar|avx2|avx512)
// if set, else the best ISA both compiled in and reported by cpuid.
// `--isa` on the CLI binaries calls set_isa() before any kernel runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

namespace hetero::vec {

enum class Isa { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// Display / flag name: "scalar", "avx2", "avx512".
const char* isa_name(Isa isa);

/// Parses a flag/env value; nullopt on anything but the three names.
std::optional<Isa> parse_isa(const std::string& text);

/// True when `isa` is both compiled into this binary and supported by the
/// host CPU (cpuid). kScalar is always supported.
bool isa_supported(Isa isa);

/// Best supported ISA on this host (avx512 > avx2 > scalar).
Isa best_supported_isa();

/// Per-element constants of one fused Adam/AdamW update call (see the
/// adam_update table entry for the exact expression). bias1/bias2 are the
/// 1/(1 - beta^t) corrections for the step the touched row is on — the lazy
/// sparse path passes a different t per row, the dense path one t per call.
struct AdamParams {
  float lr = 0.0f;
  float beta1 = 0.9f;
  float beta2 = 0.999f;
  float eps = 1e-8f;
  float bias1 = 1.0f;         // 1 / (1 - beta1^t)
  float bias2 = 1.0f;         // 1 / (1 - beta2^t)
  float weight_decay = 0.0f;  // coupled L2 folded into the gradient (Adam)
  float keep = 1.0f;          // decoupled multiplicative decay (AdamW)
};

/// Per-element constants of one Adagrad update call.
struct AdagradParams {
  float lr = 0.0f;
  float eps = 1e-10f;
  float weight_decay = 0.0f;  // coupled L2 folded into the gradient
};

/// The per-ISA kernel table. Every pointer is non-null in every table.
/// Sizes are element counts; all pointers may alias only as documented at
/// the call sites (no kernel reads an output span it has already written
/// within one call).
struct VecKernels {
  Isa isa;

  // y[i] += a * x[i]
  void (*axpy)(float a, const float* x, float* y, std::size_t n);
  // y[i] = a * x[i] + b * y[i]
  void (*axpby)(float a, const float* x, float b, float* y, std::size_t n);
  // x[i] *= a
  void (*scale)(float* x, float a, std::size_t n);
  // y[i] += x[i]
  void (*add)(const float* x, float* y, std::size_t n);
  // x[i] = max(x[i], 0) with the scalar std::max(v, 0.0f) NaN/-0 semantics
  void (*relu)(float* x, std::size_t n);
  // g[i] = (a[i] <= 0) ? 0 : g[i]   (NaN activations keep their gradient)
  void (*relu_backward)(const float* a, float* g, std::size_t n);
  // global[i] = merged[i] + gamma * (global[i] - prev[i]); prev[i] = old
  // global[i]  (the Algorithm-2 momentum step of momentum_global_update)
  void (*momentum_update)(const float* merged, float* global, float* prev,
                          float gamma, std::size_t n);

  // Fixed 8-virtual-lane reductions (see the determinism contract above).
  float (*dot_f32)(const float* a, const float* b, std::size_t n);
  double (*dot_f64)(const float* a, const float* b, std::size_t n);
  double (*sum_squares)(const float* x, std::size_t n);
  // sum_p (double(a[p]) - b[p])^2
  double (*squared_distance)(const float* a, const float* b, std::size_t n);

  // Fused-merge building blocks over a double accumulator block
  // (core/merging.cpp). Element-wise in double.
  // acc[i] = w * x[i]
  void (*merge_init)(double* acc, const float* x, double w, std::size_t n);
  // acc[i] += w * x[i]
  void (*merge_accum)(double* acc, const float* x, double w, std::size_t n);
  // w = g[i]; g[i] = float(acc[i]) + gamma * (w - p[i]); p[i] = w
  void (*merge_finalize_momentum)(const double* acc, float* g, float* p,
                                  float gamma, std::size_t n);
  // p[i] = g[i]; g[i] = float(acc[i])
  void (*merge_finalize_plain)(const double* acc, float* g, float* p,
                               std::size_t n);

  // Merge-payload quantization kernels (DESIGN.md §10). The dequantized
  // value is always the single-rounded float `code * scale`; the fused
  // merge accumulators widen that exact float to double, so all ISAs agree
  // bit for bit.
  // r[i] = (w[i] - g[i]) + r[i]  (error-feedback delta accumulation)
  void (*ef_delta)(const float* w, const float* g, float* r, std::size_t n);
  // max over |x[i]| (0 when n == 0); fixed 8-virtual-lane + fixed tree with
  // the maxps expression (m > a) ? m : a at every site
  float (*absmax)(const float* x, std::size_t n);
  // q[i] = half(x[i] * scale) RNE; returns count of |x[i] * scale| > 65504
  // (fp16 overflow — feeds the dynamic loss-scale guard)
  std::size_t (*quant_fp16)(const float* x, std::uint16_t* q, float scale,
                            std::size_t n);
  // x[i] = float(q[i]) * inv_scale
  void (*dequant_fp16)(const std::uint16_t* q, float* x, float inv_scale,
                       std::size_t n);
  // r[i] -= float(q[i]) * inv_scale
  void (*residual_fp16)(const std::uint16_t* q, float inv_scale, float* r,
                        std::size_t n);
  // acc[i] += w * double(float(q[i]) * inv_scale)
  void (*merge_accum_fp16)(double* acc, const std::uint16_t* q, double w,
                           float inv_scale, std::size_t n);
  // q[i] = rne(clamp(x[i] * scale, -127, 127)); NaN products land on +127
  void (*quant_i8)(const float* x, std::int8_t* q, float scale,
                   std::size_t n);
  // x[i] = float(q[i]) * scale
  void (*dequant_i8)(const std::int8_t* q, float* x, float scale,
                     std::size_t n);
  // r[i] -= float(q[i]) * scale
  void (*residual_i8)(const std::int8_t* q, float scale, float* r,
                      std::size_t n);
  // acc[i] += w * double(float(q[i]) * scale)
  void (*merge_accum_i8)(double* acc, const std::int8_t* q, double w,
                         float scale, std::size_t n);

  // Optimizer update kernels (nn/optimizer.*, DESIGN.md §11). Element-wise
  // with sqrtps/divps — both IEEE correctly rounded, so every ISA produces
  // the same bits. One fused kernel covers Adam (coupled L2 via
  // weight_decay, keep = 1) and AdamW (weight_decay = 0, decoupled
  // keep = 1 - lr*wd); bias corrections arrive precomputed per row step.
  //   g' = g[i] + weight_decay * w[i]
  //   m[i] = beta1 * m[i] + (1 - beta1) * g'
  //   v[i] = beta2 * v[i] + (1 - beta2) * (g' * g')
  //   w[i] = keep * w[i] - lr * ((m[i] * bias1) / (sqrt(v[i] * bias2) + eps))
  void (*adam_update)(float* w, const float* g, float* m, float* v,
                      const AdamParams& p, std::size_t n);
  //   g' = g[i] + weight_decay * w[i]
  //   a[i] = a[i] + g' * g'
  //   w[i] = w[i] - lr * (g' / (sqrt(a[i]) + eps))
  void (*adagrad_update)(float* w, const float* g, float* a,
                         const AdagradParams& p, std::size_t n);
};

/// The active table. First use resolves HETERO_ISA (throwing
/// hetero::ParseError on an unknown or unsupported value) and falls back to
/// best_supported_isa(). Cheap enough to call per kernel invocation; hot
/// loops should still hoist the reference out of their inner loops.
const VecKernels& kernels();

/// Table for a specific ISA, or nullptr when unsupported on this host.
/// Used by tests/benches to compare ISAs side by side without touching the
/// global dispatch state.
const VecKernels* kernels_for(Isa isa);

/// Currently active ISA.
Isa active_isa();

/// Forces the active ISA (the `--isa` flag). Throws hetero::ParseError when
/// the ISA is not compiled in or not supported by the host CPU.
void set_isa(Isa isa);

/// Parses and applies an ISA name; throws hetero::ParseError on an unknown
/// name or unsupported ISA. Empty string is a no-op (flag not given).
void set_isa_from_string(const std::string& name);

}  // namespace hetero::vec
