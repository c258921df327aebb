// Width-1 "vector" types: the scalar reference lanes of the vec backend.
//
// These exist so vec_impl.h can instantiate the exact same generic kernel
// bodies for the scalar table as for the SIMD tables — the per-element
// expressions are shared by construction, which is most of the bit-identity
// argument. The tail paths (load_n / store_n) are unreachable at width 1.
#pragma once

#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "tensor/vec/half.h"

namespace hetero::vec {

struct ScalarF {
  static constexpr std::size_t kWidth = 1;
  float v;

  static ScalarF load(const float* p) { return {*p}; }
  static ScalarF load_n(const float* p, [[maybe_unused]] std::size_t n) {
    assert(n == 1);
    return {*p};
  }
  void store(float* p) const { *p = v; }
  void store_n(float* p, [[maybe_unused]] std::size_t n) const {
    assert(n == 1);
    *p = v;
  }
  static ScalarF broadcast(float x) { return {x}; }
  static ScalarF zero() { return {0.0f}; }

  friend ScalarF operator+(ScalarF a, ScalarF b) { return {a.v + b.v}; }
  friend ScalarF operator-(ScalarF a, ScalarF b) { return {a.v - b.v}; }
  friend ScalarF operator*(ScalarF a, ScalarF b) { return {a.v * b.v}; }
  /// divss — IEEE correctly rounded, bit-identical to divps on every ISA.
  friend ScalarF operator/(ScalarF a, ScalarF b) { return {a.v / b.v}; }
  /// sqrtss — IEEE correctly rounded, bit-identical to sqrtps on every ISA.
  static ScalarF sqrt(ScalarF a) { return {std::sqrt(a.v)}; }

  /// max(v, 0) with std::max's exact tie/NaN behavior: (v < 0) ? 0 : v.
  static ScalarF relu(ScalarF a) { return {a.v < 0.0f ? 0.0f : a.v}; }
  /// (mask <= 0) ? 0 : g — keeps g when mask is NaN, like the scalar loop.
  static ScalarF zero_where_nonpositive(ScalarF mask, ScalarF g) {
    return {mask.v <= 0.0f ? 0.0f : g.v};
  }

  // --- Quantization ops (see DESIGN.md §10). Every comparison below is
  // written in the exact operand order of the matching AVX min/max/cmp
  // instruction, so NaN propagation is bit-identical across ISAs. ---

  /// |v| — clears the sign bit, like andps with 0x7FFFFFFF.
  static ScalarF abs(ScalarF a) { return {std::fabs(a.v)}; }
  /// maxps(a, b): (a > b) ? a : b — returns b when either operand is NaN.
  static ScalarF max(ScalarF a, ScalarF b) {
    return {a.v > b.v ? a.v : b.v};
  }
  /// minps(a, b): (a < b) ? a : b — returns b when either operand is NaN.
  static ScalarF min(ScalarF a, ScalarF b) {
    return {a.v < b.v ? a.v : b.v};
  }
  /// Number of lanes with |a| > limit (false for NaN, like CMP_GT_OQ).
  static std::size_t count_abs_gt(ScalarF a, ScalarF limit) {
    return std::fabs(a.v) > limit.v ? 1u : 0u;
  }

  /// kWidth half-precision values widened to float (exact).
  static ScalarF load_half(const std::uint16_t* p) {
    return {half_to_float(*p)};
  }
  static ScalarF load_half_n(const std::uint16_t* p,
                             [[maybe_unused]] std::size_t n) {
    assert(n == 1);
    return {half_to_float(*p)};
  }
  /// Narrows to half with round-to-nearest-even (matches vcvtps2ph).
  void store_half(std::uint16_t* p) const { *p = float_to_half(v); }
  void store_half_n(std::uint16_t* p, [[maybe_unused]] std::size_t n) const {
    assert(n == 1);
    *p = float_to_half(v);
  }

  /// kWidth int8 values widened to float (exact).
  static ScalarF load_i8(const std::int8_t* p) {
    return {static_cast<float>(*p)};
  }
  static ScalarF load_i8_n(const std::int8_t* p,
                           [[maybe_unused]] std::size_t n) {
    assert(n == 1);
    return {static_cast<float>(*p)};
  }
  /// Round-to-nearest-even int8 store (matches cvtps2dq under the default
  /// MXCSR rounding mode). The caller clamps to [-127, 127] first.
  void store_i8_rne(std::int8_t* p) const {
    *p = static_cast<std::int8_t>(
        static_cast<int>(std::nearbyintf(v)));
  }
  void store_i8_rne_n(std::int8_t* p, [[maybe_unused]] std::size_t n) const {
    assert(n == 1);
    store_i8_rne(p);
  }
};

struct ScalarD {
  static constexpr std::size_t kWidth = 1;
  /// Float type of the same lane count, for the mixed double->float
  /// finalize kernels.
  using NarrowF = ScalarF;
  double v;

  static ScalarD load(const double* p) { return {*p}; }
  void store(double* p) const { *p = v; }
  static ScalarD broadcast(double x) { return {x}; }
  static ScalarD zero() { return {0.0}; }
  /// Widens kWidth floats starting at p.
  static ScalarD from_float(const float* p) {
    return {static_cast<double>(*p)};
  }
  /// Narrows back to float (round-to-nearest, like static_cast<float>).
  NarrowF to_float() const { return {static_cast<float>(v)}; }

  friend ScalarD operator+(ScalarD a, ScalarD b) { return {a.v + b.v}; }
  friend ScalarD operator-(ScalarD a, ScalarD b) { return {a.v - b.v}; }
  friend ScalarD operator*(ScalarD a, ScalarD b) { return {a.v * b.v}; }
};

}  // namespace hetero::vec
