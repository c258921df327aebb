// AVX-512F Vec wrappers: 16-lane float and 8-lane double over zmm
// registers, with native mask registers for the tails.
//
// Only compiled into the avx512 kernel TU (-mavx512f -mavx2 -mfma
// -ffp-contract=off). Same no-FMA rule as vec256.h. Note the reductions in
// the avx512 table do NOT use the 16-lane float type: the determinism
// contract fixes the virtual accumulator at 8 lanes, so dot_f32 runs on
// 256-bit registers even in the avx512 TU (see vec_impl.h), and the
// double-precision reductions use exactly one 8-lane Avx512D accumulator.
#pragma once

#if !defined(__AVX512F__)
#error "vec512.h requires -mavx512f"
#endif

#include <immintrin.h>

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "tensor/vec/vec256.h"  // Avx2F: the 8-lane reduction + NarrowF type

namespace hetero::vec {

struct Avx512F {
  static constexpr std::size_t kWidth = 16;
  __m512 v;

  static Avx512F load(const float* p) { return {_mm512_loadu_ps(p)}; }
  static Avx512F load_n(const float* p, std::size_t n) {
    assert(n <= 16);
    const __mmask16 m = static_cast<__mmask16>((1u << n) - 1u);
    return {_mm512_maskz_loadu_ps(m, p)};
  }
  void store(float* p) const { _mm512_storeu_ps(p, v); }
  void store_n(float* p, std::size_t n) const {
    assert(n <= 16);
    const __mmask16 m = static_cast<__mmask16>((1u << n) - 1u);
    _mm512_mask_storeu_ps(p, m, v);
  }
  static Avx512F broadcast(float x) { return {_mm512_set1_ps(x)}; }
  static Avx512F zero() { return {_mm512_setzero_ps()}; }

  friend Avx512F operator+(Avx512F a, Avx512F b) {
    return {_mm512_add_ps(a.v, b.v)};
  }
  friend Avx512F operator-(Avx512F a, Avx512F b) {
    return {_mm512_sub_ps(a.v, b.v)};
  }
  friend Avx512F operator*(Avx512F a, Avx512F b) {
    return {_mm512_mul_ps(a.v, b.v)};
  }
  /// divps — IEEE correctly rounded, matches the scalar division bit for bit.
  friend Avx512F operator/(Avx512F a, Avx512F b) {
    return {_mm512_div_ps(a.v, b.v)};
  }
  /// sqrtps — IEEE correctly rounded, matches std::sqrt bit for bit.
  static Avx512F sqrt(Avx512F a) { return {_mm512_sqrt_ps(a.v)}; }

  static Avx512F relu(Avx512F a) {
    return {_mm512_max_ps(_mm512_setzero_ps(), a.v)};
  }
  static Avx512F zero_where_nonpositive(Avx512F mask, Avx512F g) {
    // keep lanes where !(mask <= 0): mask > 0 or NaN, like the scalar test.
    const __mmask16 keep =
        _mm512_cmp_ps_mask(mask.v, _mm512_setzero_ps(), _CMP_NLE_UQ);
    return {_mm512_maskz_mov_ps(keep, g.v)};
  }

  // --- Quantization ops; same per-element semantics as vec_scalar.h /
  // vec256.h. Tails go through small stack buffers because the masked
  // 16-bit/8-bit loads would need AVX512BW+VL, which this TU does not
  // compile with. ---

  /// Clears the sign bit (integer and: _mm512_and_ps needs AVX512DQ).
  static Avx512F abs(Avx512F a) {
    return {_mm512_castsi512_ps(_mm512_and_si512(
        _mm512_castps_si512(a.v), _mm512_set1_epi32(0x7FFFFFFF)))};
  }
  /// vmaxps: (a > b) ? a : b — returns b when either operand is NaN.
  static Avx512F max(Avx512F a, Avx512F b) {
    return {_mm512_max_ps(a.v, b.v)};
  }
  /// vminps: (a < b) ? a : b — returns b when either operand is NaN.
  static Avx512F min(Avx512F a, Avx512F b) {
    return {_mm512_min_ps(a.v, b.v)};
  }
  /// Number of lanes with |a| > limit (CMP_GT_OQ: false on NaN).
  static std::size_t count_abs_gt(Avx512F a, Avx512F limit) {
    const __mmask16 cmp = _mm512_cmp_ps_mask(abs(a).v, limit.v, _CMP_GT_OQ);
    return static_cast<std::size_t>(
        std::popcount(static_cast<unsigned>(cmp)));
  }

  /// 16 half-precision values widened to float (vcvtph2ps, exact).
  static Avx512F load_half(const std::uint16_t* p) {
    return {_mm512_cvtph_ps(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)))};
  }
  static Avx512F load_half_n(const std::uint16_t* p, std::size_t n) {
    assert(n <= 16);
    alignas(32) std::uint16_t buf[16] = {};
    std::memcpy(buf, p, n * sizeof(std::uint16_t));
    return {_mm512_cvtph_ps(
        _mm256_load_si256(reinterpret_cast<const __m256i*>(buf)))};
  }
  /// vcvtps2ph with round-to-nearest-even.
  void store_half(std::uint16_t* p) const {
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(p),
        _mm512_cvtps_ph(v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC));
  }
  void store_half_n(std::uint16_t* p, std::size_t n) const {
    assert(n <= 16);
    alignas(32) std::uint16_t buf[16];
    _mm256_store_si256(
        reinterpret_cast<__m256i*>(buf),
        _mm512_cvtps_ph(v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC));
    std::memcpy(p, buf, n * sizeof(std::uint16_t));
  }

  /// 16 int8 values widened to float (exact).
  static Avx512F load_i8(const std::int8_t* p) {
    const __m128i b = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    return {_mm512_cvtepi32_ps(_mm512_cvtepi8_epi32(b))};
  }
  static Avx512F load_i8_n(const std::int8_t* p, std::size_t n) {
    assert(n <= 16);
    alignas(16) std::int8_t buf[16] = {};
    std::memcpy(buf, p, n);
    return {_mm512_cvtepi32_ps(_mm512_cvtepi8_epi32(
        _mm_load_si128(reinterpret_cast<const __m128i*>(buf))))};
  }
  /// vcvtps2dq (round-to-nearest-even under the default MXCSR mode) then
  /// vpmovdb truncation — exact because the caller clamps to [-127, 127].
  void store_i8_rne(std::int8_t* p) const {
    const __m512i i32 = _mm512_cvtps_epi32(v);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p),
                     _mm512_cvtepi32_epi8(i32));
  }
  void store_i8_rne_n(std::int8_t* p, std::size_t n) const {
    assert(n <= 16);
    alignas(16) std::int8_t buf[16];
    store_i8_rne(buf);
    std::memcpy(p, buf, n);
  }
};

struct Avx512D {
  static constexpr std::size_t kWidth = 8;
  using NarrowF = Avx2F;
  __m512d v;

  static Avx512D load(const double* p) { return {_mm512_loadu_pd(p)}; }
  void store(double* p) const { _mm512_storeu_pd(p, v); }
  static Avx512D broadcast(double x) { return {_mm512_set1_pd(x)}; }
  static Avx512D zero() { return {_mm512_setzero_pd()}; }
  static Avx512D from_float(const float* p) {
    return {_mm512_cvtps_pd(_mm256_loadu_ps(p))};
  }
  NarrowF to_float() const { return {_mm512_cvtpd_ps(v)}; }

  friend Avx512D operator+(Avx512D a, Avx512D b) {
    return {_mm512_add_pd(a.v, b.v)};
  }
  friend Avx512D operator-(Avx512D a, Avx512D b) {
    return {_mm512_sub_pd(a.v, b.v)};
  }
  friend Avx512D operator*(Avx512D a, Avx512D b) {
    return {_mm512_mul_pd(a.v, b.v)};
  }
};

}  // namespace hetero::vec
