// AVX2 Vec wrappers: 8-lane float and 4-lane double over ymm registers.
//
// Only compiled into the avx2/avx512 kernel TUs (CMake adds -mavx2 -mfma
// -ffp-contract=off to exactly those sources). No fused operations are used
// anywhere: bit-identity with the scalar table requires the same two
// roundings per mul+add as the scalar expression, and -ffp-contract=off
// stops GCC from fusing the intrinsic mul/add pairs (they are plain vector
// operators under the hood) on its own.
//
// Tail handling is masked: load_n/store_n use vmaskmov with a mask built
// from a constant table, so element-wise kernels never read or write past
// the span while still running the identical per-element expressions on the
// live lanes.
#pragma once

#if !defined(__AVX2__)
#error "vec256.h requires -mavx2"
#endif
#if !defined(__F16C__)
#error "vec256.h requires -mf16c (fp16 quantization kernels)"
#endif

#include <immintrin.h>

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace hetero::vec {

namespace detail256 {
// mask_table[n] has the low n lanes set (all-ones) and the rest clear.
alignas(32) inline constexpr int kMaskTable[9][8] = {
    {0, 0, 0, 0, 0, 0, 0, 0},
    {-1, 0, 0, 0, 0, 0, 0, 0},
    {-1, -1, 0, 0, 0, 0, 0, 0},
    {-1, -1, -1, 0, 0, 0, 0, 0},
    {-1, -1, -1, -1, 0, 0, 0, 0},
    {-1, -1, -1, -1, -1, 0, 0, 0},
    {-1, -1, -1, -1, -1, -1, 0, 0},
    {-1, -1, -1, -1, -1, -1, -1, 0},
    {-1, -1, -1, -1, -1, -1, -1, -1},
};
inline __m256i mask(std::size_t n) {
  assert(n <= 8);
  return _mm256_load_si256(
      reinterpret_cast<const __m256i*>(kMaskTable[n]));
}
}  // namespace detail256

struct Avx2F {
  static constexpr std::size_t kWidth = 8;
  __m256 v;

  static Avx2F load(const float* p) { return {_mm256_loadu_ps(p)}; }
  static Avx2F load_n(const float* p, std::size_t n) {
    return {_mm256_maskload_ps(p, detail256::mask(n))};
  }
  void store(float* p) const { _mm256_storeu_ps(p, v); }
  void store_n(float* p, std::size_t n) const {
    _mm256_maskstore_ps(p, detail256::mask(n), v);
  }
  static Avx2F broadcast(float x) { return {_mm256_set1_ps(x)}; }
  static Avx2F zero() { return {_mm256_setzero_ps()}; }

  friend Avx2F operator+(Avx2F a, Avx2F b) {
    return {_mm256_add_ps(a.v, b.v)};
  }
  friend Avx2F operator-(Avx2F a, Avx2F b) {
    return {_mm256_sub_ps(a.v, b.v)};
  }
  friend Avx2F operator*(Avx2F a, Avx2F b) {
    return {_mm256_mul_ps(a.v, b.v)};
  }
  /// divps — IEEE correctly rounded, matches the scalar division bit for bit.
  friend Avx2F operator/(Avx2F a, Avx2F b) {
    return {_mm256_div_ps(a.v, b.v)};
  }
  /// sqrtps — IEEE correctly rounded, matches std::sqrt bit for bit.
  static Avx2F sqrt(Avx2F a) { return {_mm256_sqrt_ps(a.v)}; }

  /// max(v, 0): max_ps(0, v) returns v on NaN and -0.0 on -0.0, exactly the
  /// scalar (v < 0) ? 0 : v.
  static Avx2F relu(Avx2F a) {
    return {_mm256_max_ps(_mm256_setzero_ps(), a.v)};
  }
  /// (mask <= 0) ? 0 : g. NLE_UQ is true on mask > 0 and on NaN, matching
  /// the scalar comparison's NaN behavior.
  static Avx2F zero_where_nonpositive(Avx2F mask, Avx2F g) {
    const __m256 keep =
        _mm256_cmp_ps(mask.v, _mm256_setzero_ps(), _CMP_NLE_UQ);
    return {_mm256_and_ps(g.v, keep)};
  }

  // --- Quantization ops. The scalar table spells out these instructions'
  // exact NaN/operand-order semantics; see vec_scalar.h. ---

  /// andps with 0x7FFFFFFF — clears the sign bit.
  static Avx2F abs(Avx2F a) {
    const __m256 m = _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFFFFFF));
    return {_mm256_and_ps(a.v, m)};
  }
  /// maxps: (a > b) ? a : b — returns b when either operand is NaN.
  static Avx2F max(Avx2F a, Avx2F b) { return {_mm256_max_ps(a.v, b.v)}; }
  /// minps: (a < b) ? a : b — returns b when either operand is NaN.
  static Avx2F min(Avx2F a, Avx2F b) { return {_mm256_min_ps(a.v, b.v)}; }
  /// Number of lanes with |a| > limit (CMP_GT_OQ: false on NaN).
  static std::size_t count_abs_gt(Avx2F a, Avx2F limit) {
    const __m256 cmp = _mm256_cmp_ps(abs(a).v, limit.v, _CMP_GT_OQ);
    return static_cast<std::size_t>(std::popcount(
        static_cast<unsigned>(_mm256_movemask_ps(cmp)) & 0xFFu));
  }

  /// 8 half-precision values widened to float (vcvtph2ps, exact).
  static Avx2F load_half(const std::uint16_t* p) {
    return {_mm256_cvtph_ps(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)))};
  }
  static Avx2F load_half_n(const std::uint16_t* p, std::size_t n) {
    assert(n <= 8);
    alignas(16) std::uint16_t buf[8] = {};
    std::memcpy(buf, p, n * sizeof(std::uint16_t));
    return {_mm256_cvtph_ps(
        _mm_load_si128(reinterpret_cast<const __m128i*>(buf)))};
  }
  /// vcvtps2ph with round-to-nearest-even.
  void store_half(std::uint16_t* p) const {
    _mm_storeu_si128(
        reinterpret_cast<__m128i*>(p),
        _mm256_cvtps_ph(v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC));
  }
  void store_half_n(std::uint16_t* p, std::size_t n) const {
    assert(n <= 8);
    alignas(16) std::uint16_t buf[8];
    _mm_store_si128(
        reinterpret_cast<__m128i*>(buf),
        _mm256_cvtps_ph(v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC));
    std::memcpy(p, buf, n * sizeof(std::uint16_t));
  }

  /// 8 int8 values widened to float (exact).
  static Avx2F load_i8(const std::int8_t* p) {
    const __m128i b = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p));
    return {_mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(b))};
  }
  static Avx2F load_i8_n(const std::int8_t* p, std::size_t n) {
    assert(n <= 8);
    alignas(16) std::int8_t buf[16] = {};
    std::memcpy(buf, p, n);
    return {_mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(
        _mm_load_si128(reinterpret_cast<const __m128i*>(buf))))};
  }
  /// cvtps2dq (round-to-nearest-even under the default MXCSR mode) then
  /// pack to int8. The caller clamps to [-127, 127], so the saturating
  /// packs are exact.
  void store_i8_rne(std::int8_t* p) const {
    const __m256i i32 = _mm256_cvtps_epi32(v);
    const __m128i lo = _mm256_castsi256_si128(i32);
    const __m128i hi = _mm256_extracti128_si256(i32, 1);
    const __m128i p16 = _mm_packs_epi32(lo, hi);
    const __m128i p8 = _mm_packs_epi16(p16, p16);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(p), p8);
  }
  void store_i8_rne_n(std::int8_t* p, std::size_t n) const {
    assert(n <= 8);
    alignas(16) std::int8_t buf[8];
    store_i8_rne(buf);
    std::memcpy(p, buf, n);
  }
};

/// 4-lane float vector (xmm). Only used as Avx2D::NarrowF in the mixed
/// double->float finalize kernels, so it carries just the float arithmetic
/// those need.
struct Sse4F {
  static constexpr std::size_t kWidth = 4;
  __m128 v;

  static Sse4F load(const float* p) { return {_mm_loadu_ps(p)}; }
  void store(float* p) const { _mm_storeu_ps(p, v); }
  static Sse4F broadcast(float x) { return {_mm_set1_ps(x)}; }

  friend Sse4F operator+(Sse4F a, Sse4F b) { return {_mm_add_ps(a.v, b.v)}; }
  friend Sse4F operator-(Sse4F a, Sse4F b) { return {_mm_sub_ps(a.v, b.v)}; }
  friend Sse4F operator*(Sse4F a, Sse4F b) { return {_mm_mul_ps(a.v, b.v)}; }
};

/// 4-lane double vector whose from_float/to_float convert a half ymm of
/// floats. Element-wise double kernels (merge accumulation) use it; the
/// 8-lane virtual-accumulator reductions build their lane pairs from it.
struct Avx2D {
  static constexpr std::size_t kWidth = 4;
  using NarrowF = Sse4F;
  __m256d v;

  static Avx2D load(const double* p) { return {_mm256_loadu_pd(p)}; }
  void store(double* p) const { _mm256_storeu_pd(p, v); }
  static Avx2D broadcast(double x) { return {_mm256_set1_pd(x)}; }
  static Avx2D zero() { return {_mm256_setzero_pd()}; }
  static Avx2D from_float(const float* p) {
    return {_mm256_cvtps_pd(_mm_loadu_ps(p))};
  }
  NarrowF to_float() const { return {_mm256_cvtpd_ps(v)}; }

  friend Avx2D operator+(Avx2D a, Avx2D b) {
    return {_mm256_add_pd(a.v, b.v)};
  }
  friend Avx2D operator-(Avx2D a, Avx2D b) {
    return {_mm256_sub_pd(a.v, b.v)};
  }
  friend Avx2D operator*(Avx2D a, Avx2D b) {
    return {_mm256_mul_pd(a.v, b.v)};
  }
};

}  // namespace hetero::vec
