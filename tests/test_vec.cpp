// Bit-identity tests for the vec kernel backend (src/tensor/vec/).
//
// The determinism contract says every kernel in the per-ISA tables produces
// bit-identical output on scalar, AVX2, and AVX-512. Part one checks each
// table entry directly against the scalar reference table across fuzzed
// sizes — empty, 1-element, and every tail residue around the 8/16-lane
// widths — plus IEEE edge values (±0, NaN, infinities, denormals) for the
// compare-based kernels. Part two drives the public tensor/sparse/merge
// kernels end to end at every thread and shard count already pinned by
// test_kernels_parallel and test_merge_parallel, switching the active ISA
// between runs: same bits at any thread x shard x ISA combination.
//
// On hosts without AVX the SIMD tables are absent and the sweeps collapse
// to the scalar table checking itself — still a useful no-crash path.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "core/merging.h"
#include "sparse/csr.h"
#include "sparse/ops.h"
#include "sparse/sparse_gradient.h"
#include "tensor/ops.h"
#include "tensor/vec/vec.h"
#include "util/error.h"
#include "util/kernel_context.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace hetero {
namespace {

std::vector<vec::Isa> available_isas() {
  std::vector<vec::Isa> isas;
  for (const auto isa :
       {vec::Isa::kScalar, vec::Isa::kAvx2, vec::Isa::kAvx512}) {
    if (vec::isa_supported(isa)) isas.push_back(isa);
  }
  return isas;
}

// Every tail residue of the 8- and 16-lane widths, plus empty, 1-element,
// and block-sized (512 = kMergeBlock) inputs.
const std::size_t kSizes[] = {0,  1,  2,  3,  5,  7,   8,   9,   15,  16,
                              17, 23, 31, 32, 33, 100, 511, 512, 513};

std::vector<float> fuzz_floats(std::size_t n, util::Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) {
    // Exact zeros (both signs) keep the skip-zero and compare paths honest.
    if (rng.bernoulli(0.1)) {
      x = rng.bernoulli(0.5) ? 0.0f : -0.0f;
    } else {
      x = static_cast<float>(rng.uniform(-2.0, 2.0));
    }
  }
  return v;
}

template <typename T>
void expect_same_bits(const std::vector<T>& ref, const std::vector<T>& got,
                      const char* what, vec::Isa isa, std::size_t n) {
  ASSERT_EQ(ref.size(), got.size());
  if (ref.empty()) return;  // empty vectors hand memcmp null, which is UB
  EXPECT_EQ(0, std::memcmp(ref.data(), got.data(), ref.size() * sizeof(T)))
      << what << " differs from scalar on " << vec::isa_name(isa)
      << " at n=" << n;
}

class VecBitIdentity : public ::testing::Test {
 protected:
  const vec::VecKernels& scalar_ = *vec::kernels_for(vec::Isa::kScalar);
  std::vector<vec::Isa> isas_ = available_isas();
  util::Rng rng_{20240806};
};

TEST_F(VecBitIdentity, ScalarTableAlwaysPresent) {
  ASSERT_NE(vec::kernels_for(vec::Isa::kScalar), nullptr);
  EXPECT_TRUE(vec::isa_supported(vec::Isa::kScalar));
  // The active table is one of the supported ones.
  EXPECT_TRUE(vec::isa_supported(vec::active_isa()));
}

TEST_F(VecBitIdentity, ElementwiseFloatKernels) {
  for (const std::size_t n : kSizes) {
    const auto x = fuzz_floats(n, rng_);
    const auto y0 = fuzz_floats(n, rng_);
    const auto m0 = fuzz_floats(n, rng_);
    const auto p0 = fuzz_floats(n, rng_);
    const float a = 0.37f, b = -1.25f, gamma = 0.9f;
    for (const auto isa : isas_) {
      const auto& vk = *vec::kernels_for(isa);

      auto ref = y0, got = y0;
      scalar_.axpy(a, x.data(), ref.data(), n);
      vk.axpy(a, x.data(), got.data(), n);
      expect_same_bits(ref, got, "axpy", isa, n);

      ref = y0, got = y0;
      scalar_.axpby(a, x.data(), b, ref.data(), n);
      vk.axpby(a, x.data(), b, got.data(), n);
      expect_same_bits(ref, got, "axpby", isa, n);

      ref = y0, got = y0;
      scalar_.scale(ref.data(), b, n);
      vk.scale(got.data(), b, n);
      expect_same_bits(ref, got, "scale", isa, n);

      ref = y0, got = y0;
      scalar_.add(x.data(), ref.data(), n);
      vk.add(x.data(), got.data(), n);
      expect_same_bits(ref, got, "add", isa, n);

      ref = y0, got = y0;
      scalar_.relu(ref.data(), n);
      vk.relu(got.data(), n);
      expect_same_bits(ref, got, "relu", isa, n);

      ref = y0, got = y0;
      scalar_.relu_backward(x.data(), ref.data(), n);
      vk.relu_backward(x.data(), got.data(), n);
      expect_same_bits(ref, got, "relu_backward", isa, n);

      auto gref = y0, ggot = y0, pref = p0, pgot = p0;
      scalar_.momentum_update(m0.data(), gref.data(), pref.data(), gamma, n);
      vk.momentum_update(m0.data(), ggot.data(), pgot.data(), gamma, n);
      expect_same_bits(gref, ggot, "momentum_update(global)", isa, n);
      expect_same_bits(pref, pgot, "momentum_update(prev)", isa, n);
    }
  }
}

TEST_F(VecBitIdentity, ReluKernelsOnIeeeEdgeValues) {
  const float qnan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float denorm = std::numeric_limits<float>::denorm_min();
  // 9 values so the AVX2 path exercises a full lane plus a 1-element tail.
  const std::vector<float> edge = {0.0f, -0.0f, qnan,   -qnan, inf,
                                   -inf, denorm, -denorm, -1.5f};
  const std::vector<float> grad = fuzz_floats(edge.size(), rng_);
  for (const auto isa : isas_) {
    const auto& vk = *vec::kernels_for(isa);

    auto ref = edge, got = edge;
    scalar_.relu(ref.data(), ref.size());
    vk.relu(got.data(), got.size());
    expect_same_bits(ref, got, "relu(edge)", isa, edge.size());

    ref = grad, got = grad;
    scalar_.relu_backward(edge.data(), ref.data(), ref.size());
    vk.relu_backward(edge.data(), got.data(), got.size());
    expect_same_bits(ref, got, "relu_backward(edge)", isa, edge.size());

    // relu(a) <= 0 exactly where a <= 0, and NaN stays NaN, so masking with
    // the activations equals masking with the pre-activations.
    auto act = edge;
    vk.relu(act.data(), act.size());
    ref = grad, got = grad;
    vk.relu_backward(edge.data(), ref.data(), ref.size());
    vk.relu_backward(act.data(), got.data(), got.size());
    expect_same_bits(ref, got, "relu_backward(relu(edge))", isa, edge.size());
  }
}

TEST_F(VecBitIdentity, AdamAndAdagradUpdateKernels) {
  for (const std::size_t n : kSizes) {
    const auto w0 = fuzz_floats(n, rng_);
    const auto g = fuzz_floats(n, rng_);
    const auto m0 = fuzz_floats(n, rng_);
    // Second moments / accumulators are sums of squares: keep them >= 0 so
    // sqrt sees the values the optimizer actually produces.
    auto v0 = fuzz_floats(n, rng_);
    for (auto& x : v0) x = std::abs(x);

    vec::AdamParams ap;
    ap.lr = 0.05f;
    ap.bias1 = 1.0f / (1.0f - 0.9f * 0.9f);
    ap.bias2 = 1.0f / (1.0f - 0.999f * 0.999f);
    ap.weight_decay = 0.01f;
    ap.keep = 0.995f;
    vec::AdagradParams gp;
    gp.lr = 0.1f;
    gp.weight_decay = 0.01f;

    for (const auto isa : isas_) {
      const auto& vk = *vec::kernels_for(isa);

      auto wr = w0, mr = m0, vr = v0;
      auto wg = w0, mg = m0, vg = v0;
      scalar_.adam_update(wr.data(), g.data(), mr.data(), vr.data(), ap, n);
      vk.adam_update(wg.data(), g.data(), mg.data(), vg.data(), ap, n);
      expect_same_bits(wr, wg, "adam_update(w)", isa, n);
      expect_same_bits(mr, mg, "adam_update(m)", isa, n);
      expect_same_bits(vr, vg, "adam_update(v)", isa, n);

      auto awr = w0, aar = v0;
      auto awg = w0, aag = v0;
      scalar_.adagrad_update(awr.data(), g.data(), aar.data(), gp, n);
      vk.adagrad_update(awg.data(), g.data(), aag.data(), gp, n);
      expect_same_bits(awr, awg, "adagrad_update(w)", isa, n);
      expect_same_bits(aar, aag, "adagrad_update(a)", isa, n);
    }
  }
}

TEST_F(VecBitIdentity, Reductions) {
  for (const std::size_t n : kSizes) {
    const auto x = fuzz_floats(n, rng_);
    const auto y = fuzz_floats(n, rng_);
    const float f_ref = scalar_.dot_f32(x.data(), y.data(), n);
    const double d_ref = scalar_.dot_f64(x.data(), y.data(), n);
    const double s_ref = scalar_.sum_squares(x.data(), n);
    const double q_ref = scalar_.squared_distance(x.data(), y.data(), n);
    for (const auto isa : isas_) {
      const auto& vk = *vec::kernels_for(isa);
      const float f = vk.dot_f32(x.data(), y.data(), n);
      const double d = vk.dot_f64(x.data(), y.data(), n);
      const double s = vk.sum_squares(x.data(), n);
      const double q = vk.squared_distance(x.data(), y.data(), n);
      EXPECT_EQ(0, std::memcmp(&f_ref, &f, sizeof(float)))
          << "dot_f32 on " << vec::isa_name(isa) << " at n=" << n;
      EXPECT_EQ(0, std::memcmp(&d_ref, &d, sizeof(double)))
          << "dot_f64 on " << vec::isa_name(isa) << " at n=" << n;
      EXPECT_EQ(0, std::memcmp(&s_ref, &s, sizeof(double)))
          << "sum_squares on " << vec::isa_name(isa) << " at n=" << n;
      EXPECT_EQ(0, std::memcmp(&q_ref, &q, sizeof(double)))
          << "squared_distance on " << vec::isa_name(isa) << " at n=" << n;
    }
  }
}

TEST_F(VecBitIdentity, MergeKernels) {
  for (const std::size_t n : kSizes) {
    const auto x0 = fuzz_floats(n, rng_);
    const auto x1 = fuzz_floats(n, rng_);
    const auto g0 = fuzz_floats(n, rng_);
    const auto p0 = fuzz_floats(n, rng_);
    const double w0 = 0.625, w1 = 0.375;
    const float gamma = 0.85f;

    std::vector<double> init_ref(n), acc_ref(n), acc_got(n);
    scalar_.merge_init(init_ref.data(), x0.data(), w0, n);
    acc_ref = init_ref;
    scalar_.merge_accum(acc_ref.data(), x1.data(), w1, n);
    for (const auto isa : isas_) {
      const auto& vk = *vec::kernels_for(isa);
      vk.merge_init(acc_got.data(), x0.data(), w0, n);
      expect_same_bits(init_ref, acc_got, "merge_init", isa, n);
      vk.merge_accum(acc_got.data(), x1.data(), w1, n);
      expect_same_bits(acc_ref, acc_got, "merge_accum", isa, n);

      auto gref = g0, ggot = g0, pref = p0, pgot = p0;
      scalar_.merge_finalize_momentum(acc_ref.data(), gref.data(),
                                      pref.data(), gamma, n);
      vk.merge_finalize_momentum(acc_ref.data(), ggot.data(), pgot.data(),
                                 gamma, n);
      expect_same_bits(gref, ggot, "merge_finalize_momentum(g)", isa, n);
      expect_same_bits(pref, pgot, "merge_finalize_momentum(p)", isa, n);

      gref = g0, ggot = g0, pref = p0, pgot = p0;
      scalar_.merge_finalize_plain(acc_ref.data(), gref.data(), pref.data(),
                                   n);
      vk.merge_finalize_plain(acc_ref.data(), ggot.data(), pgot.data(), n);
      expect_same_bits(gref, ggot, "merge_finalize_plain(g)", isa, n);
      expect_same_bits(pref, pgot, "merge_finalize_plain(p)", isa, n);
    }
  }
}

// Fuzzed inputs for the quantization kernels: the usual small values plus
// magnitudes straddling the fp16 overflow threshold (65504), denormals, and
// the occasional NaN/infinity so the clamp/compare paths are exercised.
std::vector<float> fuzz_quant_floats(std::size_t n, util::Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) {
    const double roll = rng.uniform(0.0, 1.0);
    const float sign = rng.bernoulli(0.5) ? 1.0f : -1.0f;
    if (roll < 0.08) {
      x = sign * 0.0f;
    } else if (roll < 0.14) {
      x = sign * std::numeric_limits<float>::denorm_min();
    } else if (roll < 0.20) {
      x = sign * 65504.0f;  // fp16 max finite
    } else if (roll < 0.26) {
      x = sign * static_cast<float>(rng.uniform(60000.0, 80000.0));
    } else if (roll < 0.30) {
      x = sign * std::numeric_limits<float>::max();
    } else if (roll < 0.33) {
      x = sign * std::numeric_limits<float>::infinity();
    } else if (roll < 0.36) {
      x = std::numeric_limits<float>::quiet_NaN();
    } else if (roll < 0.44) {
      // fp16 subnormal range: |x| < 2^-14
      x = sign * static_cast<float>(rng.uniform(0.0, 6.0e-5));
    } else {
      x = sign * static_cast<float>(rng.uniform(0.0, 4.0));
    }
  }
  return v;
}

TEST_F(VecBitIdentity, QuantKernelsBitIdentity) {
  for (const std::size_t n : kSizes) {
    const auto w = fuzz_quant_floats(n, rng_);
    const auto g = fuzz_floats(n, rng_);
    const auto r0 = fuzz_floats(n, rng_);
    const auto x = fuzz_quant_floats(n, rng_);
    const float scale = 1024.0f, inv_scale = 1.0f / 1024.0f;
    const float i8_scale = 0.03125f, i8_mult = 32.0f;
    const double wgt = 0.375;

    // Scalar reference codes feed every ISA's decode-side kernels.
    std::vector<std::uint16_t> q16_ref(n);
    std::vector<std::int8_t> q8_ref(n);
    const std::size_t over_ref =
        scalar_.quant_fp16(x.data(), q16_ref.data(), scale, n);
    scalar_.quant_i8(x.data(), q8_ref.data(), i8_mult, n);
    std::vector<double> acc0(n);
    for (std::size_t i = 0; i < n; ++i) {
      acc0[i] = static_cast<double>(g[i]) * 1.5;
    }

    for (const auto isa : isas_) {
      const auto& vk = *vec::kernels_for(isa);

      auto ref = r0, got = r0;
      scalar_.ef_delta(w.data(), g.data(), ref.data(), n);
      vk.ef_delta(w.data(), g.data(), got.data(), n);
      expect_same_bits(ref, got, "ef_delta", isa, n);

      const float amax_ref = scalar_.absmax(x.data(), n);
      const float amax = vk.absmax(x.data(), n);
      EXPECT_EQ(0, std::memcmp(&amax_ref, &amax, sizeof(float)))
          << "absmax on " << vec::isa_name(isa) << " at n=" << n;

      std::vector<std::uint16_t> q16(n);
      const std::size_t over = vk.quant_fp16(x.data(), q16.data(), scale, n);
      EXPECT_EQ(over_ref, over)
          << "quant_fp16 overflow count on " << vec::isa_name(isa)
          << " at n=" << n;
      expect_same_bits(q16_ref, q16, "quant_fp16", isa, n);

      ref.assign(n, 0.0f), got.assign(n, 0.0f);
      scalar_.dequant_fp16(q16_ref.data(), ref.data(), inv_scale, n);
      vk.dequant_fp16(q16_ref.data(), got.data(), inv_scale, n);
      expect_same_bits(ref, got, "dequant_fp16", isa, n);

      ref = r0, got = r0;
      scalar_.residual_fp16(q16_ref.data(), inv_scale, ref.data(), n);
      vk.residual_fp16(q16_ref.data(), inv_scale, got.data(), n);
      expect_same_bits(ref, got, "residual_fp16", isa, n);

      auto acc_ref = acc0, acc_got = acc0;
      scalar_.merge_accum_fp16(acc_ref.data(), q16_ref.data(), wgt,
                               inv_scale, n);
      vk.merge_accum_fp16(acc_got.data(), q16_ref.data(), wgt, inv_scale, n);
      expect_same_bits(acc_ref, acc_got, "merge_accum_fp16", isa, n);

      std::vector<std::int8_t> q8(n);
      vk.quant_i8(x.data(), q8.data(), i8_mult, n);
      expect_same_bits(q8_ref, q8, "quant_i8", isa, n);

      ref.assign(n, 0.0f), got.assign(n, 0.0f);
      scalar_.dequant_i8(q8_ref.data(), ref.data(), i8_scale, n);
      vk.dequant_i8(q8_ref.data(), got.data(), i8_scale, n);
      expect_same_bits(ref, got, "dequant_i8", isa, n);

      ref = r0, got = r0;
      scalar_.residual_i8(q8_ref.data(), i8_scale, ref.data(), n);
      vk.residual_i8(q8_ref.data(), i8_scale, got.data(), n);
      expect_same_bits(ref, got, "residual_i8", isa, n);

      acc_ref = acc0, acc_got = acc0;
      scalar_.merge_accum_i8(acc_ref.data(), q8_ref.data(), wgt, i8_scale, n);
      vk.merge_accum_i8(acc_got.data(), q8_ref.data(), wgt, i8_scale, n);
      expect_same_bits(acc_ref, acc_got, "merge_accum_i8", isa, n);
    }
  }
}

TEST_F(VecBitIdentity, QuantKernelSemantics) {
  const auto& vk = *vec::kernels_for(vec::active_isa());

  // fp16 exact codes and overflow accounting at the 65504 boundary.
  const std::vector<float> vals = {1.0f,     -2.0f, 65504.0f, -65504.0f,
                                   65520.0f, 0.0f,  -0.0f};
  std::vector<std::uint16_t> q(vals.size());
  const auto over = vk.quant_fp16(vals.data(), q.data(), 1.0f, vals.size());
  EXPECT_EQ(1u, over);  // only 65520 exceeds the max finite half
  EXPECT_EQ(0x3C00u, q[0]);
  EXPECT_EQ(0xC000u, q[1]);
  EXPECT_EQ(0x7BFFu, q[2]);  // +65504, the largest finite half
  EXPECT_EQ(0xFBFFu, q[3]);
  EXPECT_EQ(0x0000u, q[5]);
  EXPECT_EQ(0x8000u, q[6]);  // signed zero survives the round trip
  std::vector<float> back(vals.size());
  vk.dequant_fp16(q.data(), back.data(), 1.0f, vals.size());
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(vals[i], back[i]) << "half round trip at i=" << i;
  }

  // int8: RNE rounding, saturation at ±127, NaN lands on +127.
  const std::vector<float> iv = {0.5f,   1.5f,  2.5f, -0.5f, 200.0f, -200.0f,
                                 std::numeric_limits<float>::quiet_NaN(),
                                 std::numeric_limits<float>::infinity()};
  std::vector<std::int8_t> q8(iv.size());
  vk.quant_i8(iv.data(), q8.data(), 1.0f, iv.size());
  EXPECT_EQ(0, q8[0]);   // 0.5 rounds to even 0
  EXPECT_EQ(2, q8[1]);   // 1.5 rounds to even 2
  EXPECT_EQ(2, q8[2]);   // 2.5 rounds to even 2
  EXPECT_EQ(0, q8[3]);
  EXPECT_EQ(127, q8[4]);
  EXPECT_EQ(-127, q8[5]);
  EXPECT_EQ(127, q8[6]);
  EXPECT_EQ(127, q8[7]);

  // absmax ignores NaN via the maxps (m > a) ? m : a expression when the
  // running max is already numeric, and is exactly 0 on empty input.
  EXPECT_EQ(0.0f, vk.absmax(nullptr, 0));
  const std::vector<float> ax = {1.0f, std::numeric_limits<float>::quiet_NaN(),
                                 -3.0f, 2.0f};
  EXPECT_EQ(3.0f, vk.absmax(ax.data(), ax.size()));
}

TEST_F(VecBitIdentity, IsaSelectionErrors) {
  EXPECT_THROW(vec::set_isa_from_string("sse9"), ParseError);
  vec::set_isa_from_string("");  // empty = flag not given, no-op
  EXPECT_THROW(vec::set_isa_from_string("AVX2"), ParseError);  // exact names
  EXPECT_EQ(vec::parse_isa("avx512"), vec::Isa::kAvx512);
  EXPECT_EQ(vec::parse_isa("turbo"), std::nullopt);
  vec::set_isa(vec::best_supported_isa());
}

// ---------------------------------------------------------------------------
// End-to-end: public kernels at every pinned thread/shard count x ISA.
// ---------------------------------------------------------------------------

// Restores the startup-selected ISA when a sweep ends, so test order cannot
// leak a forced ISA into unrelated tests.
struct IsaGuard {
  vec::Isa saved = vec::active_isa();
  ~IsaGuard() { vec::set_isa(saved); }
};

sparse::CsrMatrix fuzz_csr(std::size_t rows, std::size_t cols,
                           double density, util::Rng& rng) {
  sparse::CsrBuilder b(cols);
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<sparse::Entry> entries;
    for (std::size_t c = 0; c < cols; ++c) {
      if (rng.bernoulli(density)) {
        entries.push_back({static_cast<std::uint32_t>(c),
                           static_cast<float>(rng.uniform(-1.0, 1.0))});
      }
    }
    b.add_row(std::move(entries));
  }
  return b.build();
}

tensor::Matrix fuzz_matrix(std::size_t rows, std::size_t cols,
                           util::Rng& rng) {
  tensor::Matrix m(rows, cols);
  for (auto& v : m.flat()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return m;
}

kernels::Context eager_ctx(util::ThreadPool& pool, std::size_t threads) {
  kernels::Context ctx{&pool, threads};
  ctx.serial_grain = 0;
  return ctx;
}

void expect_bit_identical(const tensor::Matrix& a, const tensor::Matrix& b,
                          const char* what, vec::Isa isa, std::size_t t) {
  ASSERT_TRUE(a.same_shape(b));
  ASSERT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(float)))
      << what << " differs on " << vec::isa_name(isa) << " threads=" << t;
}

TEST(VecEndToEnd, SpmmAndGemmAcrossIsaAndThreads) {
  IsaGuard guard;
  util::ThreadPool pool(4);
  util::Rng rng(50);
  // Thread counts pinned by test_kernels_parallel.
  const std::size_t thread_counts[] = {1, 2, 3, 4, 9, 16};
  for (int iter = 0; iter < 8; ++iter) {
    const std::size_t rows = 1 + rng.next_below(7);
    const std::size_t cols = 1 + rng.next_below(40);
    const std::size_t h = 1 + rng.next_below(33);  // crosses lane widths
    const auto x = fuzz_csr(rows, cols, 0.3, rng);
    const auto w = fuzz_matrix(cols, h, rng);
    const auto d = fuzz_matrix(rows, h, rng);
    const auto a = fuzz_matrix(rows, cols, rng);
    const auto bt = fuzz_matrix(h, cols, rng);

    // Scalar serial is the one reference for every ISA x thread combo.
    vec::set_isa(vec::Isa::kScalar);
    tensor::Matrix y_ref, g_ref(cols, h, 0.0f), c_ref;
    sparse::spmm(x, w, y_ref);
    sparse::spmm_t_accumulate(x, d, g_ref);
    tensor::gemm_a_bt(a, bt, c_ref);

    for (const auto isa : available_isas()) {
      vec::set_isa(isa);
      for (const auto t : thread_counts) {
        tensor::Matrix y, g(cols, h, 0.0f), c;
        sparse::spmm(x, w, y, eager_ctx(pool, t));
        expect_bit_identical(y_ref, y, "spmm", isa, t);
        sparse::spmm_t_accumulate(x, d, g, eager_ctx(pool, t));
        expect_bit_identical(g_ref, g, "spmm_t_accumulate", isa, t);
        tensor::gemm_a_bt(a, bt, c, eager_ctx(pool, t));
        expect_bit_identical(c_ref, c, "gemm_a_bt", isa, t);
      }
    }
  }
}

TEST(VecEndToEnd, GemmVariantsAndReductionsAcrossIsa) {
  IsaGuard guard;
  util::ThreadPool pool(4);
  util::Rng rng(51);
  for (int iter = 0; iter < 8; ++iter) {
    const std::size_t m = 1 + rng.next_below(9);
    const std::size_t k = 1 + rng.next_below(20);
    const std::size_t n = 1 + rng.next_below(20);
    const auto a = fuzz_matrix(m, k, rng);
    const auto b = fuzz_matrix(k, n, rng);
    const auto at = fuzz_matrix(k, m, rng);
    std::vector<float> flat = fuzz_floats(1 + rng.next_below(600), rng);
    std::vector<float> flat2 = fuzz_floats(flat.size(), rng);

    vec::set_isa(vec::Isa::kScalar);
    tensor::Matrix c1_ref, c2_ref;
    tensor::gemm(a, b, c1_ref);
    tensor::gemm_at_b(at, b, c2_ref);
    const double ss_ref = tensor::sum_of_squares(flat);
    const double dot_ref = tensor::dot(flat, flat2);

    for (const auto isa : available_isas()) {
      vec::set_isa(isa);
      for (const auto t : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                           std::size_t{16}}) {
        tensor::Matrix c1, c2;
        tensor::gemm(a, b, c1, eager_ctx(pool, t));
        expect_bit_identical(c1_ref, c1, "gemm", isa, t);
        tensor::gemm_at_b(at, b, c2, eager_ctx(pool, t));
        expect_bit_identical(c2_ref, c2, "gemm_at_b", isa, t);
      }
      EXPECT_EQ(ss_ref, tensor::sum_of_squares(flat))
          << "sum_of_squares on " << vec::isa_name(isa);
      EXPECT_EQ(dot_ref, tensor::dot(flat, flat2))
          << "dot on " << vec::isa_name(isa);
    }
  }
}

TEST(VecEndToEnd, MergeSegmentAcrossIsaThreadsShards) {
  IsaGuard guard;
  util::ThreadPool pool(4);
  util::Rng rng(52);
  // Thread/shard counts and lengths pinned by test_merge_parallel; 4113
  // exercises multiple 512-blocks plus a ragged tail.
  const std::size_t threads[] = {1, 2, 3, 8, 16};
  const std::size_t shard_counts[] = {1, 3, 8};
  const std::size_t lens[] = {1, 5, 511, 512, 513, 4113};
  for (const std::size_t len : lens) {
    for (const std::size_t reps : {std::size_t{1}, std::size_t{3}}) {
      std::vector<std::vector<float>> replicas(reps);
      std::vector<const float*> ptrs(reps);
      std::vector<double> weights(reps);
      for (std::size_t i = 0; i < reps; ++i) {
        replicas[i] = fuzz_floats(len, rng);
        ptrs[i] = replicas[i].data();
        weights[i] = 1.0 / static_cast<double>(reps);
      }
      const auto g0 = fuzz_floats(len, rng);
      const auto p0 = fuzz_floats(len, rng);
      for (const bool momentum : {false, true}) {
        core::MergeUpdate u;
        u.weights = weights;
        u.momentum = momentum;
        u.gamma = 0.6;

        vec::set_isa(vec::Isa::kScalar);
        auto g_ref = g0, p_ref = p0;
        core::merge_segment(ptrs, len, u, g_ref, p_ref, 1,
                            kernels::Context::serial());

        for (const auto isa : available_isas()) {
          vec::set_isa(isa);
          for (const auto t : threads) {
            for (const auto s : shard_counts) {
              auto g = g0, p = p0;
              core::merge_segment(ptrs, len, u, g, p, s,
                                  eager_ctx(pool, t));
              ASSERT_EQ(0, std::memcmp(g_ref.data(), g.data(),
                                       len * sizeof(float)))
                  << "merge_segment(global) differs on "
                  << vec::isa_name(isa) << " threads=" << t
                  << " shards=" << s << " len=" << len
                  << " momentum=" << momentum;
              ASSERT_EQ(0, std::memcmp(p_ref.data(), p.data(),
                                       len * sizeof(float)))
                  << "merge_segment(prev) differs on " << vec::isa_name(isa)
                  << " threads=" << t << " shards=" << s << " len=" << len;
            }
          }
        }
      }
    }
  }
}

TEST(VecEndToEnd, SgdApplyAcrossIsa) {
  IsaGuard guard;
  util::Rng rng(53);
  const std::size_t f = 60, h = 17;  // 17: ragged against every lane width
  const auto x = fuzz_csr(6, f, 0.2, rng);
  const auto d = fuzz_matrix(6, h, rng);
  const auto w0 = fuzz_matrix(f, h, rng);
  const float lr = 0.21f, keep = 1.0f - lr * 0.02f;

  vec::set_isa(vec::Isa::kScalar);
  sparse::SparseGradient g_ref;
  g_ref.reset(x, h);
  g_ref.accumulate_spmm_t(x, d, kernels::Context::serial());
  tensor::Matrix w_ref = w0;
  g_ref.apply_to(w_ref, lr, keep, kernels::Context::serial());

  for (const auto isa : available_isas()) {
    vec::set_isa(isa);
    sparse::SparseGradient g;
    g.reset(x, h);
    g.accumulate_spmm_t(x, d, kernels::Context::serial());
    tensor::Matrix w = w0;
    g.apply_to(w, lr, keep, kernels::Context::serial());
    expect_bit_identical(w_ref, w, "sgd apply_to", isa, 1);
  }
}

}  // namespace
}  // namespace hetero
