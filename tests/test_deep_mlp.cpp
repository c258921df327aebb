#include "nn/model.h"

#include <gtest/gtest.h>

#include <cstring>

#include "data/synthetic.h"
#include "nn/evaluate.h"
#include "util/rng.h"

namespace hetero::nn {
namespace {

std::uint64_t fnv1a(const std::vector<float>& v) {
  std::uint64_t h = 1469598103934665603ull;
  for (const float f : v) {
    std::uint32_t bits;
    std::memcpy(&bits, &f, sizeof(bits));
    for (int i = 0; i < 4; ++i) {
      h ^= (bits >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

Model deep_model(std::vector<std::size_t> hidden) {
  return Model(24, std::move(hidden), 6);
}

sparse::CsrMatrix batch_x(std::size_t rows, std::size_t cols,
                          util::Rng& rng) {
  sparse::CsrBuilder b(cols);
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<sparse::Entry> entries;
    for (std::size_t c = 0; c < cols; ++c) {
      if (rng.bernoulli(0.3)) {
        entries.push_back({static_cast<std::uint32_t>(c),
                           static_cast<float>(rng.uniform(0.1, 1.0))});
      }
    }
    if (entries.empty()) entries.push_back({0, 1.0f});
    b.add_row(std::move(entries));
  }
  return b.build();
}

sparse::CsrMatrix batch_y(std::size_t rows, std::size_t classes,
                          util::Rng& rng) {
  sparse::CsrBuilder b(classes);
  for (std::size_t r = 0; r < rows; ++r) {
    b.add_indicator_row({static_cast<std::uint32_t>(rng.next_below(classes))});
  }
  return b.build();
}

TEST(Model, ParameterCount) {
  const Model net = deep_model({8, 4});
  // 24*8+8 + 8*4+4 + 4*6+6 = 200 + 36 + 30 = 266.
  EXPECT_EQ(net.num_parameters(), 266u);
  EXPECT_EQ(net.info().num_layers(), 3u);
  EXPECT_EQ(net.info().hidden, (std::vector<std::size_t>{8, 4}));
  EXPECT_EQ(net.info().input_rows(), 24u);
  EXPECT_EQ(net.info().input_cols(), 8u);
}

TEST(Model, FlatRoundTrip) {
  util::Rng rng(1);
  Model a = deep_model({8, 4});
  a.init(rng);
  const auto flat = a.to_flat();
  ASSERT_EQ(flat.size(), a.num_parameters());
  Model b = deep_model({8, 4});
  b.from_flat(flat);
  EXPECT_EQ(b.to_flat(), flat);
}

TEST(Model, SegmentViewsMatchFlatLayout) {
  util::Rng rng(2);
  Model net = deep_model({8, 4});
  net.init(rng);
  const auto flat = net.to_flat();
  const auto views = net.segment_views();
  ASSERT_EQ(views.size(), 6u);  // [W,b] x 3 layers
  std::size_t off = 0;
  for (const auto v : views) {
    for (std::size_t j = 0; j < v.size(); ++j) {
      ASSERT_EQ(v[j], flat[off + j]);
    }
    off += v.size();
  }
  EXPECT_EQ(off, net.num_parameters());
}

TEST(Model, CopyAndCopyFromPreserveParameters) {
  util::Rng rng(9);
  Model net = deep_model({8, 4});
  net.init(rng);
  const Model copied = net;
  EXPECT_EQ(copied.to_flat(), net.to_flat());

  Model other = deep_model({8, 4});
  other.copy_from(net);
  EXPECT_EQ(other.to_flat(), net.to_flat());
}

TEST(Model, LossDecreasesAtEveryDepth) {
  for (const auto& hidden : std::vector<std::vector<std::size_t>>{
           {8}, {8, 8}, {12, 8, 6}}) {
    util::Rng rng(7);
    Model net = deep_model(hidden);
    net.init(rng);
    ModelWorkspace ws;
    const auto x = batch_x(8, 24, rng);
    const auto y = batch_y(8, 6, rng);
    const double initial = net.forward_loss(x, y, ws);
    for (int i = 0; i < 80; ++i) net.train_step(x, y, 0.3f, ws);
    EXPECT_LT(net.forward_loss(x, y, ws), initial * 0.6)
        << "depth " << hidden.size();
  }
}

TEST(Model, OneHiddenLayerBitIdenticalToMlpModel) {
  // One SGD step of the paper's 3-layer model. Every value below was
  // captured from the former dedicated one-hidden-layer class (MlpModel),
  // which nn::Model replaced: the parameters before and after the step, the
  // loss bits, the virtual-GPU kernel list and the memory estimate. The
  // simulator schedules from the last two, so they pin virtual time too.
  util::Rng rng(3);
  Model net = deep_model({8});
  net.init(rng);
  ASSERT_EQ(net.num_parameters(), 254u);
  EXPECT_EQ(fnv1a(net.to_flat()), 0xb691ccdfb6a56401ull);

  util::Rng data_rng(4);
  const auto x = batch_x(5, 24, data_rng);
  const auto y = batch_y(5, 6, data_rng);
  ModelWorkspace ws;
  const auto stats = net.train_step(x, y, 0.2f, ws);
  std::uint64_t loss_bits;
  std::memcpy(&loss_bits, &stats.loss, sizeof(loss_bits));
  EXPECT_EQ(loss_bits, 0x3ffcb4a453333333ull);
  EXPECT_EQ(fnv1a(net.to_flat()), 0xe2d9d6f9baf047d7ull);

  struct Kernel {
    const char* name;
    double flops, bytes;
    bool sparse;
  };
  const Kernel expected[] = {
      {"spmm_fwd1", 656, 1800, true},     {"bias_relu1", 40, 320, false},
      {"gemm_fwd2", 480, 472, false},     {"bias_softmax", 120, 240, false},
      {"delta2", 30, 240, false},         {"gemm_grad_w2", 480, 472, false},
      {"gemm_delta1", 480, 472, false},   {"relu_bwd", 40, 320, false},
      {"spmm_t_grad_w1", 656, 1640, true}, {"update_w1", 656, 2624, true},
      {"update_w2", 96, 576, false},      {"update_bias", 14, 112, false},
  };
  const auto kernels = net.step_kernels(x);
  ASSERT_EQ(kernels.size(), std::size(expected));
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    EXPECT_EQ(kernels[i].name, expected[i].name) << i;
    EXPECT_EQ(kernels[i].flops, expected[i].flops) << i;
    EXPECT_EQ(kernels[i].bytes, expected[i].bytes) << i;
    EXPECT_EQ(kernels[i].sparse, expected[i].sparse) << i;
  }
  EXPECT_EQ(net.step_memory_bytes(64, 7.0), 27328u);
}

TEST(Model, ForwardLossAllocatesNoGradientBuffers) {
  // Evaluation runs forward_loss only; the H x C gradient buffers stay
  // unallocated until a training step needs them.
  util::Rng rng(13);
  Model net = deep_model({8, 4});
  net.init(rng);
  const auto x = batch_x(5, 24, rng);
  const auto y = batch_y(5, 6, rng);
  ModelWorkspace ws;
  net.forward_loss(x, y, ws);
  EXPECT_TRUE(ws.grad_w.empty());
  EXPECT_TRUE(ws.grad_b.empty());
  EXPECT_TRUE(ws.deltas.empty());
  ASSERT_EQ(ws.acts.size(), 2u);
  EXPECT_EQ(ws.acts[1].rows(), 5u);
  net.train_step(x, y, 0.1f, ws);
  EXPECT_EQ(ws.grad_w.size(), 2u);
}

TEST(Model, GradientCheckTwoHiddenLayers) {
  util::Rng rng(5);
  const auto x = batch_x(3, 24, rng);
  const auto y = batch_y(3, 6, rng);

  // Numeric check via loss differences under the update: take one step
  // with tiny lr; loss must not increase (first-order descent property),
  // repeated across several random restarts.
  for (int restart = 0; restart < 5; ++restart) {
    Model fresh = deep_model({5, 4});
    util::Rng r2(100 + restart);
    fresh.init(r2);
    ModelWorkspace ws;
    const double before = fresh.forward_loss(x, y, ws);
    fresh.train_step(x, y, 1e-3f, ws);
    EXPECT_LE(fresh.forward_loss(x, y, ws), before + 1e-6) << restart;
  }
}

TEST(Model, UntouchedSparseRowsUnchanged) {
  util::Rng rng(6);
  Model net = deep_model({8});
  net.init(rng);
  sparse::CsrBuilder bx(24);
  bx.add_row({{3, 1.0f}});
  const auto x = bx.build();
  const auto y = batch_y(1, 6, rng);
  const auto before = net.weights(0);
  ModelWorkspace ws;
  net.train_step(x, y, 0.5f, ws);
  // The touched-row key must report exactly the batch's feature rows.
  const auto touched = ws.grad_w1.rows();
  ASSERT_EQ(touched.size(), 1u);
  EXPECT_EQ(touched[0], 3u);
  for (std::size_t f = 0; f < 24; ++f) {
    if (f == 3) continue;
    for (std::size_t h = 0; h < 8; ++h) {
      EXPECT_EQ(net.weights(0)(f, h), before(f, h));
    }
  }
}

TEST(Model, ThreadedKernelsBitIdenticalToSerial) {
  // Same model + batch trained with the serial context and with a 4-worker
  // pool must produce bit-identical parameters (kernels partition output
  // rows; the accumulation order per output element never changes).
  util::Rng rng(21);
  Model serial = deep_model({12, 8});
  serial.init(rng);
  Model threaded_model = serial;
  const auto x = batch_x(16, 24, rng);
  const auto y = batch_y(16, 6, rng);

  ModelWorkspace sws;
  for (int i = 0; i < 5; ++i) serial.train_step(x, y, 0.2f, sws);

  util::ThreadPool pool(4);
  ModelWorkspace tws;
  tws.ctx = kernels::Context{&pool, 4, /*serial_grain=*/1};
  for (int i = 0; i < 5; ++i) threaded_model.train_step(x, y, 0.2f, tws);

  EXPECT_EQ(serial.to_flat(), threaded_model.to_flat());
}

TEST(Model, TrainsOnSyntheticDataset) {
  auto dcfg = data::tiny_profile();
  dcfg.num_train = 1200;
  dcfg.num_test = 300;
  const auto ds = data::generate_xml_dataset(dcfg);
  util::Rng rng(11);
  Model net(ds.train.features.cols(), {32, 16}, ds.train.labels.cols());
  net.init(rng);

  const double before = evaluate(net, ds.test, 200).top1;
  ModelWorkspace ws;
  for (int epoch = 0; epoch < 3; ++epoch) {
    for (std::size_t b = 0; b + 64 <= ds.train.num_samples(); b += 64) {
      const auto x = ds.train.features.slice_rows(b, b + 64);
      const auto y = ds.train.labels.slice_rows(b, b + 64);
      net.train_step(x, y, 0.3f, ws);
    }
  }
  EXPECT_GT(evaluate(net, ds.test, 200).top1, before + 0.3);
}

TEST(Model, L2NormPerParameterPositive) {
  util::Rng rng(12);
  Model net = deep_model({8, 4});
  net.init(rng);
  EXPECT_GT(net.l2_norm_per_parameter(), 0.0);
}

TEST(ModelFactory, BuildsAnyDepthAndValidates) {
  const Model mlp(24, {16}, 6);
  EXPECT_EQ(mlp.info().hidden, (std::vector<std::size_t>{16}));
  const Model deep(24, {16, 8}, 6);
  EXPECT_EQ(deep.info().hidden, (std::vector<std::size_t>{16, 8}));

  EXPECT_THROW(Model(24, {}, 6), std::invalid_argument);
  EXPECT_THROW(Model(24, {16, 0}, 6), std::invalid_argument);
}

}  // namespace
}  // namespace hetero::nn
