#include "comm/allreduce.h"

#include <gtest/gtest.h>

#include "comm/quant.h"
#include "sim/profiles.h"
#include "util/rng.h"

namespace hetero::comm {
namespace {

std::vector<std::vector<float>> random_replicas(std::size_t n,
                                                std::size_t len,
                                                std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::vector<float>> replicas(n, std::vector<float>(len));
  for (auto& r : replicas) {
    for (auto& v : r) v = static_cast<float>(rng.uniform(-2, 2));
  }
  return replicas;
}

std::vector<std::span<float>> views_of(std::vector<std::vector<float>>& r) {
  std::vector<std::span<float>> v;
  for (auto& x : r) v.emplace_back(x.data(), x.size());
  return v;
}

AllReducer make(AllReduceAlgo algo, std::size_t n, std::size_t streams) {
  return AllReducer(algo, sim::default_links(n), streams);
}

TEST(AllReduce, WeightedAverageNumerics) {
  auto replicas = random_replicas(3, 16, 1);
  auto expected = std::vector<double>(16, 0.0);
  const std::vector<double> weights{0.5, 0.3, 0.2};
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 16; ++j) {
      expected[j] += weights[i] * replicas[i][j];
    }
  }
  auto reducer = make(AllReduceAlgo::kRingMultiStream, 3, 3);
  auto views = views_of(replicas);
  reducer.weighted_average(views, weights);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 16; ++j) {
      EXPECT_NEAR(replicas[i][j], expected[j], 1e-5f);
    }
  }
}

TEST(AllReduce, AllAlgorithmsProduceIdenticalResults) {
  const std::vector<double> weights{0.4, 0.35, 0.15, 0.1};
  std::vector<std::vector<std::vector<float>>> copies;
  for (int i = 0; i < 3; ++i) copies.push_back(random_replicas(4, 64, 7));

  auto central = make(AllReduceAlgo::kCentral, 4, 1);
  auto tree = make(AllReduceAlgo::kTreeSingleStream, 4, 1);
  auto ring = make(AllReduceAlgo::kRingMultiStream, 4, 4);
  auto v0 = views_of(copies[0]);
  auto v1 = views_of(copies[1]);
  auto v2 = views_of(copies[2]);
  central.weighted_average(v0, weights);
  tree.weighted_average(v1, weights);
  ring.weighted_average(v2, weights);
  for (std::size_t j = 0; j < 64; ++j) {
    EXPECT_FLOAT_EQ(copies[0][0][j], copies[1][0][j]);
    EXPECT_FLOAT_EQ(copies[0][0][j], copies[2][0][j]);
  }
}

TEST(AllReduce, DenormalizedWeightsNotRenormalized) {
  // Algorithm 2's perturbed weights may sum != 1; the reducer must honor
  // them verbatim.
  auto replicas = random_replicas(2, 4, 3);
  std::vector<float> a = replicas[0], b = replicas[1];
  const std::vector<double> weights{1.1, 0.4};  // sums to 1.5
  auto reducer = make(AllReduceAlgo::kCentral, 2, 1);
  auto views = views_of(replicas);
  reducer.weighted_average(views, weights);
  for (std::size_t j = 0; j < 4; ++j) {
    EXPECT_NEAR(replicas[0][j], 1.1 * a[j] + 0.4 * b[j], 1e-5f);
  }
}

TEST(AllReduce, SingleReplicaNoCost) {
  auto reducer = make(AllReduceAlgo::kRingMultiStream, 1, 1);
  const auto cost = reducer.cost(1, 1 << 20);
  EXPECT_EQ(cost.seconds, 0.0);
  EXPECT_EQ(cost.bytes_moved, 0.0);
}

TEST(AllReduce, RingMultiStreamAtLeastTwiceTreeAtFourGpus) {
  // The Section IV claim: multi-stream ring merges the model at least 2x
  // faster than the single-stream (NCCL-style) tree.
  const std::size_t model_bytes = 5 * 1024 * 1024;  // ~1.3M params
  auto tree = make(AllReduceAlgo::kTreeSingleStream, 4, 1);
  auto ring = make(AllReduceAlgo::kRingMultiStream, 4, 4);
  const double t_tree = tree.cost(4, model_bytes).seconds;
  const double t_ring = ring.cost(4, model_bytes).seconds;
  EXPECT_GE(t_tree / t_ring, 2.0) << "tree=" << t_tree << " ring=" << t_ring;
}

TEST(AllReduce, SingleStreamRingSlowerThanTreeAtSmallBuffers) {
  // The paper also observes NCCL's tree wins on a single stream. In our
  // cost model that holds where the per-step overheads dominate (below a
  // few MB); at very large buffers the ring's lower data volume wins even
  // single-stream. See EXPERIMENTS.md for the honest-deviation note.
  const std::size_t model_bytes = 2 * 1024 * 1024;
  auto tree = make(AllReduceAlgo::kTreeSingleStream, 4, 1);
  auto ring1 = make(AllReduceAlgo::kRingMultiStream, 4, 1);
  EXPECT_GT(ring1.cost(4, model_bytes).seconds,
            tree.cost(4, model_bytes).seconds);
}

TEST(AllReduce, CentralSlowestOnBigBuffers) {
  // The host link is the bottleneck and it is shared by all GPUs.
  const std::size_t model_bytes = 16 * 1024 * 1024;
  auto central = make(AllReduceAlgo::kCentral, 4, 1);
  auto ring = make(AllReduceAlgo::kRingMultiStream, 4, 4);
  EXPECT_GT(central.cost(4, model_bytes).seconds,
            ring.cost(4, model_bytes).seconds);
}

TEST(AllReduce, MoreStreamsNeverSlower) {
  const std::size_t model_bytes = 8 * 1024 * 1024;
  double prev = 1e9;
  for (std::size_t streams : {1u, 2u, 4u}) {
    auto ring = make(AllReduceAlgo::kRingMultiStream, 4, streams);
    const double t = ring.cost(4, model_bytes).seconds;
    EXPECT_LE(t, prev * 1.0001) << streams << " streams";
    prev = t;
  }
}

TEST(AllReduce, CostGrowsWithBufferSize) {
  for (auto algo : {AllReduceAlgo::kCentral, AllReduceAlgo::kTreeSingleStream,
                    AllReduceAlgo::kRingMultiStream}) {
    auto reducer = make(algo, 4, 4);
    EXPECT_LT(reducer.cost(4, 1 << 16).seconds,
              reducer.cost(4, 1 << 24).seconds)
        << to_string(algo);
  }
}

TEST(AllReduce, CostGrowsWithGpuCountForRing) {
  auto links8 = sim::default_links(8);
  AllReducer r2(AllReduceAlgo::kRingMultiStream, links8, 4);
  EXPECT_LT(r2.cost(2, 1 << 22).seconds, r2.cost(8, 1 << 22).seconds);
}

TEST(AllReduce, BytesMovedAccounting) {
  const std::size_t bytes = 1 << 20;
  auto central = make(AllReduceAlgo::kCentral, 4, 1);
  EXPECT_NEAR(central.cost(4, bytes).bytes_moved, 2.0 * bytes * 4, 1.0);
  auto ring = make(AllReduceAlgo::kRingMultiStream, 4, 4);
  EXPECT_NEAR(ring.cost(4, bytes).bytes_moved, 2.0 * bytes * 3, 1.0);
}

TEST(AllReduce, StepCounts) {
  auto tree = make(AllReduceAlgo::kTreeSingleStream, 4, 1);
  EXPECT_EQ(tree.cost(4, 1 << 20).steps, 4u);  // 2*log2(4)
  auto ring = make(AllReduceAlgo::kRingMultiStream, 4, 4);
  EXPECT_EQ(ring.cost(4, 1 << 20).steps, 6u);  // 2*(n-1)
}

TEST(AllReduce, ToStringNames) {
  EXPECT_EQ(to_string(AllReduceAlgo::kCentral), "central");
  EXPECT_EQ(to_string(AllReduceAlgo::kTreeSingleStream), "tree-1stream");
  EXPECT_EQ(to_string(AllReduceAlgo::kRingMultiStream), "ring-multistream");
}

// The compressed-merge billing: a 32-byte header plus one fp32 scale per
// int8 group on top of the element bytes. It sets virtual_s for every
// compressed run, so the figures are pinned exactly.
TEST(WirePayload, PinnedBytesPerPrecision) {
  struct Case {
    MergePrecision precision;
    std::uint64_t groups, elems;
    double payload, metadata;
  };
  const Case cases[] = {
      {MergePrecision::kFp32, 3, 1300, 5200, 0},
      {MergePrecision::kFp16, 3, 1300, 2600, 32},
      {MergePrecision::kInt8, 3, 1300, 1300, 44},
      {MergePrecision::kFp32, 0, 0, 0, 0},
      {MergePrecision::kFp16, 0, 0, 0, 32},
      {MergePrecision::kInt8, 0, 0, 0, 32},
  };
  for (const auto& c : cases) {
    const auto w = wire_payload(c.precision, c.groups, c.elems);
    EXPECT_EQ(w.payload_bytes, c.payload) << precision_name(c.precision);
    EXPECT_EQ(w.metadata_bytes, c.metadata) << precision_name(c.precision);
    EXPECT_EQ(w.total(), c.payload + c.metadata);
  }
}

class GpuCountParam : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GpuCountParam, NumericResultIndependentOfAlgoAndCount) {
  const std::size_t n = GetParam();
  std::vector<double> weights(n, 1.0 / static_cast<double>(n));
  auto a = random_replicas(n, 32, 11);
  auto b = a;
  auto ring = make(AllReduceAlgo::kRingMultiStream, n, n);
  auto tree = make(AllReduceAlgo::kTreeSingleStream, n, 1);
  auto va = views_of(a);
  auto vb = views_of(b);
  ring.weighted_average(va, weights);
  tree.weighted_average(vb, weights);
  for (std::size_t g = 0; g < n; ++g) {
    for (std::size_t j = 0; j < 32; ++j) EXPECT_FLOAT_EQ(a[g][j], b[g][j]);
  }
}

INSTANTIATE_TEST_SUITE_P(Counts, GpuCountParam,
                         ::testing::Values(1, 2, 3, 4, 8));

}  // namespace
}  // namespace hetero::comm
