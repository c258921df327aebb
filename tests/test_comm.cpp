#include "comm/allreduce.h"

#include <gtest/gtest.h>

#include "comm/quant.h"
#include "sim/profiles.h"

namespace hetero::comm {
namespace {

AllReducer make(AllReduceAlgo algo, std::size_t n, std::size_t streams) {
  return AllReducer(algo, sim::default_links(n), streams);
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

}  // namespace
}  // namespace hetero::comm
