// Weighted all-reduce for model merging (Section IV, "All-reduce Model
// Merging").
//
// The paper implements specialized tree- and ring-based *multi-stream*
// all-reduce aggregation because NCCL either lacks multi-stream support
// (no transfer/compute overlap) or targets multi-server topologies. Three
// algorithms are provided here:
//
//   kCentral          — every GPU ships its replica to the host, the host
//                       reduces and broadcasts back (parameter-server style;
//                       this is what TensorFlow central-storage does).
//   kTreeSingleStream — log2(n) pairwise reduce rounds + log2(n) broadcast
//                       rounds, full buffer per round, one stream.
//   kRingMultiStream  — the paper's method: the model is split into
//                       `num_streams` partitions, each partition runs a
//                       ring reduce-scatter + all-gather on its own stream
//                       *starting from a different GPU*, so concurrent
//                       streams always occupy distinct links and transfer
//                       overlaps reduction compute completely. With
//                       num_streams == 1 this degrades to the classic
//                       single-stream ring.
//
// Every algorithm computes the same numeric result:
//     out = sum_i weights[i] * replica_i           (then copied to all)
// so algorithm choice only affects the virtual-time cost — mirroring the
// paper, where the merging math is fixed and the all-reduce implementation
// is a performance decision. The returned cost is derived from the
// sim::LinkModel and device reduce throughput.
//
// Determinism contract: the reduction accumulates in double precision over
// replicas in index order (replica 0 initializes the accumulator), one
// element at a time. Sharding the element space — across streams or across
// ThreadPool workers — partitions elements without reordering the
// per-element sum, so every stream/thread/shard count produces bit-identical
// results.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "sim/link_model.h"
#include "sim/virtual_gpu.h"
#include "util/kernel_context.h"

namespace hetero::comm {

enum class AllReduceAlgo { kCentral, kTreeSingleStream, kRingMultiStream };

std::string to_string(AllReduceAlgo algo);

struct AllReduceCost {
  double seconds = 0.0;        // virtual wall-clock of the collective
  double bytes_moved = 0.0;    // total bytes crossing any link
  std::size_t steps = 0;       // number of communication steps (per stream)
  // Element data the collective was charged for: the full model in dense
  // merges, the touched-row delta in sparse merges — rows x hidden x
  // element size, where the element size depends on the merge precision
  // (4 bytes fp32, 2 fp16, 1 int8). Diagnostic for benches/tests; seconds
  // already reflects it.
  double payload_bytes = 0.0;
  // Everything on the wire: payload_bytes plus compression metadata
  // (per-group scales, header, loss scale). Equal to payload_bytes for
  // uncompressed merges. seconds/bytes_moved are derived from this total,
  // so compression metadata is billed honestly.
  double wire_bytes = 0.0;
};

/// Bytes-on-wire description of one merge transfer. Splitting element data
/// from metadata lets payload_bytes record the pure element-size reduction
/// (4x for int8, 2x for fp16) while the simulated transfer still pays for
/// the scales it ships.
struct WirePayload {
  double payload_bytes = 0.0;   // element data: elems x element size
  double metadata_bytes = 0.0;  // scales + header + loss scale
  double total() const { return payload_bytes + metadata_bytes; }
};

/// One replica's parameters as an ordered list of in-place tensor views
/// (e.g. the W1/b1/W2/b2 segments of a one-hidden-layer
/// nn::Model::segment_views()).
/// Segment k must have the same length on every replica; concatenating the
/// segments defines the flat reduction index space.
using SegmentedView = std::vector<std::span<float>>;

class AllReducer {
 public:
  AllReducer(AllReduceAlgo algo, sim::LinkModel links,
             std::size_t num_streams);

  /// Numerically merges the replicas in-place: every replica ends holding
  /// sum_i weights[i] * replica_i. Weights are NOT renormalized here — the
  /// perturbed weights of Algorithm 2 may deliberately sum to != 1.
  ///
  /// Returns the virtual cost for `num_replicas` GPUs holding buffers of
  /// the given size. Cost does not depend on the weights.
  AllReduceCost weighted_average(std::vector<std::span<float>> replicas,
                                 std::span<const double> weights,
                                 const kernels::Context& ctx = {}) const;

  /// Zero-copy segmented variant: merges each replica's segments in place
  /// (no flattening copies). The flat index space is partitioned into at
  /// least num_streams() shards — mirroring the paper's multi-stream
  /// partitions — and shards are reduced on the ctx thread pool. Per the
  /// determinism contract above, the result is bit-identical to the serial
  /// single-shard reduction for any shard/thread count.
  AllReduceCost weighted_average_segments(
      std::span<const SegmentedView> replicas, std::span<const double> weights,
      const kernels::Context& ctx = {}) const;

  /// Cost-only query (used by benches sweeping buffer sizes without data).
  /// Under elastic membership the caller passes the ALIVE replica count:
  /// the ring/tree cost model re-derives its step count over the degraded
  /// topology, so losing a device also shrinks the collective.
  AllReduceCost cost(std::size_t num_replicas, std::size_t buffer_bytes,
                     double reduce_gbs = 300.0) const;

  /// Compressed-payload variant: the transfer (and the fractional ring
  /// chunks) is billed at wire.total() bytes, while the returned
  /// payload_bytes records only the element data — so a fp16/int8 merge
  /// shows the exact 2x/4x element reduction and still pays for its scale
  /// metadata. The plain-size overload is equivalent to a WirePayload with
  /// zero metadata.
  AllReduceCost cost(std::size_t num_replicas, const WirePayload& wire,
                     double reduce_gbs = 300.0) const;

  /// Topology-aware cost for the named participant ranks. When every rank
  /// lives on one node this is the flat single-level collective over the
  /// ranks' actual links (bit-identical to the scalar overload on an
  /// all-peer single-node topology). When ranks span nodes the merge is
  /// two-level: the configured algorithm within each node (over peer/host
  /// links, slowest node paces the phase), a chunked inter-node ring over
  /// one leader rank per node (network links), then an intra-node broadcast
  /// of the result. The merged *values* are identical either way — only the
  /// virtual-time cost reflects the hierarchy.
  AllReduceCost cost(std::span<const std::size_t> ranks,
                     const WirePayload& wire,
                     double reduce_gbs = 300.0) const;

  AllReduceAlgo algo() const { return algo_; }
  std::size_t num_streams() const { return num_streams_; }

 private:
  /// Flat (single-level) collective over the given ranks' actual links.
  AllReduceCost single_level_cost(std::span<const std::size_t> ranks,
                                  const WirePayload& wire,
                                  double reduce_gbs) const;

  AllReduceAlgo algo_;
  sim::LinkModel links_;
  std::size_t num_streams_;
};

}  // namespace hetero::comm
