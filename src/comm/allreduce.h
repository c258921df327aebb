// All-reduce cost model for model merging (Section IV, "All-reduce Model
// Merging").
//
// The paper implements specialized tree- and ring-based *multi-stream*
// all-reduce aggregation because NCCL either lacks multi-stream support
// (no transfer/compute overlap) or targets multi-server topologies. Three
// algorithms are modelled here:
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
// The three differ only in cost: in the paper the merging math is fixed and
// the all-reduce implementation is a performance decision. AllReducer
// therefore prices a merge — virtual seconds from the sim::LinkModel and
// device reduce throughput, plus bytes and steps — and core/merging computes
// the merged values, sum_i weights[i] * replica_i, in fused sharded kernels
// that are bit-identical at any stream, shard or thread count.
#pragma once

#include <cstddef>
#include <span>
#include <string>

#include "sim/link_model.h"

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

class AllReducer {
 public:
  AllReducer(AllReduceAlgo algo, sim::LinkModel links,
             std::size_t num_streams);

  /// Cost of merging `num_replicas` buffers of `buffer_bytes` each.
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
  /// of the result. Only the cost reflects the hierarchy; the merged values
  /// (core/merging) do not depend on it.
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
