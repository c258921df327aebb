#include "comm/allreduce.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "comm/collectives.h"

namespace hetero::comm {

std::string to_string(AllReduceAlgo algo) {
  switch (algo) {
    case AllReduceAlgo::kCentral:
      return "central";
    case AllReduceAlgo::kTreeSingleStream:
      return "tree-1stream";
    case AllReduceAlgo::kRingMultiStream:
      return "ring-multistream";
  }
  return "?";
}

AllReducer::AllReducer(AllReduceAlgo algo, sim::LinkModel links,
                       std::size_t num_streams)
    : algo_(algo), links_(std::move(links)),
      num_streams_(std::max<std::size_t>(1, num_streams)) {}

AllReduceCost AllReducer::cost(std::size_t num_replicas,
                               std::size_t buffer_bytes,
                               double reduce_gbs) const {
  return cost(num_replicas,
              WirePayload{static_cast<double>(buffer_bytes), 0.0},
              reduce_gbs);
}

AllReduceCost AllReducer::cost(std::size_t num_replicas,
                               const WirePayload& wire,
                               double reduce_gbs) const {
  const sim::Topology& topo = links_.topology();
  if (!topo.single_node() || topo.cpu_replicas() > 0) {
    // Non-trivial topology: name the first num_replicas ranks explicitly so
    // hops are billed on the links they actually ride.
    std::vector<std::size_t> ranks(
        std::min(num_replicas, links_.num_devices()));
    std::iota(ranks.begin(), ranks.end(), std::size_t{0});
    return cost(ranks, wire, reduce_gbs);
  }
  AllReduceCost out;
  out.payload_bytes = wire.payload_bytes;
  out.wire_bytes = wire.total();
  const auto n = num_replicas;
  if (n <= 1) return out;
  // Transfer/reduce time is driven by everything on the wire — element
  // data plus compression metadata.
  const double bytes = wire.total();
  const auto buffer_bytes = static_cast<std::size_t>(bytes);
  // Reduction compute: read two operands, write one (3x traffic).
  const auto reduce_seconds = [&](double b) {
    return 3.0 * b / (reduce_gbs * 1e9);
  };
  // Launching the per-step reduction kernel costs a fixed overhead that does
  // not overlap even in multi-stream mode; this is what makes the naive
  // single-stream ring lose to the pipelined tree (Section IV observation).
  constexpr double kReduceLaunchSeconds = 15e-6;
  const double step_latency = links_.peer().latency_us * 1e-6;

  switch (algo_) {
    case AllReduceAlgo::kCentral: {
      // n GPUs -> host (sharing the host link), host reduce, host -> n GPUs.
      const double up = links_.transfer_seconds(buffer_bytes,
                                                /*src=*/0, sim::LinkModel::kHost,
                                                /*concurrent=*/n);
      const double down = links_.transfer_seconds(buffer_bytes,
                                                  sim::LinkModel::kHost, 0, n);
      const double host_reduce =
          reduce_seconds(bytes) * static_cast<double>(n - 1);
      out.seconds = up + host_reduce + down;
      out.bytes_moved = 2.0 * bytes * static_cast<double>(n);
      out.steps = 2;
      break;
    }
    case AllReduceAlgo::kTreeSingleStream: {
      // NCCL-style pipelined tree: the buffer is chunked and streamed up the
      // reduce tree and back down the broadcast tree, so the full buffer
      // crosses a link twice (up + down) with the reduction pipelined behind
      // the transfer; each of the 2*ceil(log2 n) rounds adds one hop
      // latency. This is the "more efficient on a single stream"
      // implementation the paper compares against.
      const auto rounds = static_cast<std::size_t>(
          std::ceil(std::log2(static_cast<double>(n))));
      const double xfer = links_.transfer_seconds(buffer_bytes, 0, 1, 1);
      out.seconds = 2.0 * xfer + reduce_seconds(bytes) +
                    static_cast<double>(2 * rounds - 2) * step_latency;
      out.bytes_moved = 2.0 * bytes * static_cast<double>(n - 1);
      out.steps = 2 * rounds;
      break;
    }
    case AllReduceAlgo::kRingMultiStream: {
      // P partitions of size bytes/P; each runs ring reduce-scatter +
      // all-gather: 2(n-1) steps of chunks sized (bytes/P)/n. Streams start
      // at distinct GPUs, so at any step concurrent streams occupy distinct
      // links (no bandwidth sharing) and the reduction compute overlaps the
      // transfer. With P == 1 the reduce serializes with the transfer
      // (classic single-stream ring). The per-step reduce-kernel launch
      // never overlaps.
      const std::size_t p = num_streams_;
      const double chunk = bytes / static_cast<double>(p) /
                           static_cast<double>(n);
      // Fractional chunk: truncating to whole bytes underbilled small
      // buffers at high stream counts (sub-byte chunks charged latency
      // only), which matters once delta merges shrink the payload.
      const double xfer = links_.transfer_seconds_frac(chunk, 0, 1, 1);
      const double red = reduce_seconds(chunk);
      // Reduce-scatter steps pay the reduction; all-gather steps only
      // forward shards. Every step launches a kernel (reduce or copy).
      const double rs_step = (p > 1 ? std::max(xfer, red) : xfer + red) +
                             kReduceLaunchSeconds;
      const double ag_step = xfer + kReduceLaunchSeconds;
      out.seconds = static_cast<double>(n - 1) * (rs_step + ag_step);
      out.bytes_moved = 2.0 * bytes * static_cast<double>(n - 1);
      out.steps = 2 * (n - 1);
      break;
    }
  }
  return out;
}

namespace {

// Slowest hop of the ring ranks[0] -> ranks[1] -> ... -> ranks[0]: ring
// steps are synchronous, so every step is paced by its worst link.
double worst_ring_hop_frac(const sim::LinkModel& links,
                           std::span<const std::size_t> ranks, double bytes) {
  double worst = 0.0;
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    const int src = static_cast<int>(ranks[i]);
    const int dst = static_cast<int>(ranks[(i + 1) % ranks.size()]);
    worst = std::max(worst, links.transfer_seconds_frac(bytes, src, dst, 1));
  }
  return worst;
}

// Worst full-buffer transfer among participant pairs (tree rounds pair
// arbitrary participants; the slowest pair paces a pipelined round).
double worst_pair_xfer(const sim::LinkModel& links,
                       std::span<const std::size_t> ranks,
                       std::size_t bytes) {
  double worst = 0.0;
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    for (std::size_t j = i + 1; j < ranks.size(); ++j) {
      worst = std::max(worst,
                       links.transfer_seconds(bytes, static_cast<int>(ranks[i]),
                                              static_cast<int>(ranks[j]), 1));
    }
  }
  return worst;
}

double worst_pair_latency(const sim::LinkModel& links,
                          std::span<const std::size_t> ranks) {
  double worst = 0.0;
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    for (std::size_t j = i + 1; j < ranks.size(); ++j) {
      const auto& link = links.link_for(static_cast<int>(ranks[i]),
                                        static_cast<int>(ranks[j]));
      worst = std::max(worst, link.latency_us * 1e-6);
    }
  }
  return worst;
}

}  // namespace

AllReduceCost AllReducer::single_level_cost(std::span<const std::size_t> ranks,
                                            const WirePayload& wire,
                                            double reduce_gbs) const {
  AllReduceCost out;
  out.payload_bytes = wire.payload_bytes;
  out.wire_bytes = wire.total();
  const std::size_t n = ranks.size();
  if (n <= 1) return out;
  const double bytes = wire.total();
  const auto buffer_bytes = static_cast<std::size_t>(bytes);
  const auto reduce_seconds = [&](double b) {
    return 3.0 * b / (reduce_gbs * 1e9);
  };
  constexpr double kReduceLaunchSeconds = 15e-6;
  // On an all-peer node this equals the peer latency — the scalar-overload
  // arithmetic exactly; a CPU replica in the group drags rounds to the
  // host-link latency.
  const double step_latency = worst_pair_latency(links_, ranks);

  switch (algo_) {
    case AllReduceAlgo::kCentral: {
      const double up =
          links_.transfer_seconds(buffer_bytes, static_cast<int>(ranks[0]),
                                  sim::LinkModel::kHost, n);
      const double down = links_.transfer_seconds(
          buffer_bytes, sim::LinkModel::kHost, static_cast<int>(ranks[0]), n);
      const double host_reduce =
          reduce_seconds(bytes) * static_cast<double>(n - 1);
      out.seconds = up + host_reduce + down;
      out.bytes_moved = 2.0 * bytes * static_cast<double>(n);
      out.steps = 2;
      break;
    }
    case AllReduceAlgo::kTreeSingleStream: {
      const auto rounds = static_cast<std::size_t>(
          std::ceil(std::log2(static_cast<double>(n))));
      const double xfer = worst_pair_xfer(links_, ranks, buffer_bytes);
      out.seconds = 2.0 * xfer + reduce_seconds(bytes) +
                    static_cast<double>(2 * rounds - 2) * step_latency;
      out.bytes_moved = 2.0 * bytes * static_cast<double>(n - 1);
      out.steps = 2 * rounds;
      break;
    }
    case AllReduceAlgo::kRingMultiStream: {
      const std::size_t p = num_streams_;
      const double chunk = bytes / static_cast<double>(p) /
                           static_cast<double>(n);
      const double xfer = worst_ring_hop_frac(links_, ranks, chunk);
      const double red = reduce_seconds(chunk);
      const double rs_step = (p > 1 ? std::max(xfer, red) : xfer + red) +
                             kReduceLaunchSeconds;
      const double ag_step = xfer + kReduceLaunchSeconds;
      out.seconds = static_cast<double>(n - 1) * (rs_step + ag_step);
      out.bytes_moved = 2.0 * bytes * static_cast<double>(n - 1);
      out.steps = 2 * (n - 1);
      break;
    }
  }
  return out;
}

AllReduceCost AllReducer::cost(std::span<const std::size_t> ranks,
                               const WirePayload& wire,
                               double reduce_gbs) const {
  const sim::Topology& topo = links_.topology();
  const std::vector<std::size_t> rank_vec(ranks.begin(), ranks.end());
  const auto groups = topo.group_by_node(rank_vec);
  if (groups.size() <= 1) return single_level_cost(ranks, wire, reduce_gbs);

  // Two-level merge: (1) the configured algorithm within each node — nodes
  // run concurrently, the slowest paces the phase; (2) a chunked ring over
  // one leader rank per node, riding the network links (the fbcollective
  // allreduce_ring_chunked shape: reduce-scatter + all-gather on
  // bytes/(streams*nodes) chunks); (3) leaders broadcast the merged model
  // within their node. The merged values are the flat weighted sum either
  // way — hierarchy only changes where the bytes travel.
  AllReduceCost out;
  out.payload_bytes = wire.payload_bytes;
  out.wire_bytes = wire.total();
  const double bytes = wire.total();
  const auto reduce_secs = [&](double b) {
    return 3.0 * b / (reduce_gbs * 1e9);
  };
  constexpr double kReduceLaunchSeconds = 15e-6;

  double intra_seconds = 0.0;
  std::size_t intra_steps = 0;
  std::size_t largest_group = 1;
  for (const auto& g : groups) {
    largest_group = std::max(largest_group, g.size());
    if (g.size() <= 1) continue;
    const AllReduceCost c = single_level_cost(g, wire, reduce_gbs);
    intra_seconds = std::max(intra_seconds, c.seconds);
    intra_steps = std::max(intra_steps, c.steps);
    out.bytes_moved += c.bytes_moved;
  }

  std::vector<std::size_t> leaders;
  leaders.reserve(groups.size());
  for (const auto& g : groups) leaders.push_back(g.front());
  const std::size_t nodes = leaders.size();
  const double chunk = bytes / static_cast<double>(num_streams_) /
                       static_cast<double>(nodes);
  const double hop = worst_ring_hop_frac(links_, leaders, chunk);
  const double red = reduce_secs(chunk);
  const double rs_step =
      (num_streams_ > 1 ? std::max(hop, red) : hop + red) +
      kReduceLaunchSeconds;
  const double ag_step = hop + kReduceLaunchSeconds;
  const double inter_seconds =
      static_cast<double>(nodes - 1) * (rs_step + ag_step);
  out.bytes_moved += 2.0 * bytes * static_cast<double>(nodes - 1);

  double bcast_seconds = 0.0;
  for (const auto& g : groups) {
    if (g.size() <= 1) continue;
    CollectiveParams p;
    p.bytes = static_cast<std::size_t>(bytes);
    p.ranks = g;
    bcast_seconds = std::max(bcast_seconds, broadcast_seconds(links_, p));
    out.bytes_moved += bytes * static_cast<double>(g.size() - 1);
  }

  out.seconds = intra_seconds + inter_seconds + bcast_seconds;
  out.steps = intra_steps + 2 * (nodes - 1) +
              static_cast<std::size_t>(std::ceil(
                  std::log2(static_cast<double>(largest_group))));
  return out;
}

}  // namespace hetero::comm
