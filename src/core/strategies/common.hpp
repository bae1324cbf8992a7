#pragma once
// Internal helpers shared by the strategy plan builders.
//
// Lowering allocates per phase, not per flow: node-pair traffic keeps every
// flow in one array, and a NodePair names its flows by offset and count.
// A struct never stores a span or pointer into a vector it owns (a copy
// would point into the original's storage); readers ask the owner for a
// view (NodeTraffic::flows_of) when they need one.

#include <cstdint>
#include <span>
#include <vector>

#include "core/comm_pattern.hpp"
#include "core/plan.hpp"
#include "hetsim/topology.hpp"

namespace hetcomm::core::detail {

// Tag bases; each phase allocates tags from its own range so FIFO matching
// within a phase stays unambiguous even for repeated rank pairs.
inline constexpr int kTagLocal = 1'000'000;
inline constexpr int kTagGather = 2'000'000;
inline constexpr int kTagGlobal = 3'000'000;
inline constexpr int kTagRedist = 4'000'000;
inline constexpr int kTagScatter = 5'000'000;
inline constexpr int kTagStandard = 6'000'000;

/// One GPU-to-GPU flow crossing a given node pair.
///
/// `bytes` is the payload the destination GPU must end up with; `wire_bytes`
/// is this flow's share of the *deduplicated* volume that actually crosses
/// the network under a node-aware strategy (<= bytes; equal when the pattern
/// carries no dedup annotations).  Standard communication always sends the
/// full payload per destination GPU -- that is its data redundancy.
struct Flow {
  int src_gpu = -1;
  int dst_gpu = -1;
  std::int64_t bytes = 0;
  std::int64_t wire_bytes = 0;
};

/// The inter-node flows from one node to another, with the sum of their
/// wire bytes.  Its flows are NodeTraffic::flows[first_flow ..
/// first_flow + num_flows), in (src_gpu, dst_gpu) order.
struct NodePair {
  int src_node = -1;
  int dst_node = -1;
  std::int64_t wire_bytes = 0;
  std::uint32_t first_flow = 0;
  std::uint32_t num_flows = 0;
};

/// All inter-node traffic: one entry per communicating node pair, in
/// (src_node, dst_node) order, and every pair's flows in one array, pair
/// after pair.
struct NodeTraffic {
  std::vector<NodePair> pairs;
  std::vector<Flow> flows;

  [[nodiscard]] std::span<const Flow> flows_of(const NodePair& pair) const {
    return {flows.data() + pair.first_flow, pair.num_flows};
  }
};

[[nodiscard]] NodeTraffic internode_traffic(const CommPattern& pattern,
                                            const Topology& topo);

/// Bytes of one GPU: a term of a per-GPU sum.
struct GpuBytes {
  int gpu = -1;
  std::int64_t bytes = 0;
};

/// Sum `parts` by GPU in place: afterwards its first n entries, n returned,
/// hold one entry per GPU, in ascending GPU order (the order the builders
/// emit per-GPU ops in).  Zero sums stay.
[[nodiscard]] std::size_t sum_by_gpu(std::span<GpuBytes> parts);

/// Sending leader on `src_node` for traffic toward `dst_node`: the host
/// rank owning local GPU (dst_node mod gpus-per-node).  Distinct
/// destination nodes rotate over the node's GPU owners so every process
/// stays active (paper §2.3.1).
[[nodiscard]] int send_leader(const Topology& topo, int src_node,
                              int dst_node);

/// Receiving leader on `dst_node` for traffic from `src_node`.
[[nodiscard]] int recv_leader(const Topology& topo, int dst_node,
                              int src_node);

/// The 2-step pair of `src_gpu` on `dst_node`: owner of the GPU with the
/// same local index.
[[nodiscard]] int paired_rank(const Topology& topo, int src_gpu,
                              int dst_node);

/// Append the direct on-node exchanges (owner-to-owner) for all intra-node
/// flows of `pattern`; used identically by every strategy.
void append_local_phase(CommPlan& plan, const CommPattern& pattern,
                        const Topology& topo, MemSpace space);

/// Append per-GPU-owner D2H (of total sent bytes) or H2D (of total received
/// bytes) staging copies.
void append_owner_copies(CommPlan& plan, const CommPattern& pattern,
                         const Topology& topo, CopyDir dir,
                         const char* label);

/// D2H staging copies for node-aware staged strategies: each owner copies
/// its intra-node payload plus its *deduplicated* inter-node volume (a
/// node-aware send buffer holds each datum once per destination node).
void append_dedup_d2h_copies(CommPlan& plan, const CommPattern& pattern,
                             const Topology& topo, const char* label);

/// Deduplicated inter-node send volume of one GPU (sum over destination
/// nodes of the dedup annotation, falling back to the payload sum).
[[nodiscard]] std::int64_t dedup_send_bytes(const CommPattern& pattern,
                                            const Topology& topo, int gpu);

/// Bytes one GPU sends to the other GPUs on its own node.
[[nodiscard]] std::int64_t intra_send_bytes(const CommPattern& pattern,
                                            const Topology& topo, int gpu);

}  // namespace hetcomm::core::detail
