#pragma once
// Setup for split node-aware communication (paper Algorithm 1).
//
// Inter-node traffic is conglomerated per (source node, destination node)
// pair, then split into chunks no larger than an effective message cap and
// assigned to on-node sender/receiver processes so that every process stays
// active:
//   * If the largest per-node receive volume is below the user cap, each
//     node pair exchanges a single conglomerated message (lines 12-13).
//   * Otherwise the cap is raised to ceil(total inter-node receive volume /
//     PPN) when that is larger, so at most PPN chunks arrive per node
//     (lines 14-17).
//   * Receive chunks are assigned in descending size order starting at
//     local rank 0; send chunks in descending order starting at local rank
//     PPN-1 (line 18).
//
// A setup allocates per call, not per chunk: every chunk's slices live in
// one SplitSetup::slices array, appended as chunks are cut, and a chunk
// names its slices by offset and count.  Nothing stores a span or pointer
// into the setup's own vectors, so a copied setup stays self-contained;
// SplitSetup::slices_of gives a view on demand.

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "core/comm_pattern.hpp"
#include "hetsim/topology.hpp"

namespace hetcomm::core {

/// A contiguous byte range of one GPU-to-GPU flow carried inside a chunk.
/// `bytes` is the share of the deduplicated (wire) volume carried across
/// the network; `payload_bytes` is the share of the full payload the
/// destination GPU must receive after on-node redistribution (equal when
/// the pattern has no duplicate-data annotations).
struct FlowSlice {
  int src_gpu = -1;
  int dst_gpu = -1;
  std::int64_t bytes = 0;
  std::int64_t payload_bytes = 0;
};

/// One inter-node message of the split scheme.  Its slices are
/// SplitSetup::slices[first_slice .. first_slice + num_slices).
struct SplitChunk {
  int src_node = -1;
  int dst_node = -1;
  std::int64_t bytes = 0;  ///< wire bytes crossing the network
  std::uint32_t first_slice = 0;
  std::uint32_t num_slices = 0;
  int send_rank = -1;  ///< world host rank injecting this chunk
  int recv_rank = -1;  ///< world host rank receiving this chunk
};

/// Per-receiving-node parameters of Table 1.
struct SplitNodeInfo {
  std::int64_t total_in_recv_vol = 0;  ///< total_IN_recv_vol
  std::int64_t max_in_recv_size = 0;   ///< max_IN_recv_size
  int num_in_nodes = 0;                ///< num_IN_nodes
  std::int64_t effective_cap = 0;      ///< cap actually used for splitting
};

struct SplitSetup {
  std::vector<SplitChunk> chunks;
  std::vector<FlowSlice> slices;  ///< every chunk's slices, chunk after chunk
  std::map<int, SplitNodeInfo> node_info;  ///< keyed by receiving node

  /// The slices one chunk of this setup carries.
  [[nodiscard]] std::span<const FlowSlice> slices_of(
      const SplitChunk& chunk) const {
    return {slices.data() + chunk.first_slice, chunk.num_slices};
  }

  /// Chunks received by / sent from one node, in assignment order.
  [[nodiscard]] std::vector<const SplitChunk*> recv_chunks(int node) const;
  [[nodiscard]] std::vector<const SplitChunk*> send_chunks(int node) const;
};

/// Run Algorithm 1 on the inter-node part of `pattern`.
/// `message_cap` <= 0 is invalid (callers resolve the machine default
/// first).
[[nodiscard]] SplitSetup split_setup(const CommPattern& pattern,
                                     const Topology& topo,
                                     std::int64_t message_cap);

}  // namespace hetcomm::core
