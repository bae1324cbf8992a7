#pragma once
// Irregular point-to-point communication patterns between GPUs.
//
// A CommPattern records, for every source GPU, how many bytes it must
// deliver to every destination GPU -- exactly the information induced by a
// distributed operation such as an SpMV (which off-GPU vector entries each
// GPU needs).  Strategies compile a CommPattern into an executable CommPlan;
// the analytic models consume its summary statistics (paper Table 7).
//
// Storage is one row per source GPU: its flows as a std::vector<GpuMessage>
// sorted by destination GPU, and its duplicate-data annotations as
// (node, bytes) pairs sorted by node.  add() keeps per-GPU send and receive
// totals current, so send_bytes() and recv_bytes() are O(1).  Readers get
// the rows as spans (sends_from, dedup_from); a span stays valid until the
// next add() or set_node_dedup() on that pattern.  There is no freeze
// step: const readers never mutate, so one const pattern may be read from
// many threads at once.

#include <cstdint>
#include <span>
#include <vector>

#include "hetsim/topology.hpp"

namespace hetcomm::core {

struct GpuMessage {
  int dst_gpu = -1;
  std::int64_t bytes = 0;  ///< total bytes across all logical messages
  int count = 1;           ///< number of logical messages in this flow
};

/// One duplicate-data annotation of a source GPU: of all bytes it sends to
/// GPUs on `node`, only `bytes` are distinct.
struct NodeDedup {
  int node = -1;
  std::int64_t bytes = 0;
};

class CommPattern {
 public:
  explicit CommPattern(int num_gpus);

  [[nodiscard]] int num_gpus() const noexcept {
    return static_cast<int>(sends_.size());
  }

  /// Record one logical message of `bytes` from src_gpu to dst_gpu.
  /// Repeated adds to the same pair accumulate bytes and multiplicity:
  /// node-aware strategies conglomerate them, while standard communication
  /// keeps them as distinct messages.  Self-messages are ignored (they
  /// never leave the device).  Zero-byte adds are ignored.
  void add(int src_gpu, int dst_gpu, std::int64_t bytes);

  /// Sends of one GPU, ordered by destination GPU.  Valid until the next
  /// add() on this pattern.
  [[nodiscard]] std::span<const GpuMessage> sends_from(int src_gpu) const;
  /// Receives of one GPU, ordered by source GPU.
  [[nodiscard]] std::vector<GpuMessage> recvs_to(int dst_gpu) const;

  [[nodiscard]] std::int64_t bytes(int src_gpu, int dst_gpu) const;
  [[nodiscard]] std::int64_t total_bytes() const noexcept { return total_bytes_; }
  [[nodiscard]] std::int64_t total_messages() const noexcept {
    return total_messages_;
  }

  /// Total bytes sent by one GPU / received by one GPU.
  [[nodiscard]] std::int64_t send_bytes(int src_gpu) const {
    check_gpu(src_gpu);
    return send_total_[static_cast<std::size_t>(src_gpu)];
  }
  [[nodiscard]] std::int64_t recv_bytes(int dst_gpu) const {
    check_gpu(dst_gpu);
    return recv_total_[static_cast<std::size_t>(dst_gpu)];
  }

  /// Restrict to message pairs crossing nodes (resp. staying on a node).
  [[nodiscard]] CommPattern internode_only(const Topology& topo) const;
  [[nodiscard]] CommPattern intranode_only(const Topology& topo) const;

  // ---- Duplicate-data annotations (paper §2.3, Figure 2.2 right) --------
  //
  // In workloads like SpMV, several GPUs on a destination node often need
  // the *same* source data: standard communication sends it once per
  // destination GPU, while node-aware strategies send each datum once per
  // destination node.  The deduplicated volume cannot be derived from the
  // GPU-to-GPU byte counts alone, so producers (e.g. the SpMV
  // communication-graph extractor) annotate it here.

  /// Record that of all bytes src_gpu sends to GPUs on dst_node, only
  /// `bytes` are distinct; a later call for the same pair replaces it.
  /// The pattern does not know the machine, so check_dedup() is what holds
  /// an annotation to its node range and its (src_gpu, dst_node) payload.
  void set_node_dedup(int src_gpu, int dst_node, std::int64_t bytes);
  /// Deduplicated volume for (src_gpu -> dst_node), or -1 when unknown.
  [[nodiscard]] std::int64_t node_dedup_bytes(int src_gpu,
                                              int dst_node) const;
  [[nodiscard]] bool has_dedup_info() const noexcept {
    return !dedup_.empty();
  }
  /// Dedup annotations of one GPU, ordered by node.  Valid until the next
  /// set_node_dedup() on this pattern.
  [[nodiscard]] std::span<const NodeDedup> dedup_from(int src_gpu) const;

 private:
  friend CommPattern random_pattern(const Topology& topo, int msgs_per_gpu,
                                    std::int64_t bytes, std::uint64_t seed);

  void check_gpu(int gpu) const;
  /// add(src_gpu, dst, bytes) for every dst of `dsts`, with add()'s checks,
  /// written in one pass into src_gpu's row, which must be empty; `dsts`
  /// must be in ascending order.
  void add_sorted(int src_gpu, std::span<const int> dsts, std::int64_t bytes);
  /// Throws std::invalid_argument unless `extra` more bytes keep payload
  /// plus dedup bytes within int64: every byte total derived from the
  /// pattern (per GPU, node or pair, with or without dedup) is at most
  /// that sum, so none of them can overflow.
  void check_room(std::int64_t extra) const;

  std::vector<std::vector<GpuMessage>> sends_;  ///< per source, by dst
  std::vector<std::int64_t> send_total_;        ///< per source GPU
  std::vector<std::int64_t> recv_total_;        ///< per destination GPU
  /// Per source GPU, by node; stays empty until the first annotation.
  std::vector<std::vector<NodeDedup>> dedup_;
  std::int64_t total_bytes_ = 0;
  std::int64_t dedup_bytes_ = 0;  ///< sum of annotated bytes
  std::int64_t total_messages_ = 0;
};

/// Calls `visit(dst_node, run)` for each run of `sends` (a sends_from()
/// row) toward one destination node, in ascending node order.  A row is
/// sorted by destination GPU and GPUs are numbered node-major, so each
/// node's flows are consecutive.
template <class Visit>
void for_each_dst_node(std::span<const GpuMessage> sends, int gpus_per_node,
                       Visit&& visit) {
  while (!sends.empty()) {
    const int node = sends.front().dst_gpu / gpus_per_node;
    std::size_t n = 1;
    while (n < sends.size() && sends[n].dst_gpu / gpus_per_node == node) ++n;
    visit(node, sends.first(n));
    sends = sends.subspan(n);
  }
}

/// Throws std::invalid_argument when a dedup annotation contradicts the
/// pattern on `topo`: a node outside [0, num_nodes), or more distinct bytes
/// than the (src_gpu, node) payload.  Call it where a pattern meets a
/// machine, once its GPU count is known to match, and before strategies or
/// models read the annotations.
void check_dedup(const CommPattern& pattern, const Topology& topo);

/// Summary statistics feeding the analytic models (paper Table 7 plus the
/// quantities needed by the standard max-rate model).  All values refer to
/// *inter-node* traffic unless suffixed otherwise.
struct PatternStats {
  std::int64_t s_proc = 0;       ///< max bytes sent inter-node by one GPU
  std::int64_t s_node = 0;       ///< max bytes injected by one node
  std::int64_t s_node_node = 0;  ///< max bytes between any node pair
  int m_proc = 0;                ///< max # inter-node messages by one GPU
  int m_proc_node = 0;           ///< max # destination nodes of one GPU
  int m_node_node = 0;           ///< max # messages between any node pair
  int num_internode_nodes = 0;   ///< max # destination nodes of one node
  /// Max over nodes of the number of GPUs holding inter-node data: the
  /// available parallelism for the split strategies' on-node distribution.
  int active_internode_gpus = 0;
  std::int64_t total_internode_bytes = 0;
  std::int64_t total_internode_messages = 0;
  /// Deduplicated (wire) counterparts: what a node-aware strategy actually
  /// injects after removing duplicate data.  Equal to the plain values when
  /// the pattern carries no dedup annotations.
  std::int64_t dedup_s_proc = 0;
  std::int64_t dedup_s_node = 0;
  std::int64_t dedup_s_node_node = 0;
  /// Typical inter-node message size under standard communication (used to
  /// pick the messaging protocol in the models); 0 when no traffic.
  std::int64_t typical_msg_bytes = 0;
};

[[nodiscard]] PatternStats compute_stats(const CommPattern& pattern,
                                         const Topology& topo);

/// Random irregular pattern generator: every GPU sends `msgs_per_gpu`
/// messages of `bytes` each to destinations drawn uniformly from the other
/// GPUs (deterministic for a fixed seed).  Useful for tests and synthetic
/// studies.
[[nodiscard]] CommPattern random_pattern(const Topology& topo,
                                         int msgs_per_gpu, std::int64_t bytes,
                                         std::uint64_t seed);

}  // namespace hetcomm::core
