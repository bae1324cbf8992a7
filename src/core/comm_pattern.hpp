#pragma once
// Irregular point-to-point communication patterns between GPUs.
//
// A CommPattern records, for every source GPU, how many bytes it must
// deliver to every destination GPU -- exactly the information induced by a
// distributed operation such as an SpMV (which off-GPU vector entries each
// GPU needs).  Strategies compile a CommPattern into an executable CommPlan;
// the analytic models consume its summary statistics (paper Table 7).

#include <cstdint>
#include <map>
#include <tuple>
#include <vector>

#include "hetsim/topology.hpp"

namespace hetcomm::core {

struct GpuMessage {
  int dst_gpu = -1;
  std::int64_t bytes = 0;  ///< total bytes across all logical messages
  int count = 1;           ///< number of logical messages in this flow
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

  /// Sends of one GPU, ordered by destination GPU.
  [[nodiscard]] std::vector<GpuMessage> sends_from(int src_gpu) const;
  /// Receives of one GPU, ordered by source GPU.
  [[nodiscard]] std::vector<GpuMessage> recvs_to(int dst_gpu) const;

  [[nodiscard]] std::int64_t bytes(int src_gpu, int dst_gpu) const;
  [[nodiscard]] std::int64_t total_bytes() const noexcept { return total_bytes_; }
  [[nodiscard]] std::int64_t total_messages() const noexcept {
    return total_messages_;
  }

  /// Total bytes sent by one GPU / received by one GPU.
  [[nodiscard]] std::int64_t send_bytes(int src_gpu) const;
  [[nodiscard]] std::int64_t recv_bytes(int dst_gpu) const;

  /// Restrict to message pairs crossing nodes (resp. staying on a node).
  [[nodiscard]] CommPattern internode_only(const Topology& topo) const;
  [[nodiscard]] CommPattern intranode_only(const Topology& topo) const;

  /// Scale every message size by `factor` (e.g. 0.75 models 25 % duplicate
  /// data removed by a node-aware scheme); sizes round up to >= 1 byte for
  /// nonzero messages.  Deduplication info is not carried over.
  [[nodiscard]] CommPattern scaled(double factor) const;

  // ---- Duplicate-data annotations (paper §2.3, Figure 2.2 right) --------
  //
  // In workloads like SpMV, several GPUs on a destination node often need
  // the *same* source data: standard communication sends it once per
  // destination GPU, while node-aware strategies send each datum once per
  // destination node.  The deduplicated volume cannot be derived from the
  // GPU-to-GPU byte counts alone, so producers (e.g. the SpMV
  // communication-graph extractor) annotate it here.

  /// Record that of all bytes src_gpu sends to GPUs on dst_node, only
  /// `bytes` are distinct.  Must not exceed the summed per-GPU bytes.
  void set_node_dedup(int src_gpu, int dst_node, std::int64_t bytes);
  /// Deduplicated volume for (src_gpu -> dst_node), or -1 when unknown.
  [[nodiscard]] std::int64_t node_dedup_bytes(int src_gpu,
                                              int dst_node) const;
  [[nodiscard]] bool has_dedup_info() const noexcept {
    return !node_dedup_.empty();
  }
  /// All dedup annotations as (src_gpu, dst_node, bytes) tuples.
  [[nodiscard]] std::vector<std::tuple<int, int, std::int64_t>>
  node_dedup_entries() const;

 private:
  void check_gpu(int gpu) const;
  /// Throws std::invalid_argument unless `extra` more bytes keep payload
  /// plus dedup bytes within int64: every byte total derived from the
  /// pattern (per GPU, node or pair, with or without dedup) is at most
  /// that sum, so none of them can overflow.
  void check_room(std::int64_t extra) const;

  struct Cell {
    std::int64_t bytes = 0;
    int count = 0;
  };
  // sends_[src] maps dst -> flow (ordered map keeps iteration deterministic)
  std::vector<std::map<int, Cell>> sends_;
  // (src_gpu, dst_node) -> deduplicated bytes
  std::map<std::pair<int, int>, std::int64_t> node_dedup_;
  std::int64_t total_bytes_ = 0;
  std::int64_t dedup_bytes_ = 0;  ///< sum of node_dedup_ values
  std::int64_t total_messages_ = 0;
};

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
