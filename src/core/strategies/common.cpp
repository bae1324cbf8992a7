#include "core/strategies/common.hpp"

#include <algorithm>
#include <span>

namespace hetcomm::core::detail {

NodeTraffic internode_traffic(const CommPattern& pattern,
                              const Topology& topo) {
  const int gpn = topo.gpn();
  NodeTraffic traffic;
  // The current source node's pairs, indexed by destination node.
  std::vector<NodePair> to(static_cast<std::size_t>(topo.num_nodes()));
  for (int src_node = 0; src_node < topo.num_nodes(); ++src_node) {
    for (int src = src_node * gpn; src < (src_node + 1) * gpn; ++src) {
      for_each_dst_node(pattern.sends_from(src), gpn, [&](
          int dst_node, std::span<const GpuMessage> run) {
        if (dst_node == src_node) return;
        NodePair& pair = to[static_cast<std::size_t>(dst_node)];
        const std::size_t begin = pair.flows.size();
        std::int64_t payload = 0;
        for (const GpuMessage& m : run) {
          pair.flows.push_back({src, m.dst_gpu, m.bytes, m.bytes});
          payload += m.bytes;
        }
        // Spread the deduplicated per-node volume proportionally over the
        // flows toward that node; the last flow takes the remainder.
        const std::int64_t dedup = pattern.node_dedup_bytes(src, dst_node);
        if (dedup >= 0) {
          std::int64_t assigned = 0;
          for (std::size_t i = begin; i < pair.flows.size(); ++i) {
            Flow& f = pair.flows[i];
            if (i + 1 == pair.flows.size()) {
              f.wire_bytes = dedup - assigned;
            } else {
              f.wire_bytes = payload > 0 ? dedup * f.bytes / payload : 0;
            }
            assigned += f.wire_bytes;
          }
        }
        pair.wire_bytes += dedup >= 0 ? dedup : payload;
      });
    }
    for (std::size_t d = 0; d < to.size(); ++d) {
      if (to[d].flows.empty()) continue;
      to[d].src_node = src_node;
      to[d].dst_node = static_cast<int>(d);
      traffic.push_back(std::move(to[d]));
      to[d] = NodePair{};
    }
  }
  return traffic;
}

void sum_by_gpu(std::vector<GpuBytes>& parts) {
  const auto by_gpu = [](const GpuBytes& a, const GpuBytes& b) {
    return a.gpu < b.gpu;
  };
  if (!std::is_sorted(parts.begin(), parts.end(), by_gpu)) {
    std::sort(parts.begin(), parts.end(), by_gpu);
  }
  std::size_t out = 0;
  for (const GpuBytes& p : parts) {
    if (out > 0 && parts[out - 1].gpu == p.gpu) {
      parts[out - 1].bytes += p.bytes;
    } else {
      parts[out++] = p;
    }
  }
  parts.resize(out);
}

int send_leader(const Topology& topo, int src_node, int dst_node) {
  const int local_gpu = dst_node % topo.gpn();
  return topo.owner_rank_of_gpu(src_node * topo.gpn() + local_gpu);
}

int recv_leader(const Topology& topo, int dst_node, int src_node) {
  const int local_gpu = src_node % topo.gpn();
  return topo.owner_rank_of_gpu(dst_node * topo.gpn() + local_gpu);
}

int paired_rank(const Topology& topo, int src_gpu, int dst_node) {
  const int local_gpu = topo.gpu_location(src_gpu).local_index;
  return topo.owner_rank_of_gpu(dst_node * topo.gpn() + local_gpu);
}

void append_local_phase(CommPlan& plan, const CommPattern& pattern,
                        const Topology& topo, MemSpace space) {
  PlanPhase phase;
  phase.label = "local";
  int tag = kTagLocal;
  for (int src = 0; src < pattern.num_gpus(); ++src) {
    const int src_node = topo.gpu_location(src).node;
    for (const GpuMessage& m : pattern.sends_from(src)) {
      if (topo.gpu_location(m.dst_gpu).node != src_node) continue;
      phase.ops.push_back(PlanOp::message(topo.owner_rank_of_gpu(src),
                                          topo.owner_rank_of_gpu(m.dst_gpu),
                                          m.bytes, tag++, space));
    }
  }
  if (!phase.ops.empty()) plan.phases.push_back(std::move(phase));
}

std::int64_t dedup_send_bytes(const CommPattern& pattern,
                              const Topology& topo, int gpu) {
  const int src_node = topo.gpu_location(gpu).node;
  std::int64_t wire = 0;
  for_each_dst_node(pattern.sends_from(gpu), topo.gpn(), [&](
      int dst_node, std::span<const GpuMessage> run) {
    if (dst_node == src_node) return;
    const std::int64_t dedup = pattern.node_dedup_bytes(gpu, dst_node);
    if (dedup >= 0) {
      wire += dedup;
      return;
    }
    for (const GpuMessage& m : run) wire += m.bytes;
  });
  return wire;
}

std::int64_t intra_send_bytes(const CommPattern& pattern,
                              const Topology& topo, int gpu) {
  const int node = topo.gpu_location(gpu).node;
  std::int64_t intra = 0;
  for (const GpuMessage& m : pattern.sends_from(gpu)) {
    if (topo.gpu_location(m.dst_gpu).node == node) intra += m.bytes;
  }
  return intra;
}

void append_dedup_d2h_copies(CommPlan& plan, const CommPattern& pattern,
                             const Topology& topo, const char* label) {
  PlanPhase phase;
  phase.label = label;
  for (int gpu = 0; gpu < pattern.num_gpus(); ++gpu) {
    const std::int64_t bytes = intra_send_bytes(pattern, topo, gpu) +
                               dedup_send_bytes(pattern, topo, gpu);
    if (bytes == 0) continue;
    phase.ops.push_back(
        PlanOp::copy(topo.owner_rank_of_gpu(gpu), gpu, CopyDir::DeviceToHost,
                     bytes));
  }
  if (!phase.ops.empty()) plan.phases.push_back(std::move(phase));
}

void append_owner_copies(CommPlan& plan, const CommPattern& pattern,
                         const Topology& topo, CopyDir dir,
                         const char* label) {
  PlanPhase phase;
  phase.label = label;
  for (int gpu = 0; gpu < pattern.num_gpus(); ++gpu) {
    const std::int64_t bytes = dir == CopyDir::DeviceToHost
                                   ? pattern.send_bytes(gpu)
                                   : pattern.recv_bytes(gpu);
    if (bytes == 0) continue;
    phase.ops.push_back(
        PlanOp::copy(topo.owner_rank_of_gpu(gpu), gpu, dir, bytes));
  }
  if (!phase.ops.empty()) plan.phases.push_back(std::move(phase));
}

}  // namespace hetcomm::core::detail
