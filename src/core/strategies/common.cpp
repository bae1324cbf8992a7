#include "core/strategies/common.hpp"

#include <algorithm>
#include <span>

namespace hetcomm::core::detail {

NodeTraffic internode_traffic(const CommPattern& pattern,
                              const Topology& topo) {
  const int gpn = topo.gpn();
  const int num_nodes = topo.num_nodes();
  NodeTraffic traffic;
  // Every inter-node flow is one entry of some sends_from() row, so the
  // row lengths bound the flow count.
  std::size_t max_flows = 0;
  for (int src = 0; src < pattern.num_gpus(); ++src) {
    max_flows += pattern.sends_from(src).size();
  }
  traffic.flows.reserve(max_flows);
  traffic.pairs.reserve(std::min(
      max_flows, static_cast<std::size_t>(num_nodes) * (num_nodes - 1)));
  // Per destination node, for the current source node: its flow count,
  // its pair's index and the pair's next free flow slot.
  struct Slot {
    std::uint32_t count = 0;
    std::uint32_t pair = 0;
    std::uint32_t next = 0;
  };
  std::vector<Slot> to(static_cast<std::size_t>(num_nodes));
  for (int src_node = 0; src_node < num_nodes; ++src_node) {
    const int first_gpu = src_node * gpn;
    const int end_gpu = first_gpu + gpn;
    // Count pass: the node's flows toward each other node.
    for (Slot& slot : to) slot.count = 0;
    for (int src = first_gpu; src < end_gpu; ++src) {
      for_each_dst_node(pattern.sends_from(src), gpn, [&](
          int dst_node, std::span<const GpuMessage> run) {
        if (dst_node == src_node) return;
        to[static_cast<std::size_t>(dst_node)].count +=
            static_cast<std::uint32_t>(run.size());
      });
    }
    // Lay out the node's pairs in destination order.
    for (std::size_t d = 0; d < to.size(); ++d) {
      Slot& slot = to[d];
      if (slot.count == 0) continue;
      slot.pair = static_cast<std::uint32_t>(traffic.pairs.size());
      slot.next = static_cast<std::uint32_t>(traffic.flows.size());
      traffic.pairs.push_back(
          {src_node, static_cast<int>(d), 0, slot.next, slot.count});
      traffic.flows.resize(traffic.flows.size() + slot.count);
    }
    // Fill pass: each flow into its pair's next slot, in GPU order.
    for (int src = first_gpu; src < end_gpu; ++src) {
      for_each_dst_node(pattern.sends_from(src), gpn, [&](
          int dst_node, std::span<const GpuMessage> run) {
        if (dst_node == src_node) return;
        Slot& slot = to[static_cast<std::size_t>(dst_node)];
        Flow* const flows = traffic.flows.data() + slot.next;
        slot.next += static_cast<std::uint32_t>(run.size());
        std::int64_t payload = 0;
        for (std::size_t i = 0; i < run.size(); ++i) {
          flows[i] = {src, run[i].dst_gpu, run[i].bytes, run[i].bytes};
          payload += run[i].bytes;
        }
        // Spread the deduplicated per-node volume proportionally over the
        // flows toward that node; the last flow takes the remainder.
        const std::int64_t dedup = pattern.node_dedup_bytes(src, dst_node);
        if (dedup >= 0) {
          std::int64_t assigned = 0;
          for (std::size_t i = 0; i < run.size(); ++i) {
            Flow& f = flows[i];
            if (i + 1 == run.size()) {
              f.wire_bytes = dedup - assigned;
            } else {
              f.wire_bytes = payload > 0 ? dedup * f.bytes / payload : 0;
            }
            assigned += f.wire_bytes;
          }
        }
        traffic.pairs[slot.pair].wire_bytes += dedup >= 0 ? dedup : payload;
      });
    }
  }
  return traffic;
}

std::size_t sum_by_gpu(std::span<GpuBytes> parts) {
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
  return out;
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
  const auto for_each_local = [&](auto&& visit) {
    for (int src = 0; src < pattern.num_gpus(); ++src) {
      const int src_node = topo.gpu_location(src).node;
      for (const GpuMessage& m : pattern.sends_from(src)) {
        if (topo.gpu_location(m.dst_gpu).node == src_node) visit(src, m);
      }
    }
  };
  std::size_t count = 0;
  for_each_local([&](int, const GpuMessage&) { ++count; });
  if (count == 0) return;
  PlanPhase phase;
  phase.label = "local";
  phase.ops.reserve(count);
  int tag = kTagLocal;
  for_each_local([&](int src, const GpuMessage& m) {
    phase.ops.push_back(PlanOp::message(topo.owner_rank_of_gpu(src),
                                        topo.owner_rank_of_gpu(m.dst_gpu),
                                        m.bytes, tag++, space));
  });
  plan.phases.push_back(std::move(phase));
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
  phase.ops.reserve(static_cast<std::size_t>(pattern.num_gpus()));
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
  phase.ops.reserve(static_cast<std::size_t>(pattern.num_gpus()));
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
