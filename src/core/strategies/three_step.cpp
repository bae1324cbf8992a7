// 3-Step node-aware communication (paper §2.3.1, Figure 2.3).
//
// For every node pair (k, l) with traffic:
//   Step 1: every GPU owner on k sends its l-bound data to the sending
//           leader for l (all of node k's l-bound data lands in one buffer);
//   Step 2: the leader sends the single conglomerated buffer to the
//           receiving leader on l;
//   Step 3: the receiving leader redistributes to the destination GPU
//           owners on l.
// Both standard-communication redundancies are eliminated: one message per
// node pair crosses the network and each datum crosses at most once.

#include "core/strategies/common.hpp"
#include "core/strategy.hpp"

namespace hetcomm::core::detail {

CommPlan build_three_step(const CommPattern& pattern, const Topology& topo,
                          const ParamSet& params,
                          const StrategyConfig& config) {
  (void)params;
  CommPlan plan;
  plan.strategy_name = config.name();
  plan.phases.reserve(6);

  const bool staged = config.transport == MemSpace::Host;
  const MemSpace space = config.transport;
  const NodeTraffic traffic = internode_traffic(pattern, topo);

  if (staged) {
    append_dedup_d2h_copies(plan, pattern, topo, "d2h");
  }
  append_local_phase(plan, pattern, topo, space);

  // Step 1: gather each node's l-bound data on the sending leader.
  PlanPhase gather;
  gather.label = "gather";
  gather.ops.reserve(traffic.flows.size() + traffic.pairs.size());
  int tag = kTagGather;
  std::vector<GpuBytes> per_gpu;
  for (const NodePair& pair : traffic.pairs) {
    const int leader = send_leader(topo, pair.src_node, pair.dst_node);
    // Only the deduplicated (wire) volume is gathered and injected.
    per_gpu.clear();
    for (const Flow& f : traffic.flows_of(pair)) {
      per_gpu.push_back({f.src_gpu, f.wire_bytes});
    }
    per_gpu.resize(sum_by_gpu(per_gpu));
    for (const GpuBytes& part : per_gpu) {
      const int owner = topo.owner_rank_of_gpu(part.gpu);
      if (owner == leader || part.bytes == 0) continue;  // already resident
      gather.ops.push_back(
          PlanOp::message(owner, leader, part.bytes, tag++, space));
    }
    // The leader packs the conglomerated buffer before injection.
    gather.ops.push_back(PlanOp::pack(leader, pair.wire_bytes));
  }
  if (!gather.ops.empty()) plan.phases.push_back(std::move(gather));

  // Step 2: one inter-node message per communicating node pair.
  PlanPhase global;
  global.label = "global";
  global.ops.reserve(traffic.pairs.size());
  tag = kTagGlobal;
  for (const NodePair& pair : traffic.pairs) {
    global.ops.push_back(PlanOp::message(
        send_leader(topo, pair.src_node, pair.dst_node),
        recv_leader(topo, pair.dst_node, pair.src_node), pair.wire_bytes,
        tag++, space));
  }
  if (!global.ops.empty()) plan.phases.push_back(std::move(global));

  // Step 3: redistribute on the destination node.
  PlanPhase redist;
  redist.label = "redistribute";
  redist.ops.reserve(traffic.flows.size());
  tag = kTagRedist;
  for (const NodePair& pair : traffic.pairs) {
    const int leader = recv_leader(topo, pair.dst_node, pair.src_node);
    per_gpu.clear();
    for (const Flow& f : traffic.flows_of(pair)) {
      per_gpu.push_back({f.dst_gpu, f.bytes});
    }
    per_gpu.resize(sum_by_gpu(per_gpu));
    for (const GpuBytes& part : per_gpu) {
      const int owner = topo.owner_rank_of_gpu(part.gpu);
      if (owner == leader) continue;
      redist.ops.push_back(
          PlanOp::message(leader, owner, part.bytes, tag++, space));
    }
  }
  if (!redist.ops.empty()) plan.phases.push_back(std::move(redist));

  if (staged) {
    append_owner_copies(plan, pattern, topo, CopyDir::HostToDevice, "h2d");
  }
  return plan;
}

}  // namespace hetcomm::core::detail
