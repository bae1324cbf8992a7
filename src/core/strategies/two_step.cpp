// 2-Step node-aware communication (paper §2.3.2, Figure 2.4).
//
// Each process conglomerates its own data per destination *node* and sends
// it directly to its paired process on that node (same local GPU index);
// the paired process then redistributes on-node.  The data redundancy of
// standard communication is removed but multiple messages may still cross
// the network per node pair (one per active source GPU).

#include "core/strategies/common.hpp"
#include "core/strategy.hpp"

namespace hetcomm::core::detail {

CommPlan build_two_step(const CommPattern& pattern, const Topology& topo,
                        const ParamSet& params, const StrategyConfig& config) {
  (void)params;
  CommPlan plan;
  plan.strategy_name = config.name();
  plan.phases.reserve(5);

  const bool staged = config.transport == MemSpace::Host;
  const MemSpace space = config.transport;
  const NodeTraffic traffic = internode_traffic(pattern, topo);

  if (staged) {
    append_dedup_d2h_copies(plan, pattern, topo, "d2h");
  }
  append_local_phase(plan, pattern, topo, space);

  // Step 1: each source GPU sends one node-conglomerated message per
  // destination node, to its paired process there.
  PlanPhase global;
  global.label = "pairwise";
  global.ops.reserve(traffic.flows.size());
  int tag = kTagGlobal;
  std::vector<GpuBytes> per_src_gpu;
  for (const NodePair& pair : traffic.pairs) {
    // Each process injects only its deduplicated (wire) volume.
    per_src_gpu.clear();
    for (const Flow& f : traffic.flows_of(pair)) {
      per_src_gpu.push_back({f.src_gpu, f.wire_bytes});
    }
    per_src_gpu.resize(sum_by_gpu(per_src_gpu));
    for (const GpuBytes& part : per_src_gpu) {
      if (part.bytes == 0) continue;
      global.ops.push_back(
          PlanOp::message(topo.owner_rank_of_gpu(part.gpu),
                          paired_rank(topo, part.gpu, pair.dst_node),
                          part.bytes, tag++, space));
    }
  }
  if (!global.ops.empty()) plan.phases.push_back(std::move(global));

  // Step 2: the paired receivers redistribute on-node.  A node pair's flows
  // are already one per (src_gpu, dst_gpu), in that order.
  PlanPhase redist;
  redist.label = "redistribute";
  redist.ops.reserve(traffic.flows.size());
  tag = kTagRedist;
  for (const NodePair& pair : traffic.pairs) {
    for (const Flow& f : traffic.flows_of(pair)) {
      // Receiver of src_gpu's bundle forwards each dst_gpu portion.
      const int receiver = paired_rank(topo, f.src_gpu, pair.dst_node);
      const int owner = topo.owner_rank_of_gpu(f.dst_gpu);
      if (receiver == owner) continue;
      redist.ops.push_back(PlanOp::message(receiver, owner, f.bytes, tag++,
                                           space));
    }
  }
  if (!redist.ops.empty()) plan.phases.push_back(std::move(redist));

  if (staged) {
    append_owner_copies(plan, pattern, topo, CopyDir::HostToDevice, "h2d");
  }
  return plan;
}

}  // namespace hetcomm::core::detail
