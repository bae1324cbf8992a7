// Standard communication (paper §2.3, Figure 2.2): every GPU sends one
// message per destination GPU, with no node-aware aggregation.  Both
// redundancies (message and data) are left in place.

#include "core/strategies/common.hpp"
#include "core/strategy.hpp"

namespace hetcomm::core::detail {

CommPlan build_standard(const CommPattern& pattern, const Topology& topo,
                        const ParamSet& params, const StrategyConfig& config) {
  (void)params;
  CommPlan plan;
  plan.strategy_name = config.name();
  plan.phases.reserve(3);

  const bool staged = config.transport == MemSpace::Host;
  if (staged) {
    append_owner_copies(plan, pattern, topo, CopyDir::DeviceToHost, "d2h");
  }

  PlanPhase msgs;
  msgs.label = "exchange";
  msgs.ops.reserve(static_cast<std::size_t>(pattern.total_messages()));
  int tag = kTagStandard;
  for (int src = 0; src < pattern.num_gpus(); ++src) {
    for (const GpuMessage& m : pattern.sends_from(src)) {
      // Standard communication keeps every logical message distinct: no
      // conglomeration, so a flow of `count` messages crosses `count` times.
      const std::int64_t each = m.bytes / m.count;
      std::int64_t left = m.bytes;
      for (int i = 0; i < m.count; ++i) {
        const std::int64_t b = i + 1 == m.count ? left : each;
        left -= b;
        msgs.ops.push_back(PlanOp::message(topo.owner_rank_of_gpu(src),
                                           topo.owner_rank_of_gpu(m.dst_gpu),
                                           b, tag++, config.transport));
      }
    }
  }
  if (!msgs.ops.empty()) plan.phases.push_back(std::move(msgs));

  if (staged) {
    append_owner_copies(plan, pattern, topo, CopyDir::HostToDevice, "h2d");
  }
  return plan;
}

}  // namespace hetcomm::core::detail
