#include "core/strategy.hpp"

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <set>

#include "core/split_setup.hpp"

namespace hetcomm::core {
namespace {

class StrategyTest : public ::testing::Test {
 protected:
  Topology topo_{presets::lassen(4)};
  ParamSet params_ = lassen_params();

  CommPattern mixed_pattern() const {
    CommPattern p(topo_.num_gpus());
    p.add(0, 1, 1000);    // on-socket
    p.add(0, 2, 2000);    // on-node
    p.add(0, 4, 3000);    // node0 -> node1
    p.add(1, 5, 4000);    // node0 -> node1
    p.add(2, 9, 5000);    // node0 -> node2
    p.add(4, 0, 6000);    // node1 -> node0
    p.add(8, 13, 7000);   // node2 -> node3
    return p;
  }

  static std::int64_t internode_bytes(const CommPlan& plan,
                                      const Topology& topo) {
    return plan.summarize(topo).internode_bytes;
  }
};

TEST_F(StrategyTest, NamesDistinguishTransport) {
  EXPECT_EQ((StrategyConfig{StrategyKind::Standard, MemSpace::Host}).name(),
            "standard (staged)");
  EXPECT_EQ((StrategyConfig{StrategyKind::ThreeStep, MemSpace::Device}).name(),
            "3-step (device-aware)");
  EXPECT_EQ((StrategyConfig{StrategyKind::SplitMD, MemSpace::Host}).name(),
            "split+MD");
  const char* const roster[] = {
      "standard (staged)",
      "standard (device-aware)",
      "3-step (staged)",
      "3-step (device-aware)",
      "2-step (staged)",
      "2-step (device-aware)",
      "split+MD",
      "split+DD",
      "3-step (staged, striped)",
      "3-step (device-aware, striped)",
      "2-step (staged, striped)",
      "standard (device-aware, striped)",
      "standard (staged, chunked-pipeline)",
      "2-step (staged, chunked-pipeline)",
  };
  const std::vector<StrategyConfig> all = all_strategies();
  ASSERT_EQ(all.size(), std::size(roster));
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].name(), roster[i]);
    EXPECT_EQ(parse_strategy(roster[i]), all[i]) << roster[i];
  }
}

TEST_F(StrategyTest, Table5HasEightConfigs) {
  const std::vector<StrategyConfig> all = table5_strategies();
  EXPECT_EQ(all.size(), 8u);
  for (const StrategyConfig& cfg : all) EXPECT_NO_THROW(cfg.validate());
}

TEST_F(StrategyTest, DeviceAwareSplitRejected) {
  const StrategyConfig bad{StrategyKind::SplitMD, MemSpace::Device};
  EXPECT_THROW((void)bad.validate(), std::invalid_argument);
  EXPECT_THROW((void)build_plan(mixed_pattern(), topo_, params_, bad),
               std::invalid_argument);
}

TEST_F(StrategyTest, StandardStagedKeepsEveryMessage) {
  const CommPattern p = mixed_pattern();
  const CommPlan plan = build_plan(
      p, topo_, params_, {StrategyKind::Standard, MemSpace::Host});
  const PlanSummary s = plan.summarize(topo_);
  EXPECT_EQ(s.messages, p.total_messages());
  EXPECT_EQ(s.internode_bytes, 25000);
  EXPECT_EQ(s.intranode_bytes, 3000);
  // Staging copies both directions: all sent + all received bytes.
  EXPECT_EQ(s.copy_bytes, 2 * p.total_bytes());
}

TEST_F(StrategyTest, StandardDeviceHasNoCopies) {
  const CommPlan plan = build_plan(mixed_pattern(), topo_, params_,
                                   {StrategyKind::Standard, MemSpace::Device});
  const PlanSummary s = plan.summarize(topo_);
  EXPECT_EQ(s.copies, 0);
  for (const PlanPhase& phase : plan.phases) {
    for (const PlanOp& op : phase.ops) {
      EXPECT_EQ(op.space, MemSpace::Device);
    }
  }
}

TEST_F(StrategyTest, StandardExpandsMultiplicity) {
  CommPattern p(topo_.num_gpus());
  for (int i = 0; i < 6; ++i) p.add(0, 4, 100);
  const CommPlan plan = build_plan(
      p, topo_, params_, {StrategyKind::Standard, MemSpace::Device});
  EXPECT_EQ(plan.summarize(topo_).internode_messages, 6);
  EXPECT_EQ(plan.summarize(topo_).internode_bytes, 600);
}

TEST_F(StrategyTest, ThreeStepOneNetworkMessagePerNodePair) {
  const CommPattern p = mixed_pattern();
  const CommPlan plan = build_plan(
      p, topo_, params_, {StrategyKind::ThreeStep, MemSpace::Host});
  const PlanSummary s = plan.summarize(topo_);
  // Node pairs with traffic: (0,1), (0,2), (1,0), (2,3) => 4 messages.
  EXPECT_EQ(s.internode_messages, 4);
  EXPECT_EQ(s.internode_bytes, 25000);  // no data duplication
}

TEST_F(StrategyTest, ThreeStepGathersOnLeader) {
  const CommPattern p = mixed_pattern();
  const CommPlan plan = build_plan(
      p, topo_, params_, {StrategyKind::ThreeStep, MemSpace::Host});
  // The gather phase must move gpu0's and gpu1's node1-bound data to the
  // single leader unless already there.
  bool found_gather = false;
  for (const PlanPhase& phase : plan.phases) {
    if (phase.label == "gather") found_gather = true;
  }
  EXPECT_TRUE(found_gather);
}

TEST_F(StrategyTest, ThreeStepDeviceAwareSkipsCopies) {
  const CommPlan plan = build_plan(mixed_pattern(), topo_, params_,
                                   {StrategyKind::ThreeStep, MemSpace::Device});
  EXPECT_EQ(plan.summarize(topo_).copies, 0);
}

TEST_F(StrategyTest, TwoStepOneMessagePerGpuNodePair) {
  const CommPattern p = mixed_pattern();
  const CommPlan plan = build_plan(
      p, topo_, params_, {StrategyKind::TwoStep, MemSpace::Host});
  const PlanSummary s = plan.summarize(topo_);
  // Active (src_gpu, dst_node) pairs: (0,n1),(1,n1),(2,n2),(4,n0),(8,n3) = 5.
  EXPECT_EQ(s.internode_messages, 5);
  EXPECT_EQ(s.internode_bytes, 25000);
}

TEST_F(StrategyTest, TwoStepConglomeratesPerNode) {
  // One GPU sending to two GPUs on the same node => ONE network message.
  CommPattern p(topo_.num_gpus());
  p.add(0, 4, 1000);
  p.add(0, 5, 2000);
  const CommPlan plan = build_plan(
      p, topo_, params_, {StrategyKind::TwoStep, MemSpace::Host});
  EXPECT_EQ(plan.summarize(topo_).internode_messages, 1);
  EXPECT_EQ(plan.summarize(topo_).internode_bytes, 3000);
}

TEST_F(StrategyTest, SplitMdChunksMatchSetup) {
  const CommPattern p = mixed_pattern();
  StrategyConfig cfg{StrategyKind::SplitMD, MemSpace::Host};
  cfg.message_cap = 2048;
  const CommPlan plan = build_plan(p, topo_, params_, cfg);
  const SplitSetup setup = split_setup(p, topo_, 2048);
  EXPECT_EQ(plan.summarize(topo_).internode_messages,
            static_cast<std::int64_t>(setup.chunks.size()));
  EXPECT_EQ(plan.summarize(topo_).internode_bytes, 25000);
}

TEST_F(StrategyTest, SplitUsesDefaultCapFromThresholds) {
  const CommPattern p = mixed_pattern();
  StrategyConfig cfg{StrategyKind::SplitMD, MemSpace::Host};
  cfg.message_cap = 0;  // resolve to rendezvous switch point
  const CommPlan plan = build_plan(p, topo_, params_, cfg);
  for (const PlanPhase& phase : plan.phases) {
    if (phase.label != "global") continue;
    for (const PlanOp& op : phase.ops) {
      EXPECT_LE(op.bytes, params_.thresholds.eager_max);
    }
  }
}

TEST_F(StrategyTest, SplitDdCopiesAreShared) {
  const CommPattern p = mixed_pattern();
  StrategyConfig cfg{StrategyKind::SplitDD, MemSpace::Host};
  cfg.ppg = 4;
  const CommPlan plan = build_plan(p, topo_, params_, cfg);
  bool saw_shared_copy = false;
  for (const PlanPhase& phase : plan.phases) {
    for (const PlanOp& op : phase.ops) {
      if (op.type == OpType::Copy && op.sharing_procs == 4) {
        saw_shared_copy = true;
      }
    }
  }
  EXPECT_TRUE(saw_shared_copy);
}

TEST_F(StrategyTest, SplitDdSameNetworkTrafficAsMd) {
  const CommPattern p = mixed_pattern();
  StrategyConfig md{StrategyKind::SplitMD, MemSpace::Host};
  StrategyConfig dd{StrategyKind::SplitDD, MemSpace::Host};
  const PlanSummary smd = build_plan(p, topo_, params_, md).summarize(topo_);
  const PlanSummary sdd = build_plan(p, topo_, params_, dd).summarize(topo_);
  EXPECT_EQ(smd.internode_messages, sdd.internode_messages);
  EXPECT_EQ(smd.internode_bytes, sdd.internode_bytes);
}

TEST_F(StrategyTest, AllStrategiesConserveNetworkVolume) {
  // Node-aware schemes remove duplicates, but with distinct destinations
  // per message there are none: every strategy must move the same
  // inter-node byte count.
  const CommPattern p = mixed_pattern();
  for (const StrategyConfig& cfg : table5_strategies()) {
    const CommPlan plan = build_plan(p, topo_, params_, cfg);
    EXPECT_EQ(internode_bytes(plan, topo_), 25000) << plan.strategy_name;
  }
}

TEST_F(StrategyTest, NodeAwareStrategiesReduceNetworkMessages) {
  // High-multiplicity pattern: many standard messages collapse.
  CommPattern p(topo_.num_gpus());
  for (int i = 0; i < 64; ++i) {
    p.add(i % 4, 4 + (i % 4), 256);   // node0 -> node1
    p.add(i % 4, 8 + (i % 4), 256);   // node0 -> node2
  }
  const auto msgs = [&](StrategyKind k) {
    return build_plan(p, topo_, params_, {k, MemSpace::Host})
        .summarize(topo_)
        .internode_messages;
  };
  EXPECT_GT(msgs(StrategyKind::Standard), msgs(StrategyKind::TwoStep));
  EXPECT_GT(msgs(StrategyKind::TwoStep), msgs(StrategyKind::ThreeStep));
}

TEST_F(StrategyTest, EmptyPatternYieldsEmptyPlans) {
  const CommPattern p(topo_.num_gpus());
  for (const StrategyConfig& cfg : table5_strategies()) {
    const CommPlan plan = build_plan(p, topo_, params_, cfg);
    EXPECT_EQ(plan.summarize(topo_).messages, 0) << plan.strategy_name;
    EXPECT_EQ(plan.summarize(topo_).copies, 0) << plan.strategy_name;
  }
}

TEST_F(StrategyTest, PatternTopologyMismatchThrows) {
  EXPECT_THROW((void)build_plan(CommPattern(3), topo_, params_,
                          {StrategyKind::Standard, MemSpace::Host}),
               std::invalid_argument);
}

TEST_F(StrategyTest, IntranodeOnlyPatternNeedsNoNetwork) {
  CommPattern p(topo_.num_gpus());
  p.add(0, 1, 5000);
  p.add(2, 3, 7000);
  for (const StrategyConfig& cfg : table5_strategies()) {
    const CommPlan plan = build_plan(p, topo_, params_, cfg);
    EXPECT_EQ(plan.summarize(topo_).internode_messages, 0)
        << plan.strategy_name;
  }
}

}  // namespace
}  // namespace hetcomm::core
