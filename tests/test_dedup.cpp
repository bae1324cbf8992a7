// Duplicate-data elimination (paper §2.3, Figure 2.2): node-aware
// strategies ship each datum once per destination *node*, standard once per
// destination *GPU*.  These tests cover the dedup annotations end to end:
// pattern accessors, statistics, strategy plans, and the SpMV extractor.

#include <gtest/gtest.h>

#include "core/executor.hpp"
#include "core/models/strategy_models.hpp"
#include "core/strategy.hpp"
#include "sparse/comm_graph.hpp"
#include "sparse/generators.hpp"

namespace hetcomm {
namespace {

using core::CommPattern;
using core::CommPlan;
using core::PatternStats;
using core::StrategyConfig;
using core::StrategyKind;

class DedupTest : public ::testing::Test {
 protected:
  Topology topo_{presets::lassen(2)};
  ParamSet params_ = lassen_params();

  /// GPU 0 sends 1000 B to each of the four GPUs on node 1, but only 250 B
  /// are distinct (fully overlapping halos).
  CommPattern overlapping_pattern() const {
    CommPattern p(topo_.num_gpus());
    for (int g = 4; g < 8; ++g) p.add(0, g, 1000);
    p.set_node_dedup(0, 1, 250);
    return p;
  }
};

TEST_F(DedupTest, AccessorsRoundTrip) {
  CommPattern p(topo_.num_gpus());
  p.add(0, 4, 100);
  EXPECT_EQ(p.node_dedup_bytes(0, 1), -1);
  EXPECT_FALSE(p.has_dedup_info());
  p.set_node_dedup(0, 1, 60);
  EXPECT_EQ(p.node_dedup_bytes(0, 1), 60);
  EXPECT_TRUE(p.has_dedup_info());
  EXPECT_THROW((void)p.set_node_dedup(0, -1, 5), std::out_of_range);
  EXPECT_THROW((void)p.set_node_dedup(0, 1, -5), std::invalid_argument);
}

TEST_F(DedupTest, StatsCarryDedupVolumes) {
  const CommPattern p = overlapping_pattern();
  const PatternStats st = core::compute_stats(p, topo_);
  EXPECT_EQ(st.s_proc, 4000);
  EXPECT_EQ(st.dedup_s_proc, 250);
  EXPECT_EQ(st.s_node, 4000);
  EXPECT_EQ(st.dedup_s_node, 250);
  EXPECT_EQ(st.s_node_node, 4000);
  EXPECT_EQ(st.dedup_s_node_node, 250);
}

TEST_F(DedupTest, StatsWithoutAnnotationsAreEqual) {
  const CommPattern p = core::random_pattern(topo_, 8, 512, 3);
  const PatternStats st = core::compute_stats(p, topo_);
  EXPECT_EQ(st.dedup_s_proc, st.s_proc);
  EXPECT_EQ(st.dedup_s_node, st.s_node);
  EXPECT_EQ(st.dedup_s_node_node, st.s_node_node);
}

TEST_F(DedupTest, StandardStillSendsEverything) {
  const CommPattern p = overlapping_pattern();
  const CommPlan plan = core::build_plan(
      p, topo_, params_, {StrategyKind::Standard, MemSpace::Host});
  EXPECT_EQ(plan.summarize(topo_).internode_bytes, 4000);
}

TEST_F(DedupTest, NodeAwareStrategiesShipDedupVolume) {
  const CommPattern p = overlapping_pattern();
  for (const StrategyKind kind :
       {StrategyKind::ThreeStep, StrategyKind::TwoStep, StrategyKind::SplitMD,
        StrategyKind::SplitDD}) {
    const CommPlan plan =
        core::build_plan(p, topo_, params_, {kind, MemSpace::Host});
    // Only the 250 distinct bytes cross the network...
    EXPECT_EQ(plan.summarize(topo_).internode_bytes, 250) << to_string(kind);
    // ... while every destination GPU still receives its full payload H2D.
    std::int64_t h2d = 0;
    for (const auto& phase : plan.phases) {
      if (phase.label != "h2d") continue;
      for (const auto& op : phase.ops) h2d += op.bytes;
    }
    EXPECT_EQ(h2d, 4000) << to_string(kind);
  }
}

TEST_F(DedupTest, RedistributionDeliversFullPayload) {
  const CommPattern p = overlapping_pattern();
  const CommPlan plan = core::build_plan(
      p, topo_, params_, {StrategyKind::ThreeStep, MemSpace::Host});
  std::int64_t redist = 0;
  for (const auto& phase : plan.phases) {
    if (phase.label != "redistribute") continue;
    for (const auto& op : phase.ops) redist += op.bytes;
  }
  // Three of the four destination owners get their 1000 B from the leader
  // (the fourth is the receiving leader itself).
  EXPECT_EQ(redist, 3000);
}

TEST_F(DedupTest, DedupMakesNodeAwareFaster) {
  // Same pattern with and without annotations: the annotated one must be
  // at least as fast under every node-aware strategy.
  CommPattern plain(topo_.num_gpus());
  for (int src = 0; src < 4; ++src) {
    for (int g = 4; g < 8; ++g) plain.add(src, g, 20000);
  }
  CommPattern annotated = plain;
  for (int src = 0; src < 4; ++src) annotated.set_node_dedup(src, 1, 20000);

  for (const StrategyKind kind :
       {StrategyKind::ThreeStep, StrategyKind::TwoStep,
        StrategyKind::SplitMD}) {
    const StrategyConfig cfg{kind, MemSpace::Host};
    const core::MeasureOptions opts{
        .reps = 3, .seed = 1, .noise_sigma = 0.0};
    const double t_plain = core::measure(
        core::build_plan(plain, topo_, params_, cfg), topo_, params_, opts)
        .max_avg;
    const double t_dedup = core::measure(
        core::build_plan(annotated, topo_, params_, cfg), topo_, params_, opts)
        .max_avg;
    EXPECT_LT(t_dedup, t_plain) << to_string(kind);
  }
}

TEST_F(DedupTest, ModelUsesDedupVolumesForNodeAware) {
  const CommPattern p = overlapping_pattern();
  const PatternStats st = core::compute_stats(p, topo_);
  PatternStats no_dedup = st;
  no_dedup.dedup_s_proc = no_dedup.s_proc;
  no_dedup.dedup_s_node = no_dedup.s_node;
  no_dedup.dedup_s_node_node = no_dedup.s_node_node;

  const StrategyConfig cfg{StrategyKind::ThreeStep, MemSpace::Host};
  EXPECT_LE(core::models::predict(cfg, st, params_, topo_),
            core::models::predict(cfg, no_dedup, params_, topo_));
  // Standard is unaffected by the annotations.
  const StrategyConfig std_cfg{StrategyKind::Standard, MemSpace::Host};
  EXPECT_DOUBLE_EQ(core::models::predict(std_cfg, st, params_, topo_),
                   core::models::predict(std_cfg, no_dedup, params_, topo_));
}

TEST_F(DedupTest, SpmvExtractorAnnotatesOverlappingHalos) {
  // Tridiagonal-like band: with 8 parts on 2 nodes, GPUs on a node share
  // band columns only at the node boundary; build a matrix where two parts
  // on node 1 need identical columns from part 3 by using a wide band.
  const sparse::CsrMatrix m = sparse::banded_fem(800, 250, 12, 5, false);
  const sparse::RowPartition part = sparse::RowPartition::contiguous(800, 8);
  const core::CommPattern p = sparse::spmv_comm_pattern(m, part, topo_, 8);
  ASSERT_TRUE(p.has_dedup_info());

  // For every (owner, node) the dedup volume is at most the payload sum and
  // at least the largest single-GPU message.
  for (int owner = 0; owner < 8; ++owner) {
    for (int node = 0; node < 2; ++node) {
      const std::int64_t dedup = p.node_dedup_bytes(owner, node);
      if (dedup < 0) continue;
      std::int64_t payload = 0;
      std::int64_t largest = 0;
      for (const core::GpuMessage& msg : p.sends_from(owner)) {
        if (topo_.gpu_location(msg.dst_gpu).node != node) continue;
        payload += msg.bytes;
        largest = std::max(largest, msg.bytes);
      }
      EXPECT_LE(dedup, payload);
      EXPECT_GE(dedup, largest);
    }
  }

  // The wide band guarantees some actual overlap somewhere.
  std::int64_t total_payload = 0;
  std::int64_t total_dedup = 0;
  for (int owner = 0; owner < 8; ++owner) {
    for (int node = 0; node < 2; ++node) {
      const std::int64_t dedup = p.node_dedup_bytes(owner, node);
      if (dedup < 0) continue;
      for (const core::GpuMessage& msg : p.sends_from(owner)) {
        if (topo_.gpu_location(msg.dst_gpu).node == node) {
          total_payload += msg.bytes;
        }
      }
      total_dedup += dedup;
    }
  }
  EXPECT_LT(total_dedup, total_payload);
}

TEST_F(DedupTest, SpmvExtractorRejectsMismatchedTopology) {
  const sparse::CsrMatrix m = sparse::banded_fem(100, 10, 4, 5, false);
  const sparse::RowPartition part = sparse::RowPartition::contiguous(100, 4);
  EXPECT_THROW((void)sparse::spmv_comm_pattern(m, part, topo_, 8),
               std::invalid_argument);  // topo has 8 GPUs, partition 4
}

}  // namespace
}  // namespace hetcomm
