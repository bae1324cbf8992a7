#include "core/mapping.hpp"

#include <gtest/gtest.h>

#include <random>

#include "core/executor.hpp"
#include "core/plan_check.hpp"
#include "core/strategy.hpp"

namespace hetcomm::core {
namespace {

class MappingTest : public ::testing::Test {
 protected:
  Topology topo_{presets::lassen(4)};  // 16 GPUs, 4 per node
  ParamSet params_ = lassen_params();

  /// A pattern with perfect hidden locality: GPUs {0,5,10,15}, {1,4,11,14},
  /// ... form cliques that a good mapping should co-locate.
  CommPattern clique_pattern() const {
    CommPattern p(topo_.num_gpus());
    for (int clique = 0; clique < 4; ++clique) {
      std::vector<int> members;
      for (int i = 0; i < 4; ++i) members.push_back((clique + 4 * i) % 16);
      for (const int a : members) {
        for (const int b : members) {
          if (a != b) p.add(a, b, 10000);
        }
      }
    }
    return p;
  }
};

TEST_F(MappingTest, IdentityIsValidAndNeutral) {
  const GpuMapping id = GpuMapping::identity(16);
  EXPECT_NO_THROW(id.validate());
  const CommPattern p = clique_pattern();
  EXPECT_EQ(internode_bytes_under(p, id, topo_),
            p.internode_only(topo_).total_bytes());
  const CommPattern same = apply_mapping(p, id, topo_);
  EXPECT_EQ(same.total_bytes(), p.total_bytes());
  EXPECT_EQ(same.bytes(0, 5), p.bytes(0, 5));
}

TEST_F(MappingTest, ValidateRejectsNonPermutations) {
  GpuMapping bad;
  bad.logical_to_physical = {0, 0, 1};
  EXPECT_THROW((void)bad.validate(), std::invalid_argument);
  bad.logical_to_physical = {0, 5, 1};
  EXPECT_THROW((void)bad.validate(), std::invalid_argument);
}

TEST_F(MappingTest, GreedyMapperFindsHiddenCliques) {
  const CommPattern p = clique_pattern();
  const GpuMapping greedy = greedy_locality_mapping(p, topo_);
  // Identity placement splits every clique over 4 nodes: all traffic is
  // inter-node.  The greedy mapper should recover (close to) zero.
  const std::int64_t before =
      internode_bytes_under(p, GpuMapping::identity(16), topo_);
  const std::int64_t after = internode_bytes_under(p, greedy, topo_);
  EXPECT_EQ(before, p.total_bytes());
  EXPECT_EQ(after, 0);
}

TEST_F(MappingTest, MappedPatternExecutesAndConserves) {
  const CommPattern p = clique_pattern();
  const GpuMapping greedy = greedy_locality_mapping(p, topo_);
  const CommPattern mapped = apply_mapping(p, greedy, topo_);
  EXPECT_EQ(mapped.total_bytes(), p.total_bytes());
  for (const StrategyConfig& cfg : table5_strategies()) {
    const CommPlan plan = build_plan(mapped, topo_, params_, cfg);
    EXPECT_TRUE(check_plan(plan, mapped, topo_,
                           cfg.transport == MemSpace::Host).ok)
        << cfg.name();
  }
}

TEST_F(MappingTest, BetterMappingIsFasterEndToEnd) {
  const CommPattern p = clique_pattern();
  const GpuMapping greedy = greedy_locality_mapping(p, topo_);
  const CommPattern mapped = apply_mapping(p, greedy, topo_);
  const MeasureOptions opts{.reps = 3, .seed = 1, .noise_sigma = 0.0};
  const StrategyConfig cfg{StrategyKind::Standard, MemSpace::Host};
  const double before =
      measure(build_plan(p, topo_, params_, cfg), topo_, params_, opts).max_avg;
  const double after =
      measure(build_plan(mapped, topo_, params_, cfg), topo_, params_, opts)
          .max_avg;
  EXPECT_LT(after, before);
}

TEST_F(MappingTest, RandomPatternsNeverGetWorse) {
  for (const std::uint64_t seed : {1u, 7u, 23u, 99u}) {
    const CommPattern p = random_pattern(topo_, 10, 2048, seed);
    const GpuMapping greedy = greedy_locality_mapping(p, topo_);
    EXPECT_LE(internode_bytes_under(p, greedy, topo_),
              internode_bytes_under(p, GpuMapping::identity(16), topo_) *
                  11 / 10)
        << "seed " << seed;
  }
}

TEST_F(MappingTest, DedupAnnotationsFollowWhenGroupStaysTogether) {
  // Logical node 1 (GPUs 4-7) receives from GPU 0 with 50% duplicates.
  CommPattern p(topo_.num_gpus());
  for (int g = 4; g < 8; ++g) p.add(0, g, 1000);
  p.set_node_dedup(0, 1, 2000);

  // A mapping that swaps whole nodes 1 and 2 keeps the group together.
  GpuMapping swap = GpuMapping::identity(16);
  for (int i = 0; i < 4; ++i) {
    std::swap(swap.logical_to_physical[static_cast<std::size_t>(4 + i)],
              swap.logical_to_physical[static_cast<std::size_t>(8 + i)]);
  }
  const CommPattern mapped = apply_mapping(p, swap, topo_);
  EXPECT_EQ(mapped.node_dedup_bytes(0, 2), 2000);  // annotation followed
  EXPECT_EQ(mapped.node_dedup_bytes(0, 1), -1);
}

TEST_F(MappingTest, DedupDroppedWhenGroupSplits) {
  CommPattern p(topo_.num_gpus());
  for (int g = 4; g < 8; ++g) p.add(0, g, 1000);
  p.set_node_dedup(0, 1, 2000);
  // Scatter the group across nodes.
  GpuMapping scatter = GpuMapping::identity(16);
  std::swap(scatter.logical_to_physical[5],
            scatter.logical_to_physical[12]);
  const CommPattern mapped = apply_mapping(p, scatter, topo_);
  EXPECT_FALSE(mapped.has_dedup_info());
}

TEST_F(MappingTest, SizeMismatchThrows) {
  const CommPattern p = clique_pattern();
  EXPECT_THROW((void)apply_mapping(p, GpuMapping::identity(8), topo_),
               std::invalid_argument);
  EXPECT_THROW((void)internode_bytes_under(p, GpuMapping::identity(8), topo_),
               std::invalid_argument);
}

}  // namespace
}  // namespace hetcomm::core
