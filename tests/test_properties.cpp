// Property-based (parameterized) sweeps over randomized patterns, machine
// shapes, and strategy configurations, asserting structural invariants that
// must hold for *every* input:
//   * plans conserve inter-node byte volume;
//   * plans execute without unmatched operations (no deadlock);
//   * node-aware plans never inject more network messages than standard;
//   * model predictions are finite, non-negative, and monotone in volume.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "core/executor.hpp"
#include "core/models/strategy_models.hpp"
#include "core/plan_check.hpp"
#include "core/split_setup.hpp"
#include "core/strategy.hpp"

namespace hetcomm {
namespace {

using core::CommPattern;
using core::CommPlan;
using core::PatternStats;
using core::StrategyConfig;
using core::StrategyKind;

// ---- Pattern/strategy sweep ----------------------------------------------

struct SweepCase {
  int nodes;
  int msgs_per_gpu;
  std::int64_t bytes;
  std::uint64_t seed;
};

class PatternPropertyTest
    : public ::testing::TestWithParam<SweepCase> {};

TEST_P(PatternPropertyTest, PlansConserveInterNodeVolumeAndExecute) {
  const SweepCase c = GetParam();
  const Topology topo(presets::lassen(c.nodes));
  const ParamSet params = lassen_params();
  const CommPattern p = core::random_pattern(topo, c.msgs_per_gpu, c.bytes,
                                             c.seed);
  const std::int64_t inter = p.internode_only(topo).total_bytes();

  std::int64_t standard_msgs = -1;
  for (const StrategyConfig& cfg : core::table5_strategies()) {
    const CommPlan plan = core::build_plan(p, topo, params, cfg);
    const core::PlanSummary s = plan.summarize(topo);
    EXPECT_EQ(s.internode_bytes, inter) << cfg.name();
    if (cfg.kind == StrategyKind::Standard) {
      standard_msgs = s.internode_messages;
    } else if (standard_msgs >= 0 &&
               (cfg.kind == StrategyKind::ThreeStep ||
                cfg.kind == StrategyKind::TwoStep)) {
      // 3-step and 2-step strictly conglomerate; split may trade fewer
      // redundant bytes for *more* (smaller) messages by design (paper
      // §2.3.3), so it is excluded from this bound.
      EXPECT_LE(s.internode_messages, standard_msgs) << cfg.name();
    }
    // The conservation checker accepts every generated plan.
    EXPECT_TRUE(core::check_plan(plan, p, topo,
                                 cfg.transport == MemSpace::Host).ok)
        << cfg.name();
    // Execution never throws (all sends matched) and yields finite times.
    Engine engine(topo, params, NoiseModel(c.seed, 0.0));
    const std::vector<double> clocks = core::run_plan(engine, plan);
    for (const double t : clocks) {
      EXPECT_TRUE(std::isfinite(t)) << cfg.name();
      EXPECT_GE(t, 0.0) << cfg.name();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomPatterns, PatternPropertyTest,
    ::testing::Values(SweepCase{2, 1, 64, 1}, SweepCase{2, 4, 1024, 2},
                      SweepCase{3, 8, 4096, 3}, SweepCase{4, 2, 100000, 4},
                      SweepCase{4, 16, 512, 5}, SweepCase{6, 6, 8192, 6},
                      SweepCase{8, 3, 32768, 7}, SweepCase{2, 32, 128, 8}));

// ---- Split setup properties over caps -------------------------------------

class SplitCapPropertyTest : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(SplitCapPropertyTest, ChunksRespectCapAndConserveVolume) {
  const std::int64_t cap = GetParam();
  const Topology topo(presets::lassen(4));
  const CommPattern p = core::random_pattern(topo, 6, 9000, 17);
  const core::SplitSetup setup = core::split_setup(p, topo, cap);

  std::int64_t chunk_total = 0;
  for (const core::SplitChunk& c : setup.chunks) {
    EXPECT_GT(c.bytes, 0);
    const auto it = setup.node_info.find(c.dst_node);
    ASSERT_NE(it, setup.node_info.end());
    EXPECT_LE(c.bytes, std::max<std::int64_t>(it->second.effective_cap, 1));
    chunk_total += c.bytes;
  }
  EXPECT_EQ(chunk_total, p.internode_only(topo).total_bytes());

  // At most PPN chunks inbound per node when the cap logic engaged.
  for (const auto& [node, info] : setup.node_info) {
    if (info.max_in_recv_size >= cap) {
      const std::int64_t per_ppn =
          (info.total_in_recv_vol + topo.ppn() - 1) / topo.ppn();
      EXPECT_GE(info.effective_cap, std::min<std::int64_t>(cap, per_ppn));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Caps, SplitCapPropertyTest,
                         ::testing::Values(64, 512, 4096, 16384, 1 << 20));

// ---- Machine-shape sweep ---------------------------------------------------

class ShapePropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(ShapePropertyTest, TopologyInvariantsHold) {
  const auto [nodes, sockets, gps, pps] = GetParam();
  const Topology topo(MachineShape{nodes, sockets, gps, pps});
  // Owners partition injectively into ranks.
  std::vector<int> owner_count(static_cast<std::size_t>(topo.num_ranks()), 0);
  for (int gpu = 0; gpu < topo.num_gpus(); ++gpu) {
    ++owner_count[static_cast<std::size_t>(topo.owner_rank_of_gpu(gpu))];
  }
  for (const int c : owner_count) EXPECT_LE(c, 1);
  // classify is symmetric.
  for (int a = 0; a < topo.num_ranks(); a += std::max(1, topo.num_ranks() / 7)) {
    for (int b = 0; b < topo.num_ranks();
         b += std::max(1, topo.num_ranks() / 5)) {
      EXPECT_EQ(topo.classify(a, b), topo.classify(b, a));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ShapePropertyTest,
    ::testing::Values(std::make_tuple(1, 1, 1, 1), std::make_tuple(2, 2, 2, 20),
                      std::make_tuple(3, 2, 3, 20), std::make_tuple(2, 1, 4, 64),
                      std::make_tuple(5, 2, 2, 64), std::make_tuple(4, 4, 1, 8)));

// ---- Model monotonicity ----------------------------------------------------

class ModelMonotonicityTest : public ::testing::TestWithParam<StrategyKind> {};

TEST_P(ModelMonotonicityTest, PredictionGrowsWithVolume) {
  const StrategyKind kind = GetParam();
  const Topology topo(presets::lassen(8));
  const ParamSet params = lassen_params();
  const StrategyConfig cfg{kind, MemSpace::Host};

  double prev = 0.0;
  for (const std::int64_t scale : {1LL, 4LL, 16LL, 64LL, 256LL}) {
    PatternStats st;
    st.s_proc = 1024 * scale;
    st.s_node = 4096 * scale;
    st.s_node_node = 1024 * scale;
    st.m_proc = 8;
    st.m_proc_node = 4;
    st.m_node_node = 8;
    st.num_internode_nodes = 4;
    st.total_internode_bytes = st.s_node;
    st.total_internode_messages = 32;
    st.typical_msg_bytes = st.s_node / 32;
    const double t = core::models::predict(cfg, st, params, topo);
    EXPECT_TRUE(std::isfinite(t));
    EXPECT_GE(t, prev * 0.999) << "volume scale " << scale;
    prev = t;
  }
}

INSTANTIATE_TEST_SUITE_P(Strategies, ModelMonotonicityTest,
                         ::testing::Values(StrategyKind::Standard,
                                           StrategyKind::ThreeStep,
                                           StrategyKind::TwoStep,
                                           StrategyKind::SplitMD,
                                           StrategyKind::SplitDD));

// ---- Determinism of the whole pipeline -------------------------------------

TEST(DeterminismProperty, IdenticalSeedsIdenticalResults) {
  const Topology topo(presets::lassen(4));
  const ParamSet params = lassen_params();
  const CommPattern p = core::random_pattern(topo, 8, 2048, 11);
  for (const StrategyConfig& cfg : core::table5_strategies()) {
    const CommPlan plan = core::build_plan(p, topo, params, cfg);
    const core::MeasureOptions opts{
        .reps = 4, .seed = 123, .noise_sigma = 0.05};
    const double a = core::measure(plan, topo, params, opts).max_avg;
    const double b = core::measure(plan, topo, params, opts).max_avg;
    EXPECT_DOUBLE_EQ(a, b) << cfg.name();
  }
}

}  // namespace
}  // namespace hetcomm
