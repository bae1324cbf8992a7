#include "core/neighborhood.hpp"

#include <gtest/gtest.h>

#include "core/plan_check.hpp"

namespace hetcomm::core {
namespace {

class SetupCostTest : public ::testing::Test {
 protected:
  Topology topo_{presets::lassen(4)};
  ParamSet params_ = lassen_params();

  CommPattern pattern() const { return random_pattern(topo_, 8, 4096, 5); }
};

TEST_F(SetupCostTest, SetupCostPositiveAndStrategyDependent) {
  const NeighborhoodExchange standard(
      pattern(), topo_, params_, {StrategyKind::Standard, MemSpace::Host});
  const NeighborhoodExchange split(pattern(), topo_, params_,
                                   {StrategyKind::SplitMD, MemSpace::Host});
  EXPECT_GT(standard.setup_cost(), 0.0);
  EXPECT_GT(split.setup_cost(), 0.0);
  // Setup is dominated by partner discovery, which scales with the number
  // of communication partners per rank: standard communication (one
  // handshake per destination process) pays the most, node-aware
  // aggregation reduces it -- consistent with dynamic-discovery costs in
  // irregular MPI codes.
  EXPECT_LT(split.setup_cost(), standard.setup_cost());
}

TEST_F(SetupCostTest, EmptyPatternHasZeroSetup) {
  const NeighborhoodExchange exchange(
      CommPattern(topo_.num_gpus()), topo_, params_,
      {StrategyKind::ThreeStep, MemSpace::Host});
  EXPECT_DOUBLE_EQ(exchange.setup_cost(), 0.0);
}

TEST_F(SetupCostTest, AmortizationBreakEven) {
  // A high-multiplicity pattern where node-aware clearly beats standard.
  CommPattern p(topo_.num_gpus());
  for (int i = 0; i < 128; ++i) p.add(i % 4, 4 + (i % 12), 512);
  const MeasureOptions opts{.reps = 3, .seed = 1, .noise_sigma = 0.0};
  const NeighborhoodExchange standard(
      p, topo_, params_, {StrategyKind::Standard, MemSpace::Host});
  const NeighborhoodExchange three(p, topo_, params_,
                                   {StrategyKind::ThreeStep, MemSpace::Host});
  const double base_setup = standard.setup_cost();
  const double base_iter = standard.measure(opts).max_avg;
  ASSERT_LT(three.measure(opts).max_avg, base_iter);
  const int breakeven = three.iterations_to_amortize(base_setup, base_iter,
                                                     opts);
  EXPECT_GE(breakeven, 0);
  EXPECT_LT(breakeven, 1000);
  // A slower strategy never amortizes.
  const NeighborhoodExchange slow(p, topo_, params_,
                                  {StrategyKind::TwoStep, MemSpace::Device});
  if (slow.measure(opts).max_avg >= base_iter) {
    EXPECT_EQ(slow.iterations_to_amortize(base_setup, base_iter, opts), -1);
  }
}

TEST(ParseStrategy, RoundTripsAllNames) {
  for (const StrategyConfig& cfg : table5_strategies()) {
    const StrategyConfig parsed = parse_strategy(cfg.name());
    EXPECT_EQ(parsed.kind, cfg.kind);
    EXPECT_EQ(parsed.transport, cfg.transport);
  }
}

TEST(ParseStrategy, BareNamesDefaultToStaged) {
  EXPECT_EQ(parse_strategy("standard").transport, MemSpace::Host);
  EXPECT_EQ(parse_strategy("3-step").kind, StrategyKind::ThreeStep);
  EXPECT_EQ(parse_strategy("split+DD").kind, StrategyKind::SplitDD);
  EXPECT_THROW((void)parse_strategy("bogus"), std::invalid_argument);
}

// Tamper-detection property: random single-op corruptions of valid plans
// are caught by check_plan.
class TamperTest : public ::testing::TestWithParam<int> {};

TEST_P(TamperTest, CorruptionIsDetected) {
  const int seed = GetParam();
  const Topology topo(presets::lassen(3));
  const ParamSet params = lassen_params();
  const CommPattern p = random_pattern(topo, 6, 8192, seed);
  const std::vector<StrategyConfig> strategies = table5_strategies();
  const StrategyConfig cfg =
      strategies[static_cast<std::size_t>(seed) % strategies.size()];
  CommPlan plan = build_plan(p, topo, params, cfg);
  const bool staged = cfg.transport == MemSpace::Host;
  ASSERT_TRUE(check_plan(plan, p, topo, staged).ok) << cfg.name();

  // Corrupt: halve the bytes of the first inter-node message found.
  bool tampered = false;
  for (PlanPhase& phase : plan.phases) {
    for (PlanOp& op : phase.ops) {
      if (op.type == OpType::Message && op.bytes > 1 &&
          topo.classify(op.src_rank, op.dst_rank) == PathClass::OffNode) {
        op.bytes /= 2;
        tampered = true;
        break;
      }
    }
    if (tampered) break;
  }
  if (!tampered) GTEST_SKIP() << "no inter-node message to corrupt";
  EXPECT_FALSE(check_plan(plan, p, topo, staged).ok) << cfg.name();
}

INSTANTIATE_TEST_SUITE_P(Seeds, TamperTest, ::testing::Range(1, 9));

}  // namespace
}  // namespace hetcomm::core
