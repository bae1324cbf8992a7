#include "core/advisor.hpp"

#include <gtest/gtest.h>

#include "core/models/scenario.hpp"
#include "machine/machine_json.hpp"

namespace hetcomm::core {
namespace {

class AdvisorTest : public ::testing::Test {
 protected:
  Topology topo_{presets::lassen(17)};
  Advisor advisor_{topo_, lassen_params()};
};

TEST_F(AdvisorTest, RanksFullStrategyRoster) {
  const CommPattern p = random_pattern(topo_, 8, 2048, 3);
  const std::vector<Recommendation> ranked = advisor_.rank(p);
  // Eight Table-5 strategies plus the chunked-pipeline variants: Lassen's
  // NICs are single-rail, so its four striped variants alias their bases.
  EXPECT_EQ(all_strategies().size(), 14u);
  EXPECT_EQ(ranked.size(), 10u);
  for (const Recommendation& r : ranked) {
    EXPECT_NE(r.config.split, SplitMode::Striped) << r.config.name();
  }
  for (std::size_t i = 1; i < ranked.size(); ++i) {
    EXPECT_LE(ranked[i - 1].predicted_seconds, ranked[i].predicted_seconds);
  }
  EXPECT_DOUBLE_EQ(ranked.front().relative, 1.0);
  EXPECT_GE(ranked.back().relative, 1.0);
}

TEST_F(AdvisorTest, StagedOnlyFiltersDeviceAware) {
  const CommPattern p = random_pattern(topo_, 8, 2048, 3);
  AdvisorOptions opts;
  opts.staged_only = true;
  const std::vector<Recommendation> ranked = advisor_.rank(p, opts);
  EXPECT_EQ(ranked.size(), 7u);  // 9 staged, 2 of them striped aliases
  for (const Recommendation& r : ranked) {
    EXPECT_EQ(r.config.transport, MemSpace::Host) << r.config.name();
  }
}

TEST(AdvisorRosterTest, MultiRailMachineRanksEveryVariant) {
  // nvisland's dual-rail NICs give striping something to split, so no
  // variant is an alias there and all 14 are ranked.
  const machine::MachineModel model = machine::resolve_machine("nvisland");
  const Topology topo = model.topology(4);
  const Advisor advisor(topo, model.params);
  const std::vector<Recommendation> ranked =
      advisor.rank(random_pattern(topo, 8, 65536, 3));
  EXPECT_EQ(ranked.size(), all_strategies().size());
}

TEST_F(AdvisorTest, BestMatchesRankFront) {
  const CommPattern p = random_pattern(topo_, 16, 4096, 9);
  const Recommendation best = advisor_.best(p);
  const std::vector<Recommendation> ranked = advisor_.rank(p);
  EXPECT_EQ(best.config.name(), ranked.front().config.name());
}

TEST_F(AdvisorTest, HighFanoutFavorsNodeAwareStaged) {
  // Paper conclusion: many destination nodes + many messages => a staged
  // node-aware strategy should win over standard device-aware.
  models::Scenario sc;
  sc.num_dest_nodes = 16;
  sc.num_messages = 256;
  sc.msg_bytes = 2048;
  const CommPattern p = models::make_scenario_pattern(topo_, sc);
  const Recommendation best = advisor_.best(p);
  EXPECT_NE(best.config.kind, StrategyKind::Standard) << best.config.name();
  EXPECT_EQ(best.config.transport, MemSpace::Host) << best.config.name();
}

TEST_F(AdvisorTest, DuplicateFractionShiftsRanking) {
  models::Scenario sc;
  sc.num_dest_nodes = 16;
  sc.num_messages = 256;
  sc.msg_bytes = 4096;
  const CommPattern p = models::make_scenario_pattern(topo_, sc);
  AdvisorOptions dup;
  dup.predict.duplicate_fraction = 0.25;
  const Recommendation plain = advisor_.best(p);
  const Recommendation with_dup = advisor_.best(p, dup);
  // Removing duplicates can only help node-aware schemes.
  EXPECT_LE(with_dup.predicted_seconds, plain.predicted_seconds);
}

}  // namespace
}  // namespace hetcomm::core
