#include "core/neighborhood.hpp"

#include <gtest/gtest.h>

#include "machine/machine.hpp"

namespace hetcomm::core {
namespace {

class NeighborhoodTest : public ::testing::Test {
 protected:
  Topology topo_{presets::lassen(4)};
  ParamSet params_ = lassen_params();

  CommPattern pattern() const {
    CommPattern p(topo_.num_gpus());
    p.add(0, 4, 4000);
    p.add(1, 9, 4000);
    p.add(2, 13, 4000);
    p.add(5, 0, 4000);
    p.add(0, 2, 2000);
    return p;
  }
};

TEST_F(NeighborhoodTest, SetupOnceExecuteMany) {
  const NeighborhoodExchange exchange(
      pattern(), topo_, params_, {StrategyKind::ThreeStep, MemSpace::Host});
  Engine engine(topo_, params_, NoiseModel(1, 0.0));
  exchange.execute(engine);
  const double after_one = engine.max_clock();
  exchange.execute(engine);
  const double after_two = engine.max_clock();
  EXPECT_GT(after_one, 0.0);
  // The second iteration continues from the first (persistent stream)...
  EXPECT_GT(after_two, after_one);
  // ... and costs about the same (within 3x: warm resources can differ).
  EXPECT_LT(after_two, 3.0 * after_one);
}

TEST_F(NeighborhoodTest, MatchesOneShotExecutor) {
  const StrategyConfig cfg{StrategyKind::SplitMD, MemSpace::Host};
  const NeighborhoodExchange exchange(pattern(), topo_, params_, cfg);
  const MeasureOptions opts{.reps = 5, .seed = 3, .noise_sigma = 0.0};
  const double direct =
      measure(build_plan(pattern(), topo_, params_, cfg), topo_, params_, opts)
          .max_avg;
  EXPECT_DOUBLE_EQ(exchange.measure(opts).max_avg, direct);
}

TEST_F(NeighborhoodTest, OverlapHidesEagerCommunication) {
  // With eager-size messages, compute issued while traffic is in flight
  // absorbs (part of) the communication time.
  const StrategyConfig cfg{StrategyKind::TwoStep, MemSpace::Host};
  const NeighborhoodExchange exchange(pattern(), topo_, params_, cfg);
  const MeasureOptions opts{.reps = 5, .seed = 3, .noise_sigma = 0.0};
  const double compute = 5e-4;  // compute >> communication

  const double no_overlap =
      exchange.measure(opts).max_avg + compute;  // sequential comm + compute
  const double overlapped =
      exchange.measure_overlapped(compute, opts).max_avg;
  EXPECT_LT(overlapped, no_overlap);
  // Overlapped execution can never beat the compute time itself.
  EXPECT_GE(overlapped, compute);
}

TEST_F(NeighborhoodTest, OverlapNoWorseThanSequentialForAllStrategies) {
  const MeasureOptions opts{.reps = 3, .seed = 7, .noise_sigma = 0.0};
  const double compute = 1e-4;
  for (const StrategyConfig& cfg : table5_strategies()) {
    const NeighborhoodExchange exchange(pattern(), topo_, params_, cfg);
    const double sequential = exchange.measure(opts).max_avg + compute;
    const double overlapped =
        exchange.measure_overlapped(compute, opts).max_avg;
    EXPECT_LE(overlapped, sequential * 1.001) << cfg.name();
  }
}

TEST_F(NeighborhoodTest, ZeroComputeOverlapEqualsPlainExecution) {
  // With no compute to overlap, measure_overlapped() runs the plan
  // measure() runs, seeded the same way, so the two agree bit for bit:
  // noisy or not, for every strategy, and on nvisland, whose striped
  // variants pin NIC rails.
  const machine::MachineModel nvisland = machine::nvisland_machine();
  const Topology nvisland_topo = nvisland.topology(2);
  const Topology lassen_topo = machine::lassen_machine().topology(2);
  struct Case {
    const char* name;
    const Topology& topo;
    const ParamSet& params;
    CommPattern pattern;
  };
  const Case cases[] = {
      {"lassen x4, fixture", topo_, params_, pattern()},
      {"lassen x2, random", lassen_topo, params_,
       random_pattern(lassen_topo, 8, 65536, 9)},
      {"nvisland x2, random", nvisland_topo, nvisland.params,
       random_pattern(nvisland_topo, 8, 65536, 9)},
  };
  for (const Case& c : cases) {
    for (const double sigma : {0.0, 0.02}) {
      const MeasureOptions opts{
          .reps = 4, .seed = 9, .noise_sigma = sigma};
      for (const StrategyConfig& cfg : all_strategies()) {
        const NeighborhoodExchange exchange(c.pattern, c.topo, c.params, cfg);
        const MeasureResult overlapped = exchange.measure_overlapped(0.0, opts);
        const MeasureResult plain = exchange.measure(opts);
        EXPECT_EQ(overlapped.max_avg, plain.max_avg)
            << c.name << ", sigma " << sigma << ", " << cfg.name();
        EXPECT_EQ(overlapped.per_rank_mean, plain.per_rank_mean)
            << c.name << ", sigma " << sigma << ", " << cfg.name();
        EXPECT_EQ(overlapped.makespan_mean, plain.makespan_mean)
            << c.name << ", sigma " << sigma << ", " << cfg.name();
      }
    }
  }
}

TEST_F(NeighborhoodTest, RejectsNegativeCompute) {
  const NeighborhoodExchange exchange(
      pattern(), topo_, params_, {StrategyKind::Standard, MemSpace::Host});
  Engine engine(topo_, params_, NoiseModel(1, 0.0));
  EXPECT_THROW((void)exchange.execute_overlapped(engine, -1.0),
               std::invalid_argument);
}

TEST_F(NeighborhoodTest, PhaseReportSumsToTotal) {
  const StrategyConfig cfg{StrategyKind::SplitMD, MemSpace::Host};
  const CommPlan plan = build_plan(pattern(), topo_, params_, cfg);
  const MeasureOptions opts{.reps = 3, .seed = 5, .noise_sigma = 0.0};
  const std::vector<PhaseCost> costs =
      report_phases(plan, topo_, params_, opts);
  ASSERT_EQ(costs.size(), plan.phases.size());
  double total_fraction = 0.0;
  double total_seconds = 0.0;
  for (const PhaseCost& c : costs) {
    total_fraction += c.fraction;
    total_seconds += c.seconds;
    EXPECT_FALSE(c.label.empty());
  }
  EXPECT_NEAR(total_fraction, 1.0, 1e-9);
  EXPECT_NEAR(total_seconds, measure(plan, topo_, params_, opts).makespan_mean,
              1e-12);
}

TEST_F(NeighborhoodTest, PhaseReportIdentifiesGlobalPhase) {
  const CommPlan plan = build_plan(
      pattern(), topo_, params_, {StrategyKind::ThreeStep, MemSpace::Host});
  const std::vector<PhaseCost> costs =
      report_phases(plan, topo_, params_,
                    {.reps = 2, .seed = 5, .noise_sigma = 0.0});
  bool has_global = false;
  for (const PhaseCost& c : costs) {
    if (c.label == "global") has_global = true;
  }
  EXPECT_TRUE(has_global);
}

}  // namespace
}  // namespace hetcomm::core
