#include "core/executor.hpp"

#include <gtest/gtest.h>

#include "core/strategy.hpp"

namespace hetcomm::core {
namespace {

class ExecutorTest : public ::testing::Test {
 protected:
  Topology topo_{presets::lassen(4)};
  ParamSet params_ = lassen_params();

  CommPattern pattern() const {
    CommPattern p(topo_.num_gpus());
    p.add(0, 4, 40000);
    p.add(1, 5, 40000);
    p.add(2, 9, 20000);
    p.add(0, 2, 8000);
    return p;
  }
};

TEST_F(ExecutorTest, RunPlanAdvancesParticipants) {
  Engine engine(topo_, params_, NoiseModel(1, 0.0));
  const CommPlan plan = build_plan(pattern(), topo_, params_,
                                   {StrategyKind::Standard, MemSpace::Host});
  const std::vector<double> clocks = run_plan(engine, plan);
  EXPECT_GT(clocks[topo_.owner_rank_of_gpu(0)], 0.0);
  EXPECT_GT(clocks[topo_.owner_rank_of_gpu(4)], 0.0);
}

TEST_F(ExecutorTest, MeasureIsDeterministicWithoutNoise) {
  const CommPlan plan = build_plan(pattern(), topo_, params_,
                                   {StrategyKind::ThreeStep, MemSpace::Host});
  MeasureOptions opts;
  opts.reps = 3;
  opts.noise_sigma = 0.0;
  const MeasureResult a = measure(plan, topo_, params_, opts);
  const MeasureResult b = measure(plan, topo_, params_, opts);
  EXPECT_DOUBLE_EQ(a.max_avg, b.max_avg);
  EXPECT_DOUBLE_EQ(a.makespan_mean, b.makespan_mean);
  EXPECT_DOUBLE_EQ(a.makespan_min, a.makespan_max);
}

TEST_F(ExecutorTest, NoiseSpreadsTheMakespan) {
  const CommPlan plan = build_plan(pattern(), topo_, params_,
                                   {StrategyKind::TwoStep, MemSpace::Host});
  MeasureOptions opts;
  opts.reps = 20;
  opts.noise_sigma = 0.05;
  const MeasureResult r = measure(plan, topo_, params_, opts);
  EXPECT_LT(r.makespan_min, r.makespan_max);
  EXPECT_GE(r.max_avg, 0.0);
}

TEST_F(ExecutorTest, MaxAvgDominatedBySlowestRank) {
  const CommPlan plan = build_plan(pattern(), topo_, params_,
                                   {StrategyKind::Standard, MemSpace::Host});
  const MeasureResult r = measure(
      plan, topo_, params_, {.reps = 1, .seed = 1, .noise_sigma = 0.0});
  double max_rank = 0.0;
  for (const double t : r.per_rank_mean) max_rank = std::max(max_rank, t);
  EXPECT_DOUBLE_EQ(r.max_avg, max_rank);
  EXPECT_LE(r.max_avg, r.makespan_mean + 1e-15);
}

TEST_F(ExecutorTest, AllStrategiesExecuteWithoutDeadlock) {
  for (const StrategyConfig& cfg : table5_strategies()) {
    const CommPlan plan = build_plan(pattern(), topo_, params_, cfg);
    const MeasureResult r = measure(
        plan, topo_, params_, {.reps = 2, .seed = 7, .noise_sigma = 0.01});
    EXPECT_GT(r.max_avg, 0.0) << plan.strategy_name;
  }
}

TEST_F(ExecutorTest, RejectsBadReps) {
  const CommPlan plan = build_plan(pattern(), topo_, params_,
                                   {StrategyKind::Standard, MemSpace::Host});
  MeasureOptions opts;
  opts.reps = 0;
  EXPECT_THROW((void)measure(plan, topo_, params_, opts), std::invalid_argument);
}

TEST_F(ExecutorTest, RejectsNegativeJobs) {
  const CommPlan plan = build_plan(pattern(), topo_, params_,
                                   {StrategyKind::Standard, MemSpace::Host});
  MeasureOptions opts;
  opts.jobs = -2;
  EXPECT_THROW((void)measure(plan, topo_, params_, opts), std::invalid_argument);
}

TEST_F(ExecutorTest, ResultsAreBitIdenticalAcrossJobsCounts) {
  // The determinism contract of the sweep runtime: with noise enabled, the
  // per-rep seed depends only on (base seed, rep index) and the reduction
  // runs serially in rep order, so jobs=1 and jobs=8 must agree exactly --
  // not approximately -- on every statistic.
  const CommPlan plan = build_plan(pattern(), topo_, params_,
                                   {StrategyKind::SplitMD, MemSpace::Host});
  MeasureOptions serial;
  serial.reps = 24;
  serial.seed = 0xfeedULL;
  serial.noise_sigma = 0.05;
  serial.jobs = 1;
  MeasureOptions wide = serial;
  wide.jobs = 8;

  const MeasureResult a = measure(plan, topo_, params_, serial);
  const MeasureResult b = measure(plan, topo_, params_, wide);
  EXPECT_EQ(a.max_avg, b.max_avg);
  EXPECT_EQ(a.makespan_mean, b.makespan_mean);
  EXPECT_EQ(a.makespan_min, b.makespan_min);
  EXPECT_EQ(a.makespan_max, b.makespan_max);
  ASSERT_EQ(a.per_rank_mean.size(), b.per_rank_mean.size());
  for (std::size_t i = 0; i < a.per_rank_mean.size(); ++i) {
    EXPECT_EQ(a.per_rank_mean[i], b.per_rank_mean[i]) << "rank " << i;
  }
}

TEST_F(ExecutorTest, JobsZeroMeansHardwareConcurrency) {
  const CommPlan plan = build_plan(pattern(), topo_, params_,
                                   {StrategyKind::ThreeStep, MemSpace::Host});
  MeasureOptions serial;
  serial.reps = 8;
  serial.noise_sigma = 0.03;
  serial.jobs = 1;
  MeasureOptions hardware = serial;
  hardware.jobs = 0;
  const MeasureResult a = measure(plan, topo_, params_, serial);
  const MeasureResult b = measure(plan, topo_, params_, hardware);
  EXPECT_EQ(a.max_avg, b.max_avg);
  EXPECT_EQ(a.makespan_mean, b.makespan_mean);
}

TEST_F(ExecutorTest, MeasureReportsThroughput) {
  const CommPlan plan = build_plan(pattern(), topo_, params_,
                                   {StrategyKind::Standard, MemSpace::Host});
  MeasureOptions opts;
  opts.reps = 4;
  const MeasureResult r = measure(plan, topo_, params_, opts);
  EXPECT_GT(r.wall_seconds, 0.0);
  EXPECT_GT(r.reps_per_second, 0.0);
}

TEST_F(ExecutorTest, FabricOptionSlowsTaperedTraffic) {
  // A heavily tapered fat tree must not be free: inter-node traffic through
  // the fabric takes at least as long as the flat network.
  CommPattern p(topo_.num_gpus());
  for (int i = 0; i < 64; ++i) p.add(i % 4, 8 + (i % 8), 65536);
  const CommPlan plan = build_plan(p, topo_, params_,
                                   {StrategyKind::Standard, MemSpace::Host});
  MeasureOptions flat;
  flat.reps = 2;
  flat.noise_sigma = 0.0;
  MeasureOptions tapered = flat;
  FatTreeConfig cfg;
  cfg.taper = 8.0;
  cfg.nodes_per_pod = 2;
  tapered.fabric = cfg;
  const double t_flat = measure(plan, topo_, params_, flat).max_avg;
  const double t_tapered = measure(plan, topo_, params_, tapered).max_avg;
  EXPECT_GE(t_tapered, t_flat);
}

TEST_F(ExecutorTest, StagedStandardSlowerThanNoCopiesForTinyTraffic) {
  // Staging pays two copy latencies (~1.3e-5 s); for a tiny message the
  // device path's eager latency (~9e-6 off-node) is cheaper.
  CommPattern p(topo_.num_gpus());
  p.add(0, 4, 64);
  const auto time_for = [&](MemSpace space) {
    const CommPlan plan =
        build_plan(p, topo_, params_, {StrategyKind::Standard, space});
    return measure(plan, topo_, params_,
                   {.reps = 1, .seed = 1, .noise_sigma = 0.0})
        .max_avg;
  };
  EXPECT_GT(time_for(MemSpace::Host), time_for(MemSpace::Device));
}

TEST_F(ExecutorTest, StagedBeatsDeviceForManyMessages) {
  // The paper's headline: with many inter-node messages, staged node-aware
  // beats device-aware because GPU message latencies are much higher.
  CommPattern p(topo_.num_gpus());
  for (int i = 0; i < 256; ++i) {
    p.add(i % 4, 4 + (i % 8), 4096);
  }
  const auto time_for = [&](MemSpace space) {
    const CommPlan plan =
        build_plan(p, topo_, params_, {StrategyKind::Standard, space});
    return measure(plan, topo_, params_,
                   {.reps = 3, .seed = 1, .noise_sigma = 0.0})
        .max_avg;
  };
  EXPECT_LT(time_for(MemSpace::Host), time_for(MemSpace::Device));
}

}  // namespace
}  // namespace hetcomm::core
