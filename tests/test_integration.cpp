// End-to-end tests across all layers: synthetic matrix -> partition ->
// communication pattern -> strategy plans -> simulated execution -> analytic
// model, asserting the paper's qualitative claims hold on this stack.

#include <gtest/gtest.h>

#include "core/advisor.hpp"
#include "core/executor.hpp"
#include "core/models/strategy_models.hpp"
#include "core/strategy.hpp"
#include "sparse/comm_graph.hpp"
#include "sparse/generators.hpp"
#include "sparse/suitesparse_profiles.hpp"

namespace hetcomm {
namespace {

using core::CommPattern;
using core::CommPlan;
using core::MeasureOptions;
using core::MeasureResult;
using core::PatternStats;
using core::StrategyConfig;
using core::StrategyKind;

class IntegrationTest : public ::testing::Test {
 protected:
  Topology topo_{presets::lassen(8)};  // 32 GPUs
  ParamSet params_ = lassen_params();

  CommPattern matrix_pattern() const {
    const sparse::CsrMatrix m = sparse::banded_fem(6400, 600, 24, 99,
                                                   /*with_values=*/false);
    const sparse::RowPartition part =
        sparse::RowPartition::contiguous(m.rows(), topo_.num_gpus());
    return sparse::spmv_comm_pattern(m, part);
  }

  double measured(const CommPattern& p, const StrategyConfig& cfg) const {
    const CommPlan plan = core::build_plan(p, topo_, params_, cfg);
    MeasureOptions opts;
    opts.reps = 5;
    opts.noise_sigma = 0.01;
    return core::measure(plan, topo_, params_, opts).max_avg;
  }
};

TEST_F(IntegrationTest, MatrixPatternHasInterAndIntraNodeTraffic) {
  const CommPattern p = matrix_pattern();
  EXPECT_GT(p.internode_only(topo_).total_bytes(), 0);
  EXPECT_GT(p.intranode_only(topo_).total_bytes(), 0);
}

TEST_F(IntegrationTest, AllStrategiesExecuteOnMatrixPattern) {
  const CommPattern p = matrix_pattern();
  for (const StrategyConfig& cfg : core::table5_strategies()) {
    EXPECT_GT(measured(p, cfg), 0.0) << cfg.name();
  }
}

TEST_F(IntegrationTest, ModelUpperBoundsNodeAwareMeasurements) {
  // Paper §4.5: node-aware models are a tight upper bound -- the measured
  // time stays below the prediction (which models the worst case) but
  // within roughly an order of magnitude.
  const CommPattern p = matrix_pattern();
  const PatternStats stats = core::compute_stats(p, topo_);
  for (const StrategyKind kind :
       {StrategyKind::ThreeStep, StrategyKind::TwoStep, StrategyKind::SplitMD,
        StrategyKind::SplitDD}) {
    const StrategyConfig cfg{kind, MemSpace::Host};
    const double model = core::models::predict(cfg, stats, params_, topo_);
    const double meas = measured(p, cfg);
    EXPECT_GT(model, 0.2 * meas) << cfg.name();
    EXPECT_LT(model, 100.0 * meas) << cfg.name();
  }
}

TEST_F(IntegrationTest, DeviceAwareNodeAwareBeatsDeviceAwareStandard) {
  // Paper §5.1: for high inter-node message counts, device-aware 3-step and
  // 2-step are typically much faster than standard device-aware
  // communication.  (For *low* message counts standard can win -- also per
  // the paper -- so this uses a high-multiplicity pattern.)
  const CommPattern p = core::random_pattern(topo_, 64, 2048, 42);
  const double std_da = measured(p, {StrategyKind::Standard, MemSpace::Device});
  const double three_da =
      measured(p, {StrategyKind::ThreeStep, MemSpace::Device});
  const double two_da = measured(p, {StrategyKind::TwoStep, MemSpace::Device});
  EXPECT_LT(three_da, std_da);
  EXPECT_LT(two_da, std_da);
}

TEST_F(IntegrationTest, SplitMdFasterThanSplitDd) {
  // Paper §5.1: "Split + DD" consistently performed worse than "Split + MD".
  const CommPattern p = matrix_pattern();
  EXPECT_LT(measured(p, {StrategyKind::SplitMD, MemSpace::Host}),
            measured(p, {StrategyKind::SplitDD, MemSpace::Host}));
}

TEST_F(IntegrationTest, AdvisorBestIsNearMeasuredBest) {
  const CommPattern p = matrix_pattern();
  const core::Advisor advisor(topo_, params_);
  const core::Recommendation rec = advisor.best(p);
  const double rec_time = measured(p, rec.config);
  double best_time = rec_time;
  for (const StrategyConfig& cfg : core::table5_strategies()) {
    best_time = std::min(best_time, measured(p, cfg));
  }
  // The model-picked strategy is within 5x of the true measured best (the
  // advisor ranks by worst-case models, so a modest gap is expected).
  EXPECT_LT(rec_time, 5.0 * best_time);
}

TEST_F(IntegrationTest, StandinProfilePipelineRuns) {
  const sparse::MatrixProfile& prof = sparse::profile_by_name("thermal2");
  const sparse::CsrMatrix m = sparse::generate_standin(prof, 0.005, 3);
  const sparse::RowPartition part =
      sparse::RowPartition::contiguous(m.rows(), topo_.num_gpus());
  const CommPattern p = sparse::spmv_comm_pattern(m, part);
  EXPECT_GT(p.total_bytes(), 0);
  EXPECT_GT(measured(p, {StrategyKind::SplitMD, MemSpace::Host}), 0.0);
}

TEST_F(IntegrationTest, NetworkVolumeIdenticalAcrossNodeAwareStrategies) {
  // 3-step, 2-step and split move the same bytes across the network for a
  // pattern with distinct destinations (no duplicate data in this pattern).
  const CommPattern p = matrix_pattern();
  Engine probe(topo_, params_, NoiseModel(1, 0.0));
  std::int64_t volume3 = 0, volume2 = 0, volume_split = 0;
  {
    Engine e(topo_, params_, NoiseModel(1, 0.0));
    core::run_plan(e, core::build_plan(p, topo_, params_,
                                       {StrategyKind::ThreeStep, MemSpace::Host}));
    volume3 = e.network_bytes();
  }
  {
    Engine e(topo_, params_, NoiseModel(1, 0.0));
    core::run_plan(e, core::build_plan(p, topo_, params_,
                                       {StrategyKind::TwoStep, MemSpace::Host}));
    volume2 = e.network_bytes();
  }
  {
    Engine e(topo_, params_, NoiseModel(1, 0.0));
    core::run_plan(e, core::build_plan(p, topo_, params_,
                                       {StrategyKind::SplitMD, MemSpace::Host}));
    volume_split = e.network_bytes();
  }
  EXPECT_EQ(volume3, volume2);
  EXPECT_EQ(volume2, volume_split);
  EXPECT_EQ(volume3, p.internode_only(topo_).total_bytes());
}

TEST_F(IntegrationTest, WiderMachinePreservesPipeline) {
  // The whole stack also runs on a Frontier-like single-socket machine.
  const Topology frontier(presets::frontier(4));
  const ParamSet fparams = frontier_params();
  const sparse::CsrMatrix m = sparse::banded_fem(3200, 400, 16, 5, false);
  const sparse::RowPartition part =
      sparse::RowPartition::contiguous(m.rows(), frontier.num_gpus());
  const CommPattern p = sparse::spmv_comm_pattern(m, part);
  for (const StrategyConfig& cfg : core::table5_strategies()) {
    const CommPlan plan = core::build_plan(p, frontier, fparams, cfg);
    const MeasureResult r =
        core::measure(plan, frontier, fparams,
                      {.reps = 2, .seed = 1, .noise_sigma = 0.0});
    EXPECT_GE(r.max_avg, 0.0) << cfg.name();
  }
}

}  // namespace
}  // namespace hetcomm
