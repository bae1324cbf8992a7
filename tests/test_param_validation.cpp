// ParamSet::validate and the max-rate/simulation agreement grid.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>

#include "benchutil/pingpong.hpp"
#include "core/models/submodels.hpp"
#include "hetsim/engine.hpp"

namespace hetcomm {
namespace {

TEST(ParamValidation, AllPresetsAreValid) {
  EXPECT_NO_THROW(lassen_params().validate());
  EXPECT_NO_THROW(frontier_params().validate());
  EXPECT_NO_THROW(delta_params().validate());
}

TEST(ParamValidation, CatchesMissingMessageRow) {
  ParamSet p;  // default: all zeros
  p.injection.inv_rate_cpu = 1e-11;
  p.injection.inv_rate_gpu = 1e-11;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(ParamValidation, CatchesBadThresholds) {
  ParamSet p = lassen_params();
  p.thresholds.eager_max = p.thresholds.short_max;  // not strictly ordered
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = lassen_params();
  p.thresholds.short_max = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(ParamValidation, CatchesUnsetInjection) {
  ParamSet p = lassen_params();
  p.injection.inv_rate_gpu = 0.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(ParamValidation, CatchesNegativeOverheads) {
  ParamSet p = lassen_params();
  p.overheads.pack_per_byte = -1.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(ParamValidation, CatchesBadSharedProcs) {
  ParamSet p = lassen_params();
  p.copies.shared_procs = 1;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

/// The message validate() throws for `p`, or "" when it passes.
std::string validation_error(const ParamSet& p) {
  try {
    p.validate();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(ParamValidation, MessageRowErrorNamesTheRow) {
  ParamSet p = lassen_params();
  p.messages.set(MemSpace::Device, Protocol::Rendezvous, PathClass::OffNode,
                 {1.10e-05, 0.0});
  EXPECT_EQ(validation_error(p),
            "ParamSet 'lassen': device/rendezvous/off-node has "
            "non-positive alpha/beta");
}

TEST(ParamValidation, CopyRowErrorNamesTheRow) {
  ParamSet p = lassen_params();
  p.copies.d2h_4proc = {1.47e-05, 0.0};
  EXPECT_EQ(validation_error(p),
            "ParamSet 'lassen': copy D2H (shared) has non-positive "
            "alpha/beta");
}

TEST(ParamValidation, EngineRejectsInvalidCalibration) {
  ParamSet p = lassen_params();
  p.injection.inv_rate_cpu = 0.0;
  EXPECT_THROW(Engine(Topology(presets::lassen(1)), p),
               std::invalid_argument);
}

// ---- Max-rate vs simulation agreement grid --------------------------------
//
// The core promise of the simulator: node-level exchanges agree with the
// max-rate model (eq. 2.2) within a modest tolerance across the whole
// (active ppn) x (message size) grid, since the model's physics (per-process
// rate + injection ceiling) are exactly the engine's resources.

class MaxRateAgreementTest
    : public ::testing::TestWithParam<std::tuple<int, std::int64_t>> {};

TEST_P(MaxRateAgreementTest, SimulationWithinFortyPercentOfModel) {
  const auto [ppn, bytes] = GetParam();
  const Topology topo(presets::lassen(2));
  ParamSet params = lassen_params();
  params.overheads.post_overhead = 0.0;
  params.overheads.queue_search_per_entry = 0.0;
  params.overheads.nic_message_overhead = 0.0;

  const double simulated = benchutil::node_pong(
      topo, params, 0, 1, ppn, bytes, MemSpace::Host, {3, 1, 0.0});
  const double modeled = core::models::max_rate(
      params, MemSpace::Host, 1, bytes,
      static_cast<std::int64_t>(ppn) * bytes, bytes);
  EXPECT_NEAR(simulated, modeled, 0.4 * modeled)
      << "ppn=" << ppn << " bytes=" << bytes;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MaxRateAgreementTest,
    ::testing::Combine(::testing::Values(1, 4, 16, 40),
                       ::testing::Values<std::int64_t>(1 << 12, 1 << 16,
                                                       1 << 20)),
    [](const ::testing::TestParamInfo<std::tuple<int, std::int64_t>>& pi) {
      return "ppn" + std::to_string(std::get<0>(pi.param)) + "_b" +
             std::to_string(std::get<1>(pi.param));
    });

}  // namespace
}  // namespace hetcomm
