// Fault-injection subsystem tests: retry/backoff math, the
// hetcomm.fault.v1 round trip, plan-to-model compilation, the
// zero-overhead-when-off and faulted bit-identity guarantees, the
// FaultAbort failure contract (engine reusable afterwards, the lowest
// aborting repetition reported at any jobs count), the metrics
// fault section, hand-computed faulted times of the engine's transfer step,
// bit-equal faulted execute() bodies, what the per-attach rule scopes may
// skip, and ranking-stability determinism.

#include "fault/plan.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/comm_pattern.hpp"
#include "core/compiled_plan.hpp"
#include "core/executor.hpp"
#include "core/strategy.hpp"
#include "fault/fault_json.hpp"
#include "fault/stability.hpp"
#include "hetsim/engine.hpp"
#include "hetsim/faults.hpp"
#include "machine/machine.hpp"
#include "obs/engine_metrics.hpp"
#include "obs/json.hpp"

#ifndef HETCOMM_TEST_DATA_DIR
#error "HETCOMM_TEST_DATA_DIR must point at tests/data"
#endif

namespace hetcomm {
namespace {

using core::ExecMode;
using fault::FaultPlan;

// ---------------------------------------------------------------------------
// Retry / backoff math.

TEST(RetryMath, DelayMonotoneCappedDeterministic) {
  RetryPolicy policy;
  policy.timeout = 1e-4;
  policy.backoff = 2.0;
  policy.max_delay = 1e-2;
  policy.max_attempts = 64;

  double prev = 0.0;
  for (int i = 0; i < 64; ++i) {
    const double d = retry_delay(policy, i);
    EXPECT_GE(d, prev) << "retry delay must be nondecreasing at " << i;
    EXPECT_LE(d, policy.max_delay) << "retry delay must respect the cap";
    EXPECT_EQ(d, retry_delay(policy, i)) << "retry delay must be pure";
    prev = d;
  }
  // The exponential ramp reaches the cap and stays there.
  EXPECT_EQ(retry_delay(policy, 63), policy.max_delay);

  // Total delay is monotone in the retry count and exactly the prefix sum.
  double total = 0.0;
  for (int retries = 0; retries <= 16; ++retries) {
    const double t = total_retry_delay(policy, retries);
    EXPECT_EQ(t, total) << "total delay must be the prefix sum of delays";
    EXPECT_EQ(t, total_retry_delay(policy, retries)) << "and deterministic";
    total += retry_delay(policy, retries);
  }
}

TEST(RetryMath, HugeRetryIndexDoesNotOverflow) {
  RetryPolicy policy;
  policy.timeout = 1e-4;
  policy.backoff = 10.0;
  policy.max_delay = 1.0;
  // 1e-4 * 10^1000 would overflow without the early cap exit.
  EXPECT_EQ(retry_delay(policy, 1000), policy.max_delay);
}

TEST(RetryMath, FaultUniformDeterministicAndInRange) {
  for (std::uint64_t msg = 0; msg < 64; ++msg) {
    for (std::uint32_t attempt = 0; attempt < 4; ++attempt) {
      const double u = fault_uniform(0x1234, msg, attempt);
      EXPECT_GE(u, 0.0);
      EXPECT_LT(u, 1.0);
      EXPECT_EQ(u, fault_uniform(0x1234, msg, attempt));
    }
  }
  // Different streams / messages decorrelate.
  EXPECT_NE(fault_uniform(1, 0, 0), fault_uniform(2, 0, 0));
  EXPECT_NE(fault_uniform(1, 0, 0), fault_uniform(1, 1, 0));
  EXPECT_NE(fault_uniform(1, 0, 0), fault_uniform(1, 0, 1));
}

// ---------------------------------------------------------------------------
// Plan model: empty(), JSON round trip, compile cross-validation.

FaultPlan rich_plan() {
  FaultPlan plan;
  plan.name = "rich";
  plan.seed = 42;
  plan.link_degradations.push_back({"off-node", 1.5, 3.0, {0.0, 0.002}});
  plan.nic_degradations.push_back({-1, 1, 2.0, 2.0, {}});
  plan.nic_outages.push_back({0, 0, {0.0, 0.001}});
  plan.stragglers.push_back({0, 1.5, 1.25});
  {
    fault::MessageLoss loss;
    loss.path = "off-node";
    loss.probability = 0.05;
    loss.retry.timeout = 2e-4;
    loss.retry.backoff = 3.0;
    loss.retry.max_delay = 5e-3;
    loss.retry.max_attempts = 7;
    plan.message_loss.push_back(loss);
  }
  return plan;
}

TEST(FaultPlanModel, EmptyDetectsNeutralRules) {
  FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  plan.link_degradations.push_back({"off-node", 1.0, 1.0, {}});
  plan.stragglers.push_back({0, 1.0, 1.0});
  {
    fault::MessageLoss loss;
    loss.path = "";
    loss.probability = 0.0;
    plan.message_loss.push_back(loss);
  }
  EXPECT_TRUE(plan.empty()) << "neutral rules perturb nothing";
  plan.link_degradations.push_back({"off-node", 2.0, 1.0, {}});
  EXPECT_FALSE(plan.empty());
}

TEST(FaultPlanModel, JsonRoundTripIsExact) {
  const FaultPlan plan = rich_plan();
  const obs::JsonValue doc = fault::to_json(plan);
  EXPECT_EQ(doc.at("schema").as_string(), fault::kFaultSchema);
  const FaultPlan back =
      fault::plan_from_json(obs::JsonValue::parse(doc.dump_string()));

  EXPECT_EQ(back.name, plan.name);
  EXPECT_EQ(back.seed, plan.seed);
  ASSERT_EQ(back.link_degradations.size(), 1u);
  EXPECT_EQ(back.link_degradations[0].path, "off-node");
  EXPECT_EQ(back.link_degradations[0].alpha_factor, 1.5);
  EXPECT_EQ(back.link_degradations[0].beta_factor, 3.0);
  EXPECT_EQ(back.link_degradations[0].window.begin, 0.0);
  EXPECT_EQ(back.link_degradations[0].window.end, 0.002);
  ASSERT_EQ(back.nic_degradations.size(), 1u);
  EXPECT_EQ(back.nic_degradations[0].node, -1);
  EXPECT_EQ(back.nic_degradations[0].lane, 1);
  EXPECT_TRUE(back.nic_degradations[0].window.always());
  ASSERT_EQ(back.nic_outages.size(), 1u);
  EXPECT_EQ(back.nic_outages[0].window.end, 0.001);
  ASSERT_EQ(back.stragglers.size(), 1u);
  EXPECT_EQ(back.stragglers[0].compute_factor, 1.5);
  ASSERT_EQ(back.message_loss.size(), 1u);
  EXPECT_EQ(back.message_loss[0].probability, 0.05);
  EXPECT_EQ(back.message_loss[0].retry.backoff, 3.0);
  EXPECT_EQ(back.message_loss[0].retry.max_attempts, 7);

  // A second projection of the reconstructed plan is byte-identical.
  EXPECT_EQ(fault::to_json(back).dump_string(), doc.dump_string());
}

TEST(FaultPlanModel, LoadFaultFileErrors) {
  EXPECT_THROW((void)fault::load_fault_file("/nonexistent/faults.json"),
               std::invalid_argument);

  const std::string path = ::testing::TempDir() + "/bad_schema_faults.json";
  {
    std::ofstream out(path);
    out << "{\"schema\": \"hetcomm.fault.v99\", \"seed\": 1}\n";
  }
  try {
    (void)fault::load_fault_file(path);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("hetcomm.fault.v99"), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

TEST(FaultPlanModel, CompileCrossValidatesScopes) {
  const machine::MachineModel mach = machine::preset_machine("lassen");
  const Topology topo = mach.topology(2);

  FaultPlan unknown_path;
  unknown_path.link_degradations.push_back({"warp-drive", 2.0, 2.0, {}});
  try {
    (void)unknown_path.compile(topo, mach.params);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("warp-drive"), std::string::npos);
  }

  FaultPlan bad_rank;
  bad_rank.stragglers.push_back({100000, 2.0, 1.0});
  EXPECT_THROW((void)bad_rank.compile(topo, mach.params),
               std::invalid_argument);

  FaultPlan bad_lane;
  bad_lane.nic_outages.push_back({0, 5, {}});  // lassen has one NIC lane
  EXPECT_THROW((void)bad_lane.compile(topo, mach.params),
               std::invalid_argument);

  FaultPlan bad_probability;
  {
    fault::MessageLoss loss;
    loss.probability = 1.5;
    bad_probability.message_loss.push_back(loss);
  }
  EXPECT_THROW(bad_probability.validate(), std::invalid_argument);

  // A valid plan compiles and densifies stragglers.
  FaultPlan good;
  good.stragglers.push_back({1, 2.0, 1.5});
  const FaultModel model = good.compile(topo, mach.params);
  EXPECT_EQ(model.rank_compute_factor(1), 2.0);
  EXPECT_EQ(model.rank_injection_factor(1), 1.5);
  EXPECT_EQ(model.rank_compute_factor(0), 1.0);
}

// ---------------------------------------------------------------------------
// Simulation guarantees.

struct Measurement {
  double max_avg;
  double makespan_mean;
  double makespan_min;
  double makespan_max;
  std::vector<double> per_rank_mean;

  bool operator==(const Measurement&) const = default;
};

Measurement measure_with(const core::CommPlan& plan, const Topology& topo,
                         const ParamSet& params, const FaultModel* faults,
                         ExecMode engine, int jobs) {
  core::MeasureOptions opts;
  opts.reps = 3;
  opts.seed = 99;
  opts.noise_sigma = 0.02;
  opts.jobs = jobs;
  opts.engine = engine;
  opts.faults = faults;
  const core::MeasureResult r = core::measure(plan, topo, params, opts);
  return {r.max_avg, r.makespan_mean, r.makespan_min, r.makespan_max,
          r.per_rank_mean};
}

TEST(FaultSim, ZeroOverheadWhenOff) {
  const machine::MachineModel mach = machine::preset_machine("lassen");
  const Topology topo = mach.topology(2);
  const core::CommPattern pattern = core::random_pattern(topo, 16, 4096, 5);

  // Two flavors of "off": a fully neutral plan (normalized to a detached
  // fault layer) and a non-neutral plan whose only rule is scoped to a
  // window that never activates (fault layer attached, all hooks live).
  FaultPlan neutral;
  neutral.link_degradations.push_back({"off-node", 1.0, 1.0, {}});
  neutral.stragglers.push_back({0, 1.0, 1.0});
  const FaultModel neutral_model = neutral.compile(topo, mach.params);
  EXPECT_TRUE(neutral_model.empty());

  FaultPlan dormant;
  dormant.link_degradations.push_back({"off-node", 4.0, 4.0, {5.0, 5.0}});
  {
    fault::MessageLoss loss;
    loss.path = "off-node";
    loss.probability = 0.9;
    loss.window = {5.0, 5.0};  // empty window: never active
    dormant.message_loss.push_back(loss);
  }
  const FaultModel dormant_model = dormant.compile(topo, mach.params);
  EXPECT_FALSE(dormant_model.empty());

  for (const core::StrategyConfig& cfg : core::table5_strategies()) {
    const core::CommPlan plan =
        core::build_plan(pattern, topo, mach.params, cfg);
    const Measurement baseline = measure_with(plan, topo, mach.params, nullptr,
                                              ExecMode::Compiled, 1);
    for (const ExecMode engine : {ExecMode::Compiled, ExecMode::Interpreted}) {
      for (const int jobs : {1, 2}) {
        EXPECT_EQ(measure_with(plan, topo, mach.params, &neutral_model,
                               engine, jobs),
                  baseline)
            << cfg.name() << " neutral " << to_string(engine) << " jobs "
            << jobs;
        EXPECT_EQ(measure_with(plan, topo, mach.params, &dormant_model,
                               engine, jobs),
                  baseline)
            << cfg.name() << " dormant " << to_string(engine) << " jobs "
            << jobs;
      }
    }
  }
}

/// A composite plan exercising all four perturbation kinds at once on the
/// dual-rail nvisland machine.
FaultPlan composite_plan() {
  FaultPlan plan;
  plan.name = "composite";
  plan.seed = 3;
  plan.link_degradations.push_back({"off-node", 1.5, 2.0, {}});
  plan.nic_degradations.push_back({-1, 1, 1.5, 1.5, {}});
  plan.nic_outages.push_back({0, 0, {0.0, 2e-4}});
  plan.stragglers.push_back({0, 1.5, 1.25});
  {
    fault::MessageLoss loss;
    loss.path = "off-node";
    loss.probability = 0.2;
    loss.retry.max_attempts = 12;  // deep budget: never exhausts here
    plan.message_loss.push_back(loss);
  }
  return plan;
}

TEST(FaultSim, FaultedBitIdenticalAcrossJobsAndEngines) {
  const machine::MachineModel mach = machine::preset_machine("nvisland");
  const Topology topo = mach.topology(2);
  const core::CommPattern pattern = core::random_pattern(topo, 16, 4096, 5);
  const FaultModel model = composite_plan().compile(topo, mach.params);

  for (const core::StrategyConfig& cfg : core::table5_strategies()) {
    const core::CommPlan plan =
        core::build_plan(pattern, topo, mach.params, cfg);
    const Measurement reference = measure_with(plan, topo, mach.params, &model,
                                               ExecMode::Compiled, 1);
    const Measurement unfaulted = measure_with(plan, topo, mach.params,
                                               nullptr, ExecMode::Compiled, 1);
    EXPECT_NE(reference.max_avg, unfaulted.max_avg)
        << cfg.name() << ": the composite plan must actually perturb";
    for (const ExecMode engine : {ExecMode::Compiled, ExecMode::Interpreted}) {
      for (const int jobs : {1, 4, 0}) {
        EXPECT_EQ(measure_with(plan, topo, mach.params, &model, engine, jobs),
                  reference)
            << cfg.name() << " " << to_string(engine) << " jobs " << jobs;
      }
    }
  }
}

TEST(FaultSim, DegradationSlowsRunsDown) {
  const machine::MachineModel mach = machine::preset_machine("lassen");
  const Topology topo = mach.topology(2);
  const core::CommPattern pattern = core::random_pattern(topo, 16, 4096, 5);
  const core::CommPlan plan = core::build_plan(pattern, topo, mach.params,
                                               core::table5_strategies()[0]);

  FaultPlan slow;
  slow.link_degradations.push_back({"", 4.0, 4.0, {}});
  const FaultModel model = slow.compile(topo, mach.params);
  const double faulted =
      measure_with(plan, topo, mach.params, &model, ExecMode::Compiled, 1)
          .max_avg;
  const double nominal =
      measure_with(plan, topo, mach.params, nullptr, ExecMode::Compiled, 1)
          .max_avg;
  EXPECT_GT(faulted, nominal);
}

TEST(FaultSim, OutageFailsOverToSurvivingLane) {
  const machine::MachineModel mach = machine::preset_machine("nvisland");
  const Topology topo = mach.topology(2);
  const core::CommPattern pattern = core::random_pattern(topo, 16, 4096, 5);
  const core::CommPlan plan = core::build_plan(pattern, topo, mach.params,
                                               core::table5_strategies()[0]);

  FaultPlan outage;
  outage.nic_outages.push_back({-1, 0, {}});  // rail 0 down everywhere forever
  const FaultModel model = outage.compile(topo, mach.params);

  core::MeasureOptions opts;
  opts.reps = 3;
  opts.seed = 99;
  opts.jobs = 1;
  opts.faults = &model;
  opts.collect_metrics = true;
  const core::MeasureResult r = core::measure(plan, topo, mach.params, opts);
  ASSERT_TRUE(r.metrics.has_value());
  EXPECT_GT(r.metrics->faults.failovers, 0)
      << "off-node traffic homed on rail 0 must fail over to rail 1";

  // Squeezing two rails' traffic through one cannot speed anything up.
  const double nominal =
      measure_with(plan, topo, mach.params, nullptr, ExecMode::Compiled, 1)
          .max_avg;
  EXPECT_GE(r.max_avg, nominal);
}

TEST(FaultSim, AllLanesDownForeverIsStructuredFailure) {
  const machine::MachineModel mach = machine::preset_machine("nvisland");
  const Topology topo = mach.topology(2);
  const core::CommPattern pattern = core::random_pattern(topo, 16, 4096, 5);
  const core::CommPlan plan = core::build_plan(pattern, topo, mach.params,
                                               core::table5_strategies()[0]);

  FaultPlan dead;
  dead.nic_outages.push_back({-1, -1, {}});  // every lane, forever
  const FaultModel model = dead.compile(topo, mach.params);
  core::MeasureOptions opts;
  opts.reps = 2;
  opts.seed = 99;
  opts.jobs = 1;
  opts.faults = &model;
  try {
    (void)core::measure(plan, topo, mach.params, opts);
    FAIL() << "expected FaultAbort";
  } catch (const FaultAbort& e) {
    EXPECT_EQ(e.reason, FaultAbort::Reason::NicUnavailable);
    EXPECT_EQ(e.strategy, plan.strategy_name);
    EXPECT_FALSE(e.path.empty());
  }
}

TEST(FaultSim, ExhaustedRetriesAbortWithStructuredError) {
  const machine::MachineModel mach = machine::preset_machine("lassen");
  const Topology topo = mach.topology(2);
  const core::CommPattern pattern = core::random_pattern(topo, 16, 4096, 5);
  const core::CommPlan plan = core::build_plan(pattern, topo, mach.params,
                                               core::table5_strategies()[0]);

  FaultPlan lossy;
  {
    fault::MessageLoss loss;
    loss.path = "off-node";
    loss.probability = 1.0;  // every attempt lost
    loss.retry.max_attempts = 3;
    lossy.message_loss.push_back(loss);
  }
  const FaultModel model = lossy.compile(topo, mach.params);

  core::MeasureOptions opts;
  opts.reps = 3;
  opts.seed = 99;
  opts.jobs = 1;
  opts.faults = &model;
  try {
    (void)core::measure(plan, topo, mach.params, opts);
    FAIL() << "expected FaultAbort";
  } catch (const FaultAbort& e) {
    EXPECT_EQ(e.reason, FaultAbort::Reason::RetriesExhausted);
    EXPECT_EQ(e.attempts, 3);
    EXPECT_EQ(e.strategy, plan.strategy_name)
        << "measure() fills the strategy before propagating";
    EXPECT_EQ(e.path, "off-node");
    EXPECT_GE(e.src, 0);
    EXPECT_GE(e.dst, 0);
    const std::string what = e.what();
    EXPECT_NE(what.find("off-node"), std::string::npos) << what;
    EXPECT_NE(what.find("3"), std::string::npos) << what;
  }
}

TEST(FaultSim, EngineReusableAfterFaultAbort) {
  const machine::MachineModel mach = machine::preset_machine("lassen");
  const Topology topo = mach.topology(2);
  const core::CommPattern pattern = core::random_pattern(topo, 16, 4096, 5);
  const core::CommPlan plan = core::build_plan(pattern, topo, mach.params,
                                               core::table5_strategies()[0]);

  FaultPlan lossy;
  {
    fault::MessageLoss loss;
    loss.probability = 1.0;
    loss.retry.max_attempts = 2;
    lossy.message_loss.push_back(loss);
  }
  const FaultModel model = lossy.compile(topo, mach.params);

  // A mid-plan abort must leave no pending operations behind (the
  // resolve() failure contract) and a reset engine must be event-for-event
  // equivalent to a fresh one.
  Engine engine(topo, mach.params, NoiseModel(99, 0.02));
  engine.set_faults(&model);
  EXPECT_THROW((void)core::run_plan(engine, plan), FaultAbort);
  EXPECT_FALSE(engine.has_pending());

  engine.set_faults(nullptr);
  engine.reset(123);
  const std::vector<double> reused = core::run_plan(engine, plan);

  Engine fresh(topo, mach.params, NoiseModel(99, 0.02));
  fresh.reset(123);
  EXPECT_EQ(reused, core::run_plan(fresh, plan));

  // The measure() layer recovers the same way: an aborted sweep does not
  // poison a later unfaulted measurement.
  core::MeasureOptions opts;
  opts.reps = 3;
  opts.seed = 99;
  opts.jobs = 1;
  opts.faults = &model;
  EXPECT_THROW((void)core::measure(plan, topo, mach.params, opts), FaultAbort);
  opts.faults = nullptr;
  const Measurement after =
      measure_with(plan, topo, mach.params, nullptr, ExecMode::Compiled, 1);
  EXPECT_EQ(after, measure_with(plan, topo, mach.params, nullptr,
                                ExecMode::Compiled, 1));
}

TEST(FaultSim, MeasureReportsLowestAbortingRepetitionAtAnyJobs) {
  const machine::MachineModel mach = machine::preset_machine("lassen");
  const Topology topo = mach.topology(2);
  const core::CommPattern pattern = core::random_pattern(topo, 16, 4096, 5);
  const core::CommPlan plan = core::build_plan(pattern, topo, mach.params,
                                               core::table5_strategies()[0]);

  // faults/flaky_abort.json's retry budget (two attempts) at a loss rate
  // where many repetitions abort, each at its own message, so concurrent
  // workers routinely race to abort and only the lowest-repetition rule
  // keeps the reported error fixed.
  FaultPlan flaky;
  flaky.seed = 3;
  {
    fault::MessageLoss loss;
    loss.path = "off-node";
    loss.probability = 0.12;
    loss.retry.max_attempts = 2;
    flaky.message_loss.push_back(loss);
  }
  const FaultModel model = flaky.compile(topo, mach.params);

  // Serial reference: the first repetition that aborts, run by hand.
  constexpr int kReps = 48;
  constexpr std::uint64_t kSeed = 3;
  const core::CompiledPlan compiled(plan, topo, mach.params);
  Engine engine(topo, mach.params, NoiseModel(0, 0.02));
  engine.set_faults(&model);
  std::vector<FaultAbort> aborts;
  std::vector<int> abort_reps;
  for (int rep = 0; rep < kReps; ++rep) {
    engine.reset(mix_seed(kSeed, static_cast<std::uint64_t>(rep)));
    try {
      engine.execute(compiled);
    } catch (const FaultAbort& e) {
      aborts.push_back(e);
      abort_reps.push_back(rep);
    }
  }
  // The fixture is only a test of ordering if clean repetitions precede
  // the first abort and later aborts name other messages.
  ASSERT_GE(aborts.size(), 3u);
  ASSERT_GT(abort_reps.front(), 0);
  bool other_message = false;
  for (const FaultAbort& e : aborts) {
    other_message |= e.src != aborts.front().src || e.dst != aborts.front().dst;
  }
  ASSERT_TRUE(other_message);

  const FaultAbort& first = aborts.front();
  core::MeasureOptions opts;
  opts.reps = kReps;
  opts.seed = kSeed;
  opts.noise_sigma = 0.02;
  opts.faults = &model;
  for (const int jobs : {1, 4, 0}) {
    for (int trial = 0; trial < 3; ++trial) {
      opts.jobs = jobs;
      try {
        (void)core::measure(plan, topo, mach.params, opts);
        ADD_FAILURE() << "expected FaultAbort at jobs " << jobs;
      } catch (const FaultAbort& e) {
        EXPECT_EQ(e.reason, first.reason) << "jobs " << jobs;
        EXPECT_EQ(e.src, first.src) << "jobs " << jobs;
        EXPECT_EQ(e.dst, first.dst) << "jobs " << jobs;
        EXPECT_EQ(e.path_id, first.path_id) << "jobs " << jobs;
        EXPECT_EQ(e.attempts, first.attempts) << "jobs " << jobs;
        EXPECT_EQ(e.strategy, plan.strategy_name) << "jobs " << jobs;
      }
    }
  }
}

TEST(FaultSim, MetricsGrowFaultSectionOnlyWhenFaulted) {
  const machine::MachineModel mach = machine::preset_machine("lassen");
  const Topology topo = mach.topology(2);
  const core::CommPattern pattern = core::random_pattern(topo, 16, 4096, 5);
  const core::CommPlan plan = core::build_plan(pattern, topo, mach.params,
                                               core::table5_strategies()[0]);

  core::MeasureOptions opts;
  opts.reps = 3;
  opts.seed = 99;
  opts.jobs = 1;
  opts.collect_metrics = true;

  const core::MeasureResult clean = core::measure(plan, topo, mach.params, opts);
  ASSERT_TRUE(clean.metrics.has_value());
  EXPECT_FALSE(clean.metrics->has_faults());
  EXPECT_EQ(clean.metrics->to_json().find("faults"), nullptr)
      << "fault-free reports keep the pre-fault document shape";

  FaultPlan slow;
  slow.link_degradations.push_back({"", 2.0, 2.0, {}});
  {
    fault::MessageLoss loss;
    loss.probability = 0.3;
    loss.retry.max_attempts = 12;
    slow.message_loss.push_back(loss);
  }
  const FaultModel model = slow.compile(topo, mach.params);
  opts.faults = &model;
  const core::MeasureResult faulted =
      core::measure(plan, topo, mach.params, opts);
  ASSERT_TRUE(faulted.metrics.has_value());
  EXPECT_TRUE(faulted.metrics->has_faults());
  EXPECT_GT(faulted.metrics->faults.retries, 0);
  EXPECT_GT(faulted.metrics->faults.degraded_msgs, 0);
  EXPECT_GT(faulted.metrics->faults.retry_seconds, 0.0);
  EXPECT_NE(faulted.metrics->to_json().find("faults"), nullptr);
}

// ---------------------------------------------------------------------------
// The shared transfer step, pinned at sigma = 0 with hand-computed times.
// Each case runs one off-node message from rank 0 (node 0) to the last rank
// (node 1) through the interpreted and the compiled path.

struct StepRun {
  const char* path = nullptr;
  std::vector<double> clocks;
  obs::EngineMetrics sink;
};

std::vector<StepRun> run_one_message(const Topology& topo,
                                     const ParamSet& params,
                                     const FaultModel* faults,
                                     std::int64_t bytes) {
  core::CommPlan plan;
  plan.phases.emplace_back();
  plan.phases.back().ops.push_back(core::PlanOp::message(
      0, topo.num_ranks() - 1, bytes, 0, MemSpace::Host));
  const core::CompiledPlan compiled(plan, topo, params);

  std::vector<StepRun> runs(2);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    StepRun& run = runs[i];
    Engine engine(topo, params, NoiseModel(7, 0.0));
    engine.set_faults(faults);
    engine.set_metrics(&run.sink);
    if (i == 0) {
      run.path = "interpreted";
      run.clocks = core::run_plan(engine, plan);
    } else {
      run.path = "compiled";
      engine.execute(compiled);
      run.clocks = engine.clocks();
    }
  }
  return runs;
}

/// The unfaulted inputs of run_one_message's message, derived by hand.
struct OneMessage {
  int src = 0;
  int dst = 0;
  double post = 0.0;             ///< isend and irecv posting time
  double send_occupancy = 0.0;   ///< alpha + beta*s
  double drain_occupancy = 0.0;  ///< beta*s
  double completion_base = 0.0;  ///< alpha + beta*s + one queue-search entry
  double nic_occupancy = 0.0;
  Protocol protocol = Protocol::Eager;
};

OneMessage one_message(const Topology& topo, const ParamSet& params,
                       std::int64_t bytes) {
  OneMessage m;
  m.dst = topo.num_ranks() - 1;
  const PathTable paths(topo, params.taxonomy);
  const std::uint8_t path_id = paths.path_of(m.src, m.dst);
  EXPECT_EQ(paths.locality_of(path_id), PathClass::OffNode);
  m.protocol = params.thresholds.select(MemSpace::Host, bytes);
  const PostalParams pp = params.messages.get(MemSpace::Host, m.protocol,
                                              path_id);
  const double size = static_cast<double>(bytes);
  m.post = params.overheads.post_overhead;
  m.send_occupancy = pp.alpha + pp.beta * size;
  m.drain_occupancy = pp.beta * size;
  m.completion_base =
      m.send_occupancy + params.overheads.queue_search_per_entry * 1;
  m.nic_occupancy = params.injection.inv_rate_cpu * size +
                    params.overheads.nic_message_overhead;
  return m;
}

TEST(SharedStep, LostFirstAttemptRetriesOnceAfterItsDelay) {
  const machine::MachineModel mach = machine::preset_machine("lassen");
  const Topology topo = mach.topology(2);
  const std::int64_t bytes = 4096;
  const OneMessage m = one_message(topo, mach.params, bytes);
  ASSERT_EQ(m.protocol, Protocol::Eager);

  FaultModel model;
  model.losses.push_back({-1, 0.5, RetryPolicy{}, FaultWindow{}});
  // The first fault seed whose draws lose the first attempt only.
  std::vector<StepRun> runs;
  for (model.seed = 0; model.seed < 64; ++model.seed) {
    runs = run_one_message(topo, mach.params, &model, bytes);
    if (runs[0].sink.fault_retries == 1) break;
  }
  ASSERT_LT(model.seed, 64u) << "no seed with exactly one retry";

  // Attempt 0 holds every resource from the posting on and is lost at
  // post + completion_base; attempt 1 starts retry_delay(0) later on idle
  // resources.
  const double ready1 =
      m.post + m.completion_base + retry_delay(RetryPolicy{}, 0);
  for (const StepRun& run : runs) {
    EXPECT_EQ(run.sink.fault_retries, 1) << run.path;
    EXPECT_EQ(run.clocks[static_cast<std::size_t>(m.dst)],
              ready1 + m.completion_base)
        << run.path;
    EXPECT_EQ(run.clocks[static_cast<std::size_t>(m.src)],
              ready1 + m.send_occupancy)
        << run.path << ": an eager sender is done once its port hands off";
  }
}

TEST(SharedStep, DeadHomeLaneFailsOverAtUnfaultedTimes) {
  const machine::MachineModel mach = machine::preset_machine("nvisland");
  const Topology topo = mach.topology(2);
  const int lanes = mach.params.injection.nics_per_node;
  ASSERT_EQ(lanes, 2);
  const int home = mach.params.injection.nic_of(topo.rank_location(0));
  const int other = (home + 1) % lanes;  // node 0: server == lane

  FaultModel model;
  model.outages.push_back({0, home, FaultWindow{}});  // down forever
  const std::vector<StepRun> unfaulted =
      run_one_message(topo, mach.params, nullptr, 4096);
  for (const StepRun& run : run_one_message(topo, mach.params, &model, 4096)) {
    EXPECT_EQ(run.clocks, unfaulted[0].clocks) << run.path;
    EXPECT_EQ(run.sink.fault_failovers, 1) << run.path;
    EXPECT_EQ(run.sink.nic_bytes[static_cast<std::size_t>(home)], 0)
        << run.path;
    EXPECT_EQ(run.sink.nic_bytes[static_cast<std::size_t>(other)], 4096)
        << run.path;
  }
}

TEST(SharedStep, NodeWideOutageHoldsTheMessageUntilRecovery) {
  const machine::MachineModel mach = machine::preset_machine("nvisland");
  const Topology topo = mach.topology(2);
  const OneMessage m = one_message(topo, mach.params, 4096);
  const double recovery = 1e-3;

  FaultModel model;
  model.outages.push_back({0, -1, FaultWindow{0.0, recovery}});
  for (const StepRun& run : run_one_message(topo, mach.params, &model, 4096)) {
    EXPECT_EQ(run.clocks[static_cast<std::size_t>(m.dst)],
              recovery + m.completion_base)
        << run.path;
    EXPECT_EQ(run.sink.fault_failovers, 1) << run.path;
  }
}

TEST(SharedStep, StragglerScalesOnlyItsInjection) {
  const machine::MachineModel mach = machine::preset_machine("lassen");
  const Topology topo = mach.topology(2);
  const OneMessage m = one_message(topo, mach.params, 4096);
  ASSERT_EQ(m.protocol, Protocol::Eager);
  const double factor = 3.0;

  FaultModel model;
  model.injection_factor.assign(static_cast<std::size_t>(topo.num_ranks()),
                                1.0);
  model.injection_factor[static_cast<std::size_t>(m.src)] = factor;
  const std::vector<StepRun> unfaulted =
      run_one_message(topo, mach.params, nullptr, 4096);
  for (const StepRun& run : run_one_message(topo, mach.params, &model, 4096)) {
    EXPECT_EQ(run.clocks[static_cast<std::size_t>(m.src)],
              m.post + m.send_occupancy * factor)
        << run.path;
    EXPECT_EQ(run.clocks[static_cast<std::size_t>(m.dst)],
              unfaulted[0].clocks[static_cast<std::size_t>(m.dst)])
        << run.path << ": the completion is unchanged";
    const auto occupancy = [&](obs::SimResource r) {
      return run.sink.occupancy_seconds[static_cast<int>(r)];
    };
    EXPECT_EQ(occupancy(obs::SimResource::SendPort),
              m.send_occupancy * factor)
        << run.path;
    EXPECT_EQ(occupancy(obs::SimResource::NicOut), m.nic_occupancy * factor)
        << run.path;
    EXPECT_EQ(occupancy(obs::SimResource::NicIn), m.nic_occupancy)
        << run.path;
    EXPECT_EQ(occupancy(obs::SimResource::RecvPort), m.drain_occupancy)
        << run.path;
  }
}

// ---------------------------------------------------------------------------
// execute()'s faulted bodies.  A fault model alone runs the faults-only
// body; a metrics sink or tracing beside it runs the all-hooks body.  Both
// must simulate the same bits and fail the same way.

enum class Attach { FaultsOnly, WithMetrics, WithTracing };

/// One repetition's simulated results, and the abort that ended it if any.
struct RepOutcome {
  std::vector<double> clocks;
  std::int64_t network_bytes = 0;
  std::int64_t network_messages = 0;
  bool aborted = false;
  FaultAbort::Reason reason = FaultAbort::Reason::RetriesExhausted;
  int src = -1;
  int dst = -1;
  int attempts = 0;

  bool operator==(const RepOutcome&) const = default;
};

std::vector<RepOutcome> execute_reps(const core::CompiledPlan& plan,
                                     const Topology& topo,
                                     const ParamSet& params,
                                     const FaultModel& model, Attach attach,
                                     std::uint64_t seed, int reps) {
  Engine engine(topo, params, NoiseModel(0, 0.02));
  engine.set_faults(&model);
  obs::EngineMetrics sink;
  if (attach == Attach::WithMetrics) engine.set_metrics(&sink);
  if (attach == Attach::WithTracing) engine.set_tracing(true);
  std::vector<RepOutcome> out;
  for (int rep = 0; rep < reps; ++rep) {
    engine.reset(mix_seed(seed, static_cast<std::uint64_t>(rep)));
    RepOutcome o;
    try {
      engine.execute(plan);
    } catch (const FaultAbort& e) {
      o.aborted = true;
      o.reason = e.reason;
      o.src = e.src;
      o.dst = e.dst;
      o.attempts = e.attempts;
    }
    o.clocks = engine.clocks();
    o.network_bytes = engine.network_bytes();
    o.network_messages = engine.network_messages();
    out.push_back(std::move(o));
  }
  return out;
}

/// Runs every Table-5 strategy's compiled plan under `model` three ways and
/// expects bit-equal outcomes; returns how many repetitions aborted.
int expect_bodies_agree(const machine::MachineModel& mach,
                        const Topology& topo, const FaultModel& model,
                        int reps) {
  const core::CommPattern pattern = core::random_pattern(topo, 16, 4096, 5);
  int aborted = 0;
  for (const core::StrategyConfig& cfg : core::table5_strategies()) {
    const core::CompiledPlan compiled(
        core::build_plan(pattern, topo, mach.params, cfg), topo, mach.params);
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      const std::vector<RepOutcome> lean = execute_reps(
          compiled, topo, mach.params, model, Attach::FaultsOnly, seed, reps);
      EXPECT_EQ(execute_reps(compiled, topo, mach.params, model,
                             Attach::WithMetrics, seed, reps),
                lean)
          << cfg.name() << " seed " << seed << ": metrics sink";
      EXPECT_EQ(execute_reps(compiled, topo, mach.params, model,
                             Attach::WithTracing, seed, reps),
                lean)
          << cfg.name() << " seed " << seed << ": tracing";
      for (const RepOutcome& o : lean) aborted += o.aborted ? 1 : 0;
    }
  }
  return aborted;
}

TEST(FaultBodies, CompositePlanBitEqualAcrossBodies) {
  const machine::MachineModel mach = machine::preset_machine("nvisland");
  const Topology topo = mach.topology(2);
  const FaultModel model = composite_plan().compile(topo, mach.params);
  EXPECT_EQ(expect_bodies_agree(mach, topo, model, 4), 0);
}

TEST(FaultBodies, ExhaustedRetriesAbortAlikeInEveryBody) {
  const machine::MachineModel mach = machine::preset_machine("lassen");
  const Topology topo = mach.topology(2);
  // faults/flaky_abort.json aborts the first off-node message; the 12% rate
  // aborts some repetitions and not others, each at its own message.
  const FaultPlan flaky_abort = fault::load_fault_file(
      std::string(HETCOMM_TEST_DATA_DIR) + "/flaky_abort.json");
  FaultPlan sometimes = flaky_abort;
  sometimes.message_loss.front().probability = 0.12;
  const FaultPlan* const plans[] = {&flaky_abort, &sometimes};
  for (const FaultPlan* plan : plans) {
    const FaultModel model = plan->compile(topo, mach.params);
    const int reps = 12;
    const int aborted = expect_bodies_agree(mach, topo, model, reps);
    EXPECT_GT(aborted, 0) << "p = " << plan->message_loss.front().probability;
    if (plan == &sometimes) {
      EXPECT_LT(aborted, 3 * reps * static_cast<int>(
                                        core::table5_strategies().size()));
    }
  }
}

// ---------------------------------------------------------------------------
// What the per-attach rule scopes may skip.  Engine::set_faults resolves
// which messages no rule can touch; those skip the rule walks but still take
// their schedule-order message id.

/// Every Table-5 strategy's max_avg and per-rank means, on the compiled
/// engine at two workers and on the interpreted engine.
std::vector<Measurement> measure_table5(const machine::MachineModel& mach,
                                        const Topology& topo,
                                        const FaultModel* faults) {
  const core::CommPattern pattern = core::random_pattern(topo, 16, 4096, 5);
  std::vector<Measurement> out;
  for (const core::StrategyConfig& cfg : core::table5_strategies()) {
    const core::CommPlan plan =
        core::build_plan(pattern, topo, mach.params, cfg);
    for (const ExecMode engine : {ExecMode::Compiled, ExecMode::Interpreted}) {
      out.push_back(measure_with(plan, topo, mach.params, faults, engine, 2));
    }
  }
  return out;
}

int class_id(const machine::MachineModel& mach, const char* name) {
  const int id = mach.params.taxonomy.id_of(name);
  EXPECT_GE(id, 0) << name;
  return id;
}

TEST(FaultScope, RuleOnAnUntakenClassChangesNothing) {
  const machine::MachineModel mach = machine::preset_machine("lassen");
  FaultModel model;
  const int off_node = class_id(mach, "off-node");
  model.degradations.push_back({off_node, 4.0, 4.0, {}});
  model.losses.push_back({off_node, 0.3, RetryPolicy{1e-5, 2.0, 1e-3, 50}, {}});

  // On one node no message is off-node, so no message is in scope.
  const Topology one_node = mach.topology(1);
  EXPECT_EQ(measure_table5(mach, one_node, &model),
            measure_table5(mach, one_node, nullptr));
  // On two nodes the same rules are live.
  const Topology two_nodes = mach.topology(2);
  EXPECT_NE(measure_table5(mach, two_nodes, &model),
            measure_table5(mach, two_nodes, nullptr));
}

TEST(FaultScope, SkippedMessagesStillTakeTheirMessageId) {
  const machine::MachineModel mach = machine::preset_machine("lassen");
  const Topology topo = mach.topology(2);
  // Built directly, so no compile step drops the neutral rule.
  FaultModel lossy;
  lossy.seed = 5;
  lossy.losses.push_back(
      {class_id(mach, "off-node"), 0.3, RetryPolicy{1e-5, 2.0, 1e-3, 50}, {}});
  // The x1.0 rule puts on-node messages in scope, so they walk the rules
  // instead of skipping them.  Their ids, and so every off-node loss draw,
  // must not depend on that.
  FaultModel lossy_on_node_in_scope = lossy;
  lossy_on_node_in_scope.degradations.push_back(
      {class_id(mach, "on-node"), 1.0, 1.0, {}});

  const std::vector<Measurement> expected = measure_table5(mach, topo, &lossy);
  EXPECT_NE(expected, measure_table5(mach, topo, nullptr));
  EXPECT_EQ(measure_table5(mach, topo, &lossy_on_node_in_scope), expected);
}

TEST(FaultScope, ComputeOnlyStragglerNeedsNoInjectionScope) {
  const machine::MachineModel mach = machine::preset_machine("lassen");
  const Topology topo = mach.topology(2);
  FaultPlan plan;
  plan.seed = 5;
  plan.stragglers.push_back({0, 1.5, 1.0});
  {
    fault::MessageLoss loss;
    loss.path = "off-node";
    loss.probability = 0.1;
    loss.retry.max_attempts = 50;
    plan.message_loss.push_back(loss);
  }
  const FaultModel compiled = plan.compile(topo, mach.params);
  // compile() fills 1.0 for every rank once any straggler exists.
  ASSERT_EQ(compiled.injection_factor.size(),
            static_cast<std::size_t>(topo.num_ranks()));
  FaultModel no_injection = compiled;
  no_injection.injection_factor.clear();

  const std::vector<Measurement> expected =
      measure_table5(mach, topo, &no_injection);
  EXPECT_NE(expected, measure_table5(mach, topo, nullptr));
  EXPECT_EQ(measure_table5(mach, topo, &compiled), expected);
}

/// Final clocks after one phase at sigma 0, through the interpreted engine
/// and the compiled one with only `faults` attached: an on-node message
/// 0 -> 1, and two off-node ones from rank 2 to the last two ranks, the
/// second queued behind the first on rank 2's NIC lane.
std::vector<std::vector<double>> mixed_phase(const Topology& topo,
                                             const ParamSet& params,
                                             const FaultModel* faults) {
  const int last = topo.num_ranks() - 1;
  core::CommPlan plan;
  plan.phases.emplace_back();
  plan.phases.back().ops = {
      core::PlanOp::message(0, 1, 4096, 0, MemSpace::Host),
      core::PlanOp::message(2, last, 4096, 0, MemSpace::Host),
      core::PlanOp::message(2, last - 1, 4096, 0, MemSpace::Host)};
  const core::CompiledPlan compiled(plan, topo, params);
  std::vector<std::vector<double>> out;
  for (const bool interpreted : {true, false}) {
    Engine engine(topo, params, NoiseModel(7, 0.0));
    engine.set_faults(faults);
    if (interpreted) {
      out.push_back(core::run_plan(engine, plan));
    } else {
      engine.execute(compiled);
      out.push_back(engine.clocks());
    }
  }
  return out;
}

TEST(FaultScope, WildcardAndNicRulesPerturbExactlyTheirMessages) {
  const machine::MachineModel mach = machine::preset_machine("nvisland");
  const Topology topo = mach.topology(2);
  const int last = topo.num_ranks() - 1;
  ASSERT_EQ(topo.node_of_rank(2), 0);
  ASSERT_EQ(topo.node_of_rank(last - 1), 1);
  const std::vector<double> unfaulted =
      mixed_phase(topo, mach.params, nullptr)[0];
  const auto moved = [&](const std::vector<double>& clocks, int rank) {
    return clocks[static_cast<std::size_t>(rank)] !=
           unfaulted[static_cast<std::size_t>(rank)];
  };

  FaultModel wildcard;
  wildcard.degradations.push_back({-1, 2.0, 2.0, {}});
  for (const std::vector<double>& clocks :
       mixed_phase(topo, mach.params, &wildcard)) {
    EXPECT_TRUE(moved(clocks, 1)) << "on-node message";
    EXPECT_TRUE(moved(clocks, last)) << "first off-node message";
    EXPECT_TRUE(moved(clocks, last - 1)) << "second off-node message";
  }

  // A NIC occupancy delays only what queues behind it on the lane: the
  // second off-node message.
  FaultModel nic;
  nic.nic_degradations.push_back({-1, -1, 50.0, 50.0, {}});
  for (const std::vector<double>& clocks :
       mixed_phase(topo, mach.params, &nic)) {
    EXPECT_FALSE(moved(clocks, 0)) << "on-node sender";
    EXPECT_FALSE(moved(clocks, 1)) << "on-node message";
    EXPECT_TRUE(moved(clocks, last - 1)) << "second off-node message";
  }
}

// ---------------------------------------------------------------------------
// Ranking stability.

TEST(RankingStability, DeterministicReportWithConsistentSummary) {
  const machine::MachineModel mach = machine::preset_machine("lassen");
  const Topology topo = mach.topology(2);
  const core::CommPattern pattern = core::random_pattern(topo, 16, 4096, 5);

  FaultPlan plan;
  plan.name = "stability-test";
  plan.seed = 7;
  plan.link_degradations.push_back({"off-node", 1.5, 3.0, {}});
  {
    fault::MessageLoss loss;
    loss.path = "off-node";
    loss.probability = 0.1;
    loss.retry.max_attempts = 12;
    plan.message_loss.push_back(loss);
  }

  fault::StabilityOptions sopts;
  sopts.instances = 3;
  sopts.measure.reps = 2;
  sopts.measure.seed = 99;
  sopts.measure.jobs = 2;

  const fault::StabilityReport report =
      fault::ranking_stability(pattern, topo, mach.params, plan, sopts);
  EXPECT_EQ(report.machine, mach.params.name);
  EXPECT_EQ(report.fault_plan, "stability-test");
  EXPECT_FALSE(report.nominal.winner.empty());
  EXPECT_EQ(report.nominal.outcomes.size(), core::all_strategies().size());
  ASSERT_EQ(report.results.size(), 3u);

  // Instance fault seeds are derived, distinct, and reproducible.
  EXPECT_EQ(report.results[0].fault_seed, mix_seed(7, 0));
  EXPECT_NE(report.results[0].fault_seed, report.results[1].fault_seed);

  int survived = 0;
  for (const fault::StabilityInstance& inst : report.results) {
    EXPECT_EQ(inst.outcomes.size(), report.nominal.outcomes.size());
    if (inst.winner == report.nominal.winner) ++survived;
  }
  EXPECT_EQ(report.winner_survived, survived);
  EXPECT_DOUBLE_EQ(report.survival_rate, survived / 3.0);
  int wins = 0;
  for (const fault::StrategySummary& s : report.strategies) wins += s.wins;
  EXPECT_EQ(wins, 3) << "every instance crowns exactly one winner here";

  EXPECT_TRUE(report.plans_precompiled);
  EXPECT_GE(report.compile_seconds, 0.0);

  // The whole report -- every clock in every instance, every failure -- is
  // the same at any jobs count, for the lossy plan and for one under which
  // every faulted strategy aborts.  Only the compile-reuse accounting is
  // wall-clock (how long the one-time plan compiles actually took), so it
  // is zeroed before comparing.
  const auto normalized = [](fault::StabilityReport r) {
    r.compile_seconds = 0.0;
    r.saved_compile_seconds = 0.0;
    return r;
  };
  const FaultPlan flaky = fault::load_fault_file(
      std::string(HETCOMM_TEST_DATA_DIR) + "/flaky_abort.json");
  const FaultPlan* const plans[] = {&plan, &flaky};
  for (const FaultPlan* fp : plans) {
    std::vector<fault::StabilityReport> reports;
    for (const int jobs : {1, 2, 4}) {
      sopts.measure.jobs = jobs;
      reports.push_back(normalized(
          fault::ranking_stability(pattern, topo, mach.params, *fp, sopts)));
    }
    int failures = 0;
    for (const fault::StabilityInstance& inst : reports[0].results) {
      for (const fault::StrategyOutcome& o : inst.outcomes) {
        failures += o.failed ? 1 : 0;
      }
    }
    if (fp == &flaky) {
      EXPECT_GT(failures, 0) << "flaky_abort must fail some outcomes";
    } else {
      EXPECT_EQ(normalized(report).to_json().dump_string(),
                reports[0].to_json().dump_string())
          << "the jobs-2 report above matches jobs 1";
    }
    for (std::size_t j = 1; j < reports.size(); ++j) {
      EXPECT_EQ(reports[j].to_json().dump_string(),
                reports[0].to_json().dump_string())
          << fp->name << ", report " << j;
      for (std::size_t r = 0; r < reports[0].results.size(); ++r) {
        const auto& want = reports[0].results[r].outcomes;
        const auto& got = reports[j].results[r].outcomes;
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(got[i].failed, want[i].failed) << want[i].strategy;
          EXPECT_EQ(got[i].error, want[i].error) << want[i].strategy;
        }
      }
    }
  }
}

TEST(RankingStability, RejectsBadOptions) {
  const machine::MachineModel mach = machine::preset_machine("lassen");
  const Topology topo = mach.topology(2);
  const core::CommPattern pattern = core::random_pattern(topo, 16, 4096, 5);
  const FaultPlan plan = rich_plan();

  fault::StabilityOptions sopts;
  sopts.instances = 0;
  EXPECT_THROW((void)fault::ranking_stability(pattern, topo, mach.params,
                                              plan, sopts),
               std::invalid_argument);

  FaultPlan bad;
  bad.link_degradations.push_back({"no-such-class", 2.0, 2.0, {}});
  EXPECT_THROW((void)fault::ranking_stability(pattern, topo, mach.params, bad,
                                              fault::StabilityOptions{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace hetcomm
