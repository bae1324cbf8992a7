#include "core/executor.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <optional>
#include <string>
#include <vector>

#include "core/strategy.hpp"
#include "fault/fault_json.hpp"
#include "fault/plan.hpp"
#include "runtime/thread_pool.hpp"

#ifndef HETCOMM_TEST_DATA_DIR
#error "HETCOMM_TEST_DATA_DIR must point at tests/data"
#endif

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

void expect_same(const RepFold& fold, const MeasureResult& m) {
  EXPECT_EQ(fold.max_avg, m.max_avg);
  EXPECT_EQ(fold.makespan_mean, m.makespan_mean);
  EXPECT_EQ(fold.makespan_min, m.makespan_min);
  EXPECT_EQ(fold.makespan_max, m.makespan_max);
  EXPECT_EQ(fold.per_rank_mean, m.per_rank_mean);
}

// One batch on pools of 1, 2 and 4 threads.  It holds plans on Lassen at 2
// and at 4 nodes (two engine keys), the interpreted reference, a job that
// aborts under flaky_abort and a job whose deadline has already passed.
TEST(RepRunnerTest, BatchMatchesMeasureAndIsolatesFailures) {
  const ParamSet params = lassen_params();
  const Topology small{presets::lassen(2)};
  const Topology large{presets::lassen(4)};
  const CommPlan plan2 =
      build_plan(random_pattern(small, 8, 4096, 3), small, params,
                 {StrategyKind::SplitMD, MemSpace::Host});
  const CommPlan plan4 =
      build_plan(random_pattern(large, 8, 4096, 4), large, params,
                 {StrategyKind::ThreeStep, MemSpace::Host});
  const CompiledPlan compiled2(plan2, small, params);
  const CompiledPlan compiled4(plan4, large, params);
  const FaultModel flaky =
      fault::load_fault_file(std::string(HETCOMM_TEST_DATA_DIR) +
                             "/flaky_abort.json")
          .compile(large, params);

  MeasureOptions opts;
  opts.reps = 6;
  opts.noise_sigma = 0.02;
  const auto job_for = [&](const CommPlan& plan, const CompiledPlan* compiled,
                           const Topology& topo, std::uint64_t seed) {
    RepJob job = measure_job(plan, compiled, topo, params, opts);
    job.seed = seed;
    job.engine_key = static_cast<std::uint64_t>(topo.num_nodes());
    return job;
  };
  const std::vector<RepJob> healthy = {job_for(plan2, &compiled2, small, 11),
                                       job_for(plan4, &compiled4, large, 12),
                                       job_for(plan2, nullptr, small, 13)};
  RepJob aborting = job_for(plan4, &compiled4, large, 14);
  aborting.faults = &flaky;
  RepJob expired = job_for(plan2, &compiled2, small, 15);
  expired.deadline = std::chrono::steady_clock::now() - std::chrono::seconds(1);
  const std::vector<RepJob> mixed = {healthy[0], aborting, healthy[1], expired,
                                     healthy[2]};
  const std::size_t healthy_in_mixed[] = {0, 2, 4};

  // Each healthy job measured on its own.
  std::vector<MeasureResult> expected;
  for (const RepJob& job : healthy) {
    MeasureOptions o = opts;
    o.seed = job.seed;
    o.engine = job.compiled != nullptr ? ExecMode::Compiled
                                       : ExecMode::Interpreted;
    expected.push_back(measure(*job.plan, *job.topo, params, o));
  }
  // What measure() throws for the aborting job, and the repetition a
  // serial loop stops at.
  MeasureOptions abort_opts = opts;
  abort_opts.seed = aborting.seed;
  abort_opts.faults = &flaky;
  std::optional<FaultAbort> thrown;
  try {
    (void)measure(plan4, large, params, abort_opts);
  } catch (const FaultAbort& e) {
    thrown = e;
  }
  ASSERT_TRUE(thrown.has_value());
  int first_abort = -1;
  Engine engine(large, params, NoiseModel(0, opts.noise_sigma));
  engine.set_faults(&flaky);
  for (int rep = 0; rep < opts.reps && first_abort < 0; ++rep) {
    engine.reset(mix_seed(aborting.seed, static_cast<std::uint64_t>(rep)));
    try {
      engine.execute(compiled4);
    } catch (const FaultAbort&) {
      first_abort = rep;
    }
  }
  ASSERT_GE(first_abort, 0);

  RepRunner runner;  // one runner across every pool, as serve keeps one
  BatchTrace timed;
  timed.timed = true;
  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    runtime::ThreadPool pool(threads);
    const RepBatch alone = runner.run(healthy, pool);
    const RepBatch batch = runner.run(mixed, pool, timed);
    ASSERT_EQ(batch.jobs.size(), mixed.size());
    for (std::size_t i = 0; i < healthy.size(); ++i) {
      SCOPED_TRACE("healthy job " + std::to_string(i));
      const RepOutcome& shared = batch.jobs[healthy_in_mixed[i]];
      ASSERT_FALSE(alone.jobs[i].failed());
      ASSERT_FALSE(shared.failed());
      expect_same(alone.jobs[i].fold, expected[i]);
      expect_same(shared.fold, expected[i]);
      EXPECT_EQ(shared.reps_run, opts.reps);
    }

    const RepOutcome& aborted = batch.jobs[1];
    EXPECT_EQ(aborted.failed_rep, first_abort);
    try {
      rethrow(aborted, plan4.strategy_name);
    } catch (const FaultAbort& e) {
      EXPECT_STREQ(e.what(), thrown->what());
      EXPECT_EQ(e.reason, thrown->reason);
      EXPECT_EQ(e.strategy, thrown->strategy);
      EXPECT_EQ(e.src, thrown->src);
      EXPECT_EQ(e.dst, thrown->dst);
      EXPECT_EQ(e.path_id, thrown->path_id);
      EXPECT_EQ(e.attempts, thrown->attempts);
    }

    const RepOutcome& late = batch.jobs[3];
    EXPECT_EQ(late.failed_rep, 0);
    EXPECT_FALSE(late.error);
    EXPECT_EQ(late.reps_run, 0);
    EXPECT_EQ(late.busy_seconds, 0.0);

    std::int64_t worker_reps = 0;
    for (const obs::WorkerStat& w : batch.workers) worker_reps += w.reps;
    std::int64_t job_reps = 0;
    for (const RepOutcome& o : batch.jobs) job_reps += o.reps_run;
    EXPECT_EQ(worker_reps, job_reps);
  }
}

}  // namespace
}  // namespace hetcomm::core
