// The CompiledPlan contract: compiled execution is bit-identical -- per-rank
// clocks, traces, counters, statistics -- to the interpreted
// isend/irecv/copy/pack + resolve() path, for every Table 5 strategy flavor,
// at any jobs count, with and without a fabric.

#include "core/compiled_plan.hpp"

#include <gtest/gtest.h>

#include "core/executor.hpp"
#include "core/strategy.hpp"

namespace hetcomm::core {
namespace {

void expect_traces_identical(const Trace& a, const Trace& b) {
  ASSERT_EQ(a.messages.size(), b.messages.size());
  for (std::size_t i = 0; i < a.messages.size(); ++i) {
    const MessageTrace& ma = a.messages[i];
    const MessageTrace& mb = b.messages[i];
    EXPECT_EQ(ma.src, mb.src) << "message " << i;
    EXPECT_EQ(ma.dst, mb.dst) << "message " << i;
    EXPECT_EQ(ma.bytes, mb.bytes) << "message " << i;
    EXPECT_EQ(ma.tag, mb.tag) << "message " << i;
    EXPECT_EQ(ma.space, mb.space) << "message " << i;
    EXPECT_EQ(ma.protocol, mb.protocol) << "message " << i;
    EXPECT_EQ(ma.path, mb.path) << "message " << i;
    EXPECT_EQ(ma.ready, mb.ready) << "message " << i;
    EXPECT_EQ(ma.start, mb.start) << "message " << i;
    EXPECT_EQ(ma.completion, mb.completion) << "message " << i;
  }
  ASSERT_EQ(a.copies.size(), b.copies.size());
  for (std::size_t i = 0; i < a.copies.size(); ++i) {
    EXPECT_EQ(a.copies[i].rank, b.copies[i].rank) << "copy " << i;
    EXPECT_EQ(a.copies[i].gpu, b.copies[i].gpu) << "copy " << i;
    EXPECT_EQ(a.copies[i].bytes, b.copies[i].bytes) << "copy " << i;
    EXPECT_EQ(a.copies[i].start, b.copies[i].start) << "copy " << i;
    EXPECT_EQ(a.copies[i].completion, b.copies[i].completion) << "copy " << i;
  }
}

class CompiledPlanTest : public ::testing::Test {
 protected:
  Topology topo_{presets::lassen(4)};
  ParamSet params_ = lassen_params();

  // Irregular pattern touching every path class and both protocols used by
  // the strategies: on-socket, on-node, off-node; short/eager/rendezvous.
  CommPattern pattern() const {
    CommPattern p(topo_.num_gpus());
    p.add(0, 4, 40000);
    p.add(1, 5, 40000);
    p.add(2, 9, 20000);
    p.add(0, 2, 8000);
    p.add(3, 12, 300);
    p.add(7, 1, 120000);
    p.add(5, 14, 2048);
    return p;
  }
};

TEST_F(CompiledPlanTest, EngineLevelBitIdentityForAllStrategies) {
  // Fresh engine + run_plan vs fresh engine + execute(compiled), same noise
  // seed: every clock and every traced event must agree to the bit.
  for (const StrategyConfig& cfg : all_strategies()) {
    const CommPlan plan = build_plan(pattern(), topo_, params_, cfg);
    const CompiledPlan compiled(plan, topo_, params_);

    Engine interpreted(topo_, params_, NoiseModel(0xabcd, 0.03));
    interpreted.set_tracing(true);
    const std::vector<double> clocks_i = run_plan(interpreted, plan);

    Engine fast(topo_, params_, NoiseModel(0xabcd, 0.03));
    fast.set_tracing(true);
    fast.execute(compiled);

    for (int r = 0; r < topo_.num_ranks(); ++r) {
      EXPECT_EQ(clocks_i[static_cast<std::size_t>(r)], fast.clock(r))
          << plan.strategy_name << " rank " << r;
    }
    EXPECT_EQ(interpreted.network_bytes(), fast.network_bytes())
        << plan.strategy_name;
    EXPECT_EQ(interpreted.network_messages(), fast.network_messages())
        << plan.strategy_name;
    expect_traces_identical(interpreted.trace(), fast.trace());
  }
}

TEST_F(CompiledPlanTest, MeasureBitIdenticalAcrossEnginesAndJobs) {
  // measure() statistics must not depend on the execution mode at jobs in
  // {1, 4, hardware}.
  for (const StrategyConfig& cfg : all_strategies()) {
    const CommPlan plan = build_plan(pattern(), topo_, params_, cfg);
    for (const int jobs : {1, 4, 0}) {
      MeasureOptions opts;
      opts.reps = 6;
      opts.seed = 0xfeedULL;
      opts.noise_sigma = 0.04;
      opts.jobs = jobs;
      opts.engine = ExecMode::Interpreted;
      const MeasureResult a = measure(plan, topo_, params_, opts);
      opts.engine = ExecMode::Compiled;
      const MeasureResult b = measure(plan, topo_, params_, opts);

      EXPECT_EQ(a.max_avg, b.max_avg)
          << plan.strategy_name << " jobs=" << jobs;
      EXPECT_EQ(a.makespan_mean, b.makespan_mean)
          << plan.strategy_name << " jobs=" << jobs;
      EXPECT_EQ(a.makespan_min, b.makespan_min)
          << plan.strategy_name << " jobs=" << jobs;
      EXPECT_EQ(a.makespan_max, b.makespan_max)
          << plan.strategy_name << " jobs=" << jobs;
      ASSERT_EQ(a.per_rank_mean.size(), b.per_rank_mean.size());
      for (std::size_t r = 0; r < a.per_rank_mean.size(); ++r) {
        EXPECT_EQ(a.per_rank_mean[r], b.per_rank_mean[r])
            << plan.strategy_name << " jobs=" << jobs << " rank " << r;
      }
    }
  }
}

TEST_F(CompiledPlanTest, CompiledMatchesInterpretedWithFabric) {
  // Tapered fat-tree pod links and per-hop latency take the compiled path's
  // off-node branch; both paths must queue identically.
  const CommPlan plan = build_plan(pattern(), topo_, params_,
                                   {StrategyKind::Standard, MemSpace::Host});
  const CompiledPlan compiled(plan, topo_, params_);
  FatTreeConfig cfg;
  cfg.taper = 4.0;
  cfg.nodes_per_pod = 2;

  Engine interpreted(topo_, params_, NoiseModel(7, 0.02));
  interpreted.set_fabric(cfg);
  interpreted.set_tracing(true);
  const std::vector<double> clocks_i = run_plan(interpreted, plan);

  Engine fast(topo_, params_, NoiseModel(7, 0.02));
  fast.set_fabric(cfg);
  fast.set_tracing(true);
  fast.execute(compiled);

  for (int r = 0; r < topo_.num_ranks(); ++r) {
    EXPECT_EQ(clocks_i[static_cast<std::size_t>(r)], fast.clock(r))
        << "rank " << r;
  }
  expect_traces_identical(interpreted.trace(), fast.trace());

  // A fabric alone, untraced, still runs execute()'s hooked instantiation.
  Engine untraced(topo_, params_, NoiseModel(7, 0.02));
  untraced.set_fabric(cfg);
  untraced.execute(compiled);
  EXPECT_EQ(untraced.clocks(), clocks_i);
}

TEST_F(CompiledPlanTest, ReusedEngineMatchesFreshEnginePerRep) {
  // The measure() usage pattern: one engine, reset(mix_seed(base, rep)) +
  // execute per repetition must equal a freshly constructed engine running
  // the interpreted path at the same seed, for every rep -- clocks and
  // every traced event, so a repetition's events depend only on its seed.
  const CommPlan plan = build_plan(pattern(), topo_, params_,
                                   {StrategyKind::SplitMD, MemSpace::Host});
  const CompiledPlan compiled(plan, topo_, params_);
  Engine reused(topo_, params_, NoiseModel(0, 0.05));
  reused.set_tracing(true);  // survives reset()
  for (std::uint64_t rep = 0; rep < 8; ++rep) {
    reused.reset(mix_seed(0x5eed, rep));
    reused.execute(compiled);
    Engine fresh(topo_, params_, NoiseModel(mix_seed(0x5eed, rep), 0.05));
    fresh.set_tracing(true);
    const std::vector<double> clocks = run_plan(fresh, plan);
    for (int r = 0; r < topo_.num_ranks(); ++r) {
      EXPECT_EQ(clocks[static_cast<std::size_t>(r)], reused.clock(r))
          << "rep " << rep << " rank " << r;
    }
    ASSERT_FALSE(reused.trace().messages.empty()) << "rep " << rep;
    expect_traces_identical(fresh.trace(), reused.trace());
  }
}

TEST_F(CompiledPlanTest, MatchingIsIdentityAndCountersPrecomputed) {
  // White-box: run_plan posts each send with its matching receive, so FIFO
  // matching degenerates to the identity (one message record holds both
  // ends; bit-identity with the interpreter checks the pairing), and the
  // phase network counters equal the plan summary's internode aggregates.
  const CommPlan plan = build_plan(pattern(), topo_, params_,
                                   {StrategyKind::Standard, MemSpace::Host});
  const CompiledPlan compiled(plan, topo_, params_);
  const PlanSummary summary = plan.summarize(topo_);
  std::int64_t net_bytes = 0, net_messages = 0;
  for (const CompiledPhase& phase : compiled.phases()) {
    net_bytes += phase.network_bytes;
    net_messages += phase.network_messages;
  }
  EXPECT_EQ(net_bytes, summary.internode_bytes);
  EXPECT_EQ(net_messages, summary.internode_messages);
  EXPECT_EQ(compiled.total_messages(), summary.messages);
}

TEST_F(CompiledPlanTest, CompileValidatesOperands) {
  CommPlan plan;
  plan.phases.emplace_back();
  plan.phases.back().ops.push_back(
      PlanOp::message(0, topo_.num_ranks(), 100, 0, MemSpace::Host));
  EXPECT_THROW((void)CompiledPlan(plan, topo_, params_), std::out_of_range);

  plan.phases.back().ops[0] = PlanOp::message(0, 1, -4, 0, MemSpace::Host);
  EXPECT_THROW((void)CompiledPlan(plan, topo_, params_),
               std::invalid_argument);

  plan.phases.back().ops[0] =
      PlanOp::copy(0, topo_.num_gpus(), CopyDir::DeviceToHost, 64);
  EXPECT_THROW((void)CompiledPlan(plan, topo_, params_), std::out_of_range);

  plan.phases.back().ops[0] =
      PlanOp::copy(0, 0, CopyDir::DeviceToHost, 64, 0);
  EXPECT_THROW((void)CompiledPlan(plan, topo_, params_),
               std::invalid_argument);

  plan.phases.back().ops[0] = PlanOp::pack(-1, 64);
  EXPECT_THROW((void)CompiledPlan(plan, topo_, params_), std::out_of_range);
}

TEST_F(CompiledPlanTest, ExecuteRejectsPendingOpsAndWrongShape) {
  const CommPlan plan = build_plan(pattern(), topo_, params_,
                                   {StrategyKind::Standard, MemSpace::Host});
  const CompiledPlan compiled(plan, topo_, params_);

  Engine engine(topo_, params_);
  engine.isend(0, 1, 64, 0, MemSpace::Host);
  EXPECT_THROW(engine.execute(compiled), std::logic_error);
  engine.reset();
  engine.execute(compiled);  // fine after reset
  EXPECT_GT(engine.max_clock(), 0.0);

  Engine small(Topology(presets::lassen(2)), params_);
  EXPECT_THROW(small.execute(compiled), std::invalid_argument);
}

TEST_F(CompiledPlanTest, RunPlanSpanOverloadsValidateSize) {
  const CommPlan plan = build_plan(pattern(), topo_, params_,
                                   {StrategyKind::Standard, MemSpace::Host});
  const CompiledPlan compiled(plan, topo_, params_);
  Engine engine(topo_, params_);
  std::vector<double> wrong(static_cast<std::size_t>(topo_.num_ranks()) - 1);
  EXPECT_THROW(run_plan(engine, plan, wrong), std::invalid_argument);
  EXPECT_THROW(run_plan(engine, compiled, wrong), std::invalid_argument);

  std::vector<double> right(static_cast<std::size_t>(topo_.num_ranks()));
  run_plan(engine, compiled, right);
  EXPECT_EQ(*std::max_element(right.begin(), right.end()),
            engine.max_clock());
}

}  // namespace
}  // namespace hetcomm::core
