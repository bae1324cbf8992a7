// Message-splitting plan lowering: multi-rail striping and chunked
// pipelining as first-class strategy variants.
//
//   * apply_split() structure: chunk counts, rail assignment, dependency
//     chains, byte conservation (check_split_against);
//   * PlanSummary per-path / per-rail accounting for standard vs striped
//     lowerings of the same pattern;
//   * plan_check validation of split plans (rail bounds, dependency rules);
//   * engine semantics: rail pinning, dependency waves, validation throws;
//   * bit-identity of the split variants across {compiled, interpreted} x
//     jobs;
//   * identity lowerings reported as aliases of their base strategy;
//   * a machine/pattern where a multi-rail variant beats every single-rail
//     Table-5 strategy, and rail-outage-mid-stripe degradation.

#include "core/plan_transform.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/compiled_plan.hpp"
#include "core/executor.hpp"
#include "core/plan_check.hpp"
#include "core/strategy.hpp"
#include "fault/plan.hpp"
#include "machine/machine.hpp"
#include "obs/engine_metrics.hpp"

namespace hetcomm::core {
namespace {

bool has_violation(const PlanCheckResult& r, const std::string& needle) {
  for (const std::string& v : r.violations) {
    if (v.find(needle) != std::string::npos) return true;
  }
  return false;
}

/// Dual-rail fixture: nvisland exposes 2 NIC lanes per node.
class SplitLoweringTest : public ::testing::Test {
 protected:
  machine::MachineModel mach_ = machine::preset_machine("nvisland");
  Topology topo_ = mach_.topology(3);
  ParamSet params_ = mach_.params;

  // Off-node-heavy pattern with rendezvous-sized transfers (eager_max is
  // 16384) plus smaller traffic on every path class.
  CommPattern pattern() const {
    CommPattern p(topo_.num_gpus());
    p.add(0, 4, 250000);
    p.add(1, 5, 250000);
    p.add(2, 9, 120000);
    p.add(0, 2, 8000);
    p.add(3, 11, 300);
    p.add(7, 1, 90000);
    p.add(5, 10, 2048);
    return p;
  }
};

TEST_F(SplitLoweringTest, StripeSplitsRendezvousMessagesAcrossRails) {
  const int src = topo_.owner_rank_of_gpu(0);
  const int dst = topo_.owner_rank_of_gpu(4);  // other node
  CommPlan plan;
  plan.strategy_name = "hand";
  PlanPhase phase;
  phase.label = "exchange";
  phase.ops.push_back(PlanOp::message(src, dst, 100001, 7, MemSpace::Host));
  phase.ops.push_back(PlanOp::message(src, dst, 4096, 8, MemSpace::Host));
  plan.phases.push_back(phase);

  const CommPlan low = apply_split(plan, topo_, params_, SplitMode::Striped);
  ASSERT_EQ(low.phases.size(), 1u);
  ASSERT_EQ(low.phases[0].ops.size(), 3u);  // 2 chunks + untouched eager
  const PlanOp& c0 = low.phases[0].ops[0];
  const PlanOp& c1 = low.phases[0].ops[1];
  EXPECT_EQ(c0.rail, 0);
  EXPECT_EQ(c1.rail, 1);
  EXPECT_EQ(c0.tag, 7);
  EXPECT_EQ(c1.tag, 7);
  EXPECT_EQ(c0.bytes + c1.bytes, 100001);
  EXPECT_LE(std::abs(c0.bytes - c1.bytes), 1);
  EXPECT_EQ(low.phases[0].ops[2].rail, -1);

  const PlanCheckResult conserved = check_split_against(low, plan);
  EXPECT_TRUE(conserved.ok) << (conserved.violations.empty()
                                    ? ""
                                    : conserved.violations.front());
}

TEST_F(SplitLoweringTest, StripeIsIdentityOnSingleRailMachines) {
  const ParamSet lassen = lassen_params();  // one NIC lane
  for (const StrategyConfig& cfg : table5_strategies()) {
    const CommPlan plan = build_plan(pattern(), topo_, lassen, cfg);
    const CommPlan low = apply_split(plan, topo_, lassen, SplitMode::Striped);
    const PlanSummary a = plan.summarize(topo_);
    const PlanSummary b = low.summarize(topo_);
    EXPECT_EQ(a.messages, b.messages) << cfg.name();
    EXPECT_TRUE(b.rails.empty()) << cfg.name();
  }

  // So on a single-rail machine each striped variant is an alias of its
  // base strategy, whose plan it builds op for op; on dual-rail nvisland
  // no variant is an alias.
  const std::vector<StrategyConfig> roster = all_strategies();
  const std::vector<int> lassen_alias = identity_aliases(roster, lassen);
  int aliases = 0;
  for (std::size_t i = 0; i < roster.size(); ++i) {
    if (lassen_alias[i] < 0) {
      EXPECT_NE(roster[i].split, SplitMode::Striped) << roster[i].name();
      continue;
    }
    ++aliases;
    const StrategyConfig& base =
        roster[static_cast<std::size_t>(lassen_alias[i])];
    EXPECT_EQ(roster[i].split, SplitMode::Striped) << roster[i].name();
    EXPECT_EQ(base.split, SplitMode::None) << roster[i].name();
    EXPECT_EQ(base.kind, roster[i].kind) << roster[i].name();
    EXPECT_EQ(base.transport, roster[i].transport) << roster[i].name();
    const CommPlan variant = build_plan(pattern(), topo_, lassen, roster[i]);
    const CommPlan original = build_plan(pattern(), topo_, lassen, base);
    ASSERT_EQ(variant.phases.size(), original.phases.size());
    for (std::size_t p = 0; p < variant.phases.size(); ++p) {
      EXPECT_EQ(variant.phases[p].ops.size(), original.phases[p].ops.size())
          << roster[i].name() << " phase " << p;
    }
  }
  EXPECT_EQ(aliases, 4);
  for (const int a : identity_aliases(roster, params_)) EXPECT_EQ(a, -1);
}

TEST_F(SplitLoweringTest, ChunkedPipelineCarvesCopyIntoDependentPairs) {
  const int src = topo_.owner_rank_of_gpu(0);
  const int dst = topo_.owner_rank_of_gpu(4);
  CommPlan plan;
  plan.strategy_name = "hand";
  PlanPhase stage;
  stage.label = "stage";
  stage.ops.push_back(
      PlanOp::copy(src, 0, CopyDir::DeviceToHost, 100000, 1));
  PlanPhase wire;
  wire.label = "wire";
  wire.ops.push_back(PlanOp::message(src, dst, 100000, 3, MemSpace::Host));
  plan.phases.push_back(stage);
  plan.phases.push_back(wire);

  const CommPlan low =
      apply_split(plan, topo_, params_, SplitMode::ChunkedPipeline);
  ASSERT_EQ(low.phases.size(), 2u);
  EXPECT_TRUE(low.phases[0].ops.empty());  // copy fully carved away
  ASSERT_EQ(low.phases[1].ops.size(),
            2u * static_cast<std::size_t>(kDefaultPipelineDepth));
  std::int64_t copy_bytes = 0;
  std::int64_t msg_bytes = 0;
  for (std::size_t i = 0; i < low.phases[1].ops.size(); i += 2) {
    const PlanOp& copy = low.phases[1].ops[i];
    const PlanOp& msg = low.phases[1].ops[i + 1];
    ASSERT_EQ(copy.type, OpType::Copy);
    ASSERT_EQ(msg.type, OpType::Message);
    EXPECT_EQ(msg.depends_on, static_cast<int>(i));
    EXPECT_EQ(copy.bytes, msg.bytes);
    copy_bytes += copy.bytes;
    msg_bytes += msg.bytes;
  }
  EXPECT_EQ(copy_bytes, 100000);
  EXPECT_EQ(msg_bytes, 100000);

  const PlanCheckResult conserved = check_split_against(low, plan);
  EXPECT_TRUE(conserved.ok);
  EXPECT_EQ(low.summarize(topo_).dependent_messages, kDefaultPipelineDepth);
}

// Satellite: PlanSummary per-path-class / per-rail accounting for the same
// pattern through standard vs striped lowering.
TEST_F(SplitLoweringTest, SummaryAccountsBytesPerRailForStripedLowering) {
  const StrategyConfig standard = parse_strategy("3-step (staged)");
  const StrategyConfig striped = parse_strategy("3-step (staged, striped)");
  const CommPlan base = build_plan(pattern(), topo_, params_, standard);
  const CommPlan low = build_plan(pattern(), topo_, params_, striped);

  const PlanSummary a = base.summarize(topo_);
  const PlanSummary b = low.summarize(topo_);

  // Byte totals per path class are conserved; striping only multiplies the
  // off-node message count.
  for (std::size_t p = 0; p < a.by_path.size(); ++p) {
    EXPECT_EQ(a.by_path[p].bytes, b.by_path[p].bytes) << "path " << p;
  }
  EXPECT_EQ(a.by_path[0].messages, b.by_path[0].messages);
  EXPECT_EQ(a.by_path[1].messages, b.by_path[1].messages);
  EXPECT_GT(b.by_path[2].messages, a.by_path[2].messages);

  // The standard plan pins nothing; the striped plan reports near-even
  // bytes per rail and pins every rendezvous-sized off-node transfer.
  EXPECT_TRUE(a.rails.empty());
  EXPECT_EQ(a.unrailed.bytes, a.internode_bytes);
  ASSERT_EQ(b.rails.size(), 2u);
  EXPECT_GT(b.rails[0].bytes, 0);
  EXPECT_GT(b.rails[1].bytes, 0);
  EXPECT_LE(std::abs(b.rails[0].bytes - b.rails[1].bytes),
            b.rails[0].messages + b.rails[1].messages);
  EXPECT_EQ(b.rails[0].bytes + b.rails[1].bytes + b.unrailed.bytes,
            b.internode_bytes);
  EXPECT_EQ(a.dependent_messages, 0);
  EXPECT_EQ(b.dependent_messages, 0);

  const StrategyConfig chunked =
      parse_strategy("standard (staged, chunked-pipeline)");
  const CommPlan pipe = build_plan(pattern(), topo_, params_, chunked);
  EXPECT_GT(pipe.summarize(topo_).dependent_messages, 0);
}

// Satellite: plan_check validates split-plan structure.
TEST_F(SplitLoweringTest, PlanCheckAcceptsLoweredVariantPlans) {
  for (const StrategyConfig& cfg : split_variant_strategies()) {
    const CommPlan plan = build_plan(pattern(), topo_, params_, cfg);
    const PlanCheckResult r =
        check_plan(plan, pattern(), topo_, cfg.transport == MemSpace::Host,
                   params_.injection.nics_per_node);
    EXPECT_TRUE(r.ok) << cfg.name() << ": "
                      << (r.violations.empty() ? "" : r.violations.front());
  }
}

TEST_F(SplitLoweringTest, PlanCheckFlagsBadSplitStructure) {
  const int src = topo_.owner_rank_of_gpu(0);
  const int dst = topo_.owner_rank_of_gpu(4);
  const int other = topo_.owner_rank_of_gpu(8);
  const CommPattern empty(topo_.num_gpus());

  {  // Rail outside the machine's lanes.
    CommPlan plan;
    PlanPhase ph;
    ph.ops.push_back(
        PlanOp::message(src, dst, 1000, 0, MemSpace::Host, /*rail=*/5));
    plan.phases.push_back(ph);
    const PlanCheckResult r = check_plan(plan, empty, topo_, true, 2);
    EXPECT_TRUE(has_violation(r, "outside the machine's 2 NIC lane(s)"));
    // Without a lane count the bound check is skipped.
    const PlanCheckResult skip = check_plan(plan, empty, topo_, true, 0);
    EXPECT_FALSE(has_violation(skip, "NIC lane"));
  }
  {  // Rail pinned on an on-node message can never take effect.
    CommPlan plan;
    PlanPhase ph;
    ph.ops.push_back(PlanOp::message(src, src + 1, 1000, 0, MemSpace::Host,
                                     /*rail=*/0));
    plan.phases.push_back(ph);
    const PlanCheckResult r = check_plan(plan, empty, topo_, true, 2);
    EXPECT_TRUE(has_violation(r, "rail pinned on an on-node message"));
  }
  {  // Forward dependency = cycle.
    CommPlan plan;
    PlanPhase ph;
    ph.ops.push_back(PlanOp::message(src, dst, 1000, 0, MemSpace::Host, -1,
                                     /*depends_on=*/1));
    ph.ops.push_back(PlanOp::message(src, dst, 1000, 1, MemSpace::Host));
    plan.phases.push_back(ph);
    const PlanCheckResult r = check_plan(plan, empty, topo_, true, 2);
    EXPECT_TRUE(has_violation(r, "does not reference an earlier op"));
  }
  {  // Message gated on a copy owned by a different rank.
    CommPlan plan;
    PlanPhase ph;
    ph.ops.push_back(
        PlanOp::copy(other, 8, CopyDir::DeviceToHost, 1000, 1));
    ph.ops.push_back(PlanOp::message(src, dst, 1000, 0, MemSpace::Host, -1,
                                     /*depends_on=*/0));
    plan.phases.push_back(ph);
    const PlanCheckResult r = check_plan(plan, empty, topo_, true, 2);
    EXPECT_TRUE(has_violation(r, "different rank"));
  }
  {  // Copies execute during posting; they cannot wait on a message.
    CommPlan plan;
    PlanPhase ph;
    ph.ops.push_back(PlanOp::message(src, dst, 1000, 0, MemSpace::Host));
    PlanOp copy = PlanOp::copy(src, 0, CopyDir::DeviceToHost, 1000, 1);
    copy.depends_on = 0;
    ph.ops.push_back(copy);
    plan.phases.push_back(ph);
    const PlanCheckResult r = check_plan(plan, empty, topo_, true, 2);
    EXPECT_TRUE(has_violation(r, "copy/pack depends on a message"));
  }
}

TEST_F(SplitLoweringTest, CheckSplitAgainstDetectsByteTampering) {
  const StrategyConfig striped = parse_strategy("3-step (staged, striped)");
  const StrategyConfig standard = parse_strategy("3-step (staged)");
  const CommPlan logical = build_plan(pattern(), topo_, params_, standard);
  CommPlan low = build_plan(pattern(), topo_, params_, striped);
  EXPECT_TRUE(check_split_against(low, logical).ok);

  for (PlanPhase& ph : low.phases) {
    for (PlanOp& op : ph.ops) {
      if (op.type == OpType::Message && op.rail >= 0) {
        op.bytes -= 1;  // drop a byte from one chunk
        const PlanCheckResult r = check_split_against(low, logical);
        EXPECT_FALSE(r.ok);
        EXPECT_TRUE(has_violation(r, "chunk bytes"));
        return;
      }
    }
  }
  FAIL() << "striped plan contained no railed chunk";
}

// -- Engine semantics ------------------------------------------------------

TEST_F(SplitLoweringTest, EngineValidatesRailAndDependencyArguments) {
  Engine engine(topo_, params_);
  const int dst = topo_.rank_of(1, 0, 0);
  EXPECT_THROW(engine.isend(0, dst, 1000, 0, MemSpace::Host, /*rail=*/2),
               std::invalid_argument);
  EXPECT_THROW(engine.isend(0, dst, 1000, 0, MemSpace::Host, -1,
                            /*depends_on=*/99),
               std::invalid_argument);
  // Valid rail + dep chain resolves.
  const int first = engine.isend(0, dst, 50000, 0, MemSpace::Host, 0);
  engine.irecv(dst, 0, 50000, 0, MemSpace::Host);
  engine.isend(0, dst, 50000, 1, MemSpace::Host, 1, first);
  engine.irecv(dst, 0, 50000, 1, MemSpace::Host);
  EXPECT_NO_THROW(engine.resolve());
}

TEST_F(SplitLoweringTest, DependentMessageWaitsForItsDependency) {
  Engine engine(topo_, params_);
  engine.set_tracing(true);
  const int dst = topo_.rank_of(1, 0, 0);
  const int first = engine.isend(0, dst, 80000, 0, MemSpace::Host);
  engine.irecv(dst, 0, 80000, 0, MemSpace::Host);
  engine.isend(0, dst, 80000, 1, MemSpace::Host, -1, first);
  engine.irecv(dst, 0, 80000, 1, MemSpace::Host);
  engine.resolve();
  const Trace& t = engine.trace();
  ASSERT_EQ(t.messages.size(), 2u);
  const MessageTrace* dep = nullptr;
  const MessageTrace* gated = nullptr;
  for (const MessageTrace& m : t.messages) {
    if (m.tag == 0) dep = &m;
    if (m.tag == 1) gated = &m;
  }
  ASSERT_NE(dep, nullptr);
  ASSERT_NE(gated, nullptr);
  EXPECT_GE(gated->ready, dep->completion);
}

TEST_F(SplitLoweringTest, ExplicitRailOverridesHashAssignment) {
  // Same transfer pinned to rail 0 vs rail 1 must exercise different NIC
  // lane servers: metrics see egress on different lane indices.
  for (int rail = 0; rail < 2; ++rail) {
    Engine engine(topo_, params_);
    obs::EngineMetrics sink;
    engine.set_metrics(&sink);
    const int dst = topo_.rank_of(1, 0, 0);
    engine.isend(0, dst, 100000, 0, MemSpace::Host, rail);
    engine.irecv(dst, 0, 100000, 0, MemSpace::Host);
    engine.resolve();
    // Lane servers are node * 2 + rail on both endpoints.
    ASSERT_GT(sink.nic_bytes.size(), static_cast<std::size_t>(2 + rail));
    EXPECT_EQ(sink.nic_bytes[static_cast<std::size_t>(rail)], 100000);
    EXPECT_EQ(sink.nic_striped_bytes[static_cast<std::size_t>(rail)], 100000);
    EXPECT_EQ(sink.nic_bytes[static_cast<std::size_t>(1 - rail)], 0);
  }
}

// -- Bit identity ----------------------------------------------------------

TEST_F(SplitLoweringTest, VariantsBitIdenticalAcrossEnginesAndJobs) {
  for (const StrategyConfig& cfg : split_variant_strategies()) {
    const CommPlan plan = build_plan(pattern(), topo_, params_, cfg);
    MeasureOptions opts;
    opts.reps = 6;
    opts.seed = 0xfeedULL;
    opts.noise_sigma = 0.04;
    opts.jobs = 1;
    opts.engine = ExecMode::Interpreted;
    const MeasureResult ref = measure(plan, topo_, params_, opts);
    for (const int jobs : {1, 4, 0}) {
      opts.engine = ExecMode::Compiled;
      opts.jobs = jobs;
      const MeasureResult got = measure(plan, topo_, params_, opts);
      EXPECT_EQ(ref.max_avg, got.max_avg) << cfg.name() << " jobs=" << jobs;
      EXPECT_EQ(ref.makespan_mean, got.makespan_mean)
          << cfg.name() << " jobs=" << jobs;
      ASSERT_EQ(ref.per_rank_mean.size(), got.per_rank_mean.size());
      for (std::size_t r = 0; r < ref.per_rank_mean.size(); ++r) {
        EXPECT_EQ(ref.per_rank_mean[r], got.per_rank_mean[r])
            << cfg.name() << " rank " << r;
      }
    }
  }
}

// -- The multi-rail payoff -------------------------------------------------

// NIC-bound fixture: slow rails (2.5 GB/s each), every heavy flow pinned to
// socket 0, and destination nodes chosen so 3-step's per-destination send
// leaders (dst_node % gpn) land on socket-0 GPUs too.  Every unsplit plan
// then queues its rendezvous transfers through lane 0 of node 0 (split+MD/DD
// reach lane 1 via socket-1 processes, but pay the per-chunk serialization
// tail), while the striped lowerings spread each transfer across both lanes.
class MultiRailPayoffTest : public ::testing::Test {
 protected:
  machine::MachineModel mach_ = machine::preset_machine("nvisland");
  Topology topo_ = mach_.topology(6);
  ParamSet params_ = [this] {
    ParamSet p = mach_.params;
    p.injection.inv_rate_cpu = 4.0e-10;
    p.injection.inv_rate_gpu = 4.0e-10;
    return p;
  }();

  CommPattern pattern() const {
    CommPattern p(topo_.num_gpus());
    p.add(0, 16, 1 << 20);  // node 0 socket 0 -> node 4 (leader gpu 0)
    p.add(0, 20, 1 << 20);  // node 0 socket 0 -> node 5 (leader gpu 1)
    p.add(1, 17, 1 << 20);
    p.add(1, 21, 1 << 20);
    return p;
  }
};

TEST_F(MultiRailPayoffTest, StripedVariantBeatsEverySingleRailStrategy) {
  MeasureOptions opts;
  opts.reps = 3;
  opts.noise_sigma = 0.0;
  double best_single = 1e99;
  double best_multi = 1e99;
  std::string multi_name;
  for (const StrategyConfig& cfg : all_strategies()) {
    const CommPlan plan = build_plan(pattern(), topo_, params_, cfg);
    const double t = measure(plan, topo_, params_, opts).max_avg;
    if (cfg.split == SplitMode::None) {
      best_single = std::min(best_single, t);
    } else if (cfg.split == SplitMode::Striped && t < best_multi) {
      best_multi = t;
      multi_name = cfg.name();
    }
  }
  EXPECT_LT(best_multi, 0.9 * best_single)
      << multi_name << " should beat every unsplit strategy by >10%";
}

// -- Rail outage mid-stripe ------------------------------------------------

TEST_F(MultiRailPayoffTest, RailOutageDegradesToSurvivingRailsNotAbort) {
  const StrategyConfig striped = parse_strategy("3-step (staged, striped)");
  const CommPlan plan = build_plan(pattern(), topo_, params_, striped);

  MeasureOptions opts;
  opts.reps = 4;
  opts.noise_sigma = 0.0;
  opts.collect_metrics = true;
  const MeasureResult nominal = measure(plan, topo_, params_, opts);

  fault::FaultPlan fplan;
  fplan.name = "rail-1-down";
  fplan.nic_outages.push_back({/*node=*/-1, /*lane=*/1, {}});
  fplan.validate();
  const FaultModel model = fplan.compile(topo_, params_);
  opts.faults = &model;
  MeasureResult degraded;
  ASSERT_NO_THROW(degraded = measure(plan, topo_, params_, opts))
      << "striped plan must fail over, not abort, when a rail dies";

  // Both rails' chunks now serialize through lane 0, so the NIC-bound
  // makespan visibly degrades (but the plan still completes).
  EXPECT_GT(degraded.max_avg, nominal.max_avg);
  ASSERT_TRUE(degraded.metrics.has_value());
  EXPECT_GT(degraded.metrics->faults.failovers, 0);
  // Surviving rail carries the failed-over chunks: lane-0 servers see more
  // bytes than in the nominal run, lane-1 servers none.
  for (const obs::NicStat& n : degraded.metrics->nic) {
    EXPECT_EQ(n.lane, 0) << "no bytes may egress the dead rail";
  }
}

TEST_F(SplitLoweringTest, StripedMetricsBalanceAcrossRails) {
  const StrategyConfig striped = parse_strategy("3-step (staged, striped)");
  const CommPlan plan = build_plan(pattern(), topo_, params_, striped);
  MeasureOptions opts;
  opts.reps = 2;
  opts.noise_sigma = 0.0;
  opts.collect_metrics = true;
  const MeasureResult r = measure(plan, topo_, params_, opts);
  ASSERT_TRUE(r.metrics.has_value());
  std::int64_t striped_bytes[2] = {0, 0};
  for (const obs::NicStat& n : r.metrics->nic) {
    EXPECT_EQ(n.nic, n.node * 2 + n.lane);
    striped_bytes[n.lane] += n.striped_bytes;
  }
  EXPECT_GT(striped_bytes[0], 0);
  EXPECT_GT(striped_bytes[1], 0);
  // Near-even balance: rails differ by at most the per-chunk rounding.
  const std::int64_t diff = std::abs(striped_bytes[0] - striped_bytes[1]);
  EXPECT_LE(diff, striped_bytes[0] / 4);
}

}  // namespace
}  // namespace hetcomm::core
