// Observability subsystem tests: metric primitives, JSON model, and the
// contracts the metrics layer makes with the simulator --
//
//   * recording never perturbs the simulation (bit-identical clocks with
//     metrics on or off),
//   * aggregation is independent of the worker count,
//   * compiled and interpreted execution populate identical sinks,
//   * reported per-path traffic totals match totals computed independently
//     from the plan (the ISSUE acceptance check).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/executor.hpp"
#include "core/strategy.hpp"
#include "machine/machine.hpp"
#include "obs/engine_metrics.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"

namespace hetcomm {
namespace {

// ---------------------------------------------------------------------------
// Histogram

TEST(Histogram, EmptyReportsZeros) {
  obs::Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.quantile(0.5), 0.0);
}

TEST(Histogram, TracksExactMoments) {
  obs::Histogram h;
  h.observe(1e-6);
  h.observe(3e-6);
  h.observe(2e-6);
  EXPECT_EQ(h.count(), 3);
  EXPECT_DOUBLE_EQ(h.sum(), 6e-6);
  EXPECT_DOUBLE_EQ(h.mean(), 2e-6);
  EXPECT_DOUBLE_EQ(h.min(), 1e-6);
  EXPECT_DOUBLE_EQ(h.max(), 3e-6);
}

TEST(Histogram, ZeroLandsInBinZeroAndQuantileIsExactThere) {
  obs::Histogram h;
  h.observe(0.0);
  h.observe(0.0);
  EXPECT_EQ(h.bins()[0], 2);
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_EQ(h.quantile(0.99), 0.0);
}

TEST(Histogram, QuantileIsBinResolution) {
  obs::Histogram h;
  for (int i = 0; i < 99; ++i) h.observe(1e-6);  // ~bin of 1 us
  h.observe(1e-3);                               // one slow outlier
  const double p50 = h.quantile(0.50);
  const double p99 = h.quantile(0.99);
  // Log2 bins: the estimate is within a factor of 2 of the true value.
  EXPECT_GT(p50, 0.5e-6);
  EXPECT_LT(p50, 2e-6);
  EXPECT_LT(p99, 2e-6);             // 99th sample is still in the fast bin
  EXPECT_GT(h.quantile(1.0), 0.5e-3);  // the outlier
}

TEST(Histogram, MergeIsOrderIndependent) {
  obs::Histogram a, b, ab, ba;
  for (int i = 0; i < 10; ++i) a.observe(1e-6 * (i + 1));
  for (int i = 0; i < 7; ++i) b.observe(3e-5 * (i + 1));
  ab.merge(a);
  ab.merge(b);
  ba.merge(b);
  ba.merge(a);
  EXPECT_EQ(ab.count(), 17);
  EXPECT_EQ(ab.count(), ba.count());
  EXPECT_DOUBLE_EQ(ab.sum(), ba.sum());
  EXPECT_DOUBLE_EQ(ab.min(), ba.min());
  EXPECT_DOUBLE_EQ(ab.max(), ba.max());
  for (int i = 0; i < obs::Histogram::kBins; ++i) {
    EXPECT_EQ(ab.bins()[i], ba.bins()[i]);
  }
}

TEST(Histogram, ResetClears) {
  obs::Histogram h;
  h.observe(1.0);
  h.reset();
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.max(), 0.0);
}

// ---------------------------------------------------------------------------
// Labels and registry

TEST(Label, FormatsStableNames) {
  EXPECT_EQ(obs::label("msgs", {{"path", "on-node"}, {"proto", "rendezvous"}}),
            "msgs{path=on-node,proto=rendezvous}");
  EXPECT_EQ(obs::label("wall_seconds", {}), "wall_seconds");
  EXPECT_EQ(obs::label("bytes_injected", {{"nic", "3"}}),
            "bytes_injected{nic=3}");
}

TEST(Registry, RegistersAndMutatesSlots) {
  obs::Registry reg;
  const obs::MetricId c = reg.counter("msgs");
  const obs::MetricId g = reg.gauge("occupancy_seconds");
  const obs::MetricId h = reg.histogram("queue_wait");
  reg.add(c, 5);
  reg.add(c, 2);
  reg.set(g, 1.5);
  reg.observe(h, 2e-6);
  EXPECT_EQ(reg.counter_value(c), 7);
  EXPECT_DOUBLE_EQ(reg.gauge_value(g), 1.5);
  EXPECT_EQ(reg.histogram_value(h).count(), 1);
}

TEST(Registry, DuplicateRegistrationReturnsSameSlot) {
  obs::Registry reg;
  const obs::MetricId a = reg.counter("msgs");
  const obs::MetricId b = reg.counter("msgs");
  EXPECT_EQ(a.index, b.index);
  reg.add(a, 1);
  reg.add(b, 1);
  EXPECT_EQ(reg.counter_value(a), 2);
  ASSERT_EQ(reg.counters().size(), 1u);
  EXPECT_EQ(reg.counters()[0].name, "msgs");
}

TEST(Registry, KindClashThrows) {
  obs::Registry reg;
  (void)reg.counter("msgs");
  EXPECT_THROW((void)reg.gauge("msgs"), std::invalid_argument);
  EXPECT_THROW((void)reg.histogram("msgs"), std::invalid_argument);
}

TEST(Registry, ResetValuesKeepsNamesAndHandles) {
  obs::Registry reg;
  const obs::MetricId c = reg.counter("msgs");
  reg.add(c, 9);
  reg.reset_values();
  EXPECT_EQ(reg.counter_value(c), 0);
  ASSERT_EQ(reg.counters().size(), 1u);
  EXPECT_EQ(reg.counters()[0].name, "msgs");
}

// ---------------------------------------------------------------------------
// JSON model

TEST(Json, DumpParseRoundTrip) {
  obs::JsonValue doc = obs::JsonValue::object();
  doc.set("schema", "hetcomm.metrics.v1");
  doc.set("count", std::int64_t{42});
  doc.set("mean", 1.25e-6);
  doc.set("flag", true);
  doc.set("nothing", nullptr);
  obs::JsonValue arr = obs::JsonValue::array();
  arr.push_back(std::int64_t{1});
  arr.push_back("two");
  doc.set("list", std::move(arr));

  const obs::JsonValue back = obs::JsonValue::parse(doc.dump_string());
  EXPECT_EQ(back.at("schema").as_string(), "hetcomm.metrics.v1");
  EXPECT_EQ(back.at("count").as_int(), 42);
  EXPECT_DOUBLE_EQ(back.at("mean").as_double(), 1.25e-6);
  EXPECT_TRUE(back.at("flag").as_bool());
  EXPECT_TRUE(back.at("nothing").is_null());
  EXPECT_EQ(back.at("list").size(), 2u);
  EXPECT_EQ(back.at("list").at(std::size_t{0}).as_int(), 1);
}

TEST(Json, PreservesKeyInsertionOrder) {
  obs::JsonValue doc = obs::JsonValue::object();
  doc.set("zulu", 1);
  doc.set("alpha", 2);
  const std::string text = doc.dump_string(0);
  EXPECT_LT(text.find("zulu"), text.find("alpha"));
}

TEST(Json, EscapesSpecialCharacters) {
  obs::JsonValue v(std::string("a\"b\\c\nd"));
  const obs::JsonValue back = obs::JsonValue::parse(v.dump_string());
  EXPECT_EQ(back.as_string(), "a\"b\\c\nd");
}

TEST(Json, StrictParserRejectsGarbage) {
  EXPECT_THROW((void)obs::JsonValue::parse("{"), std::runtime_error);
  EXPECT_THROW((void)obs::JsonValue::parse("{} trailing"), std::runtime_error);
  EXPECT_THROW((void)obs::JsonValue::parse("{'single': 1}"),
               std::runtime_error);
  EXPECT_THROW((void)obs::JsonValue::parse("[1, 2,]"), std::runtime_error);
  EXPECT_THROW((void)obs::JsonValue::parse(""), std::runtime_error);
}

TEST(Json, RoundTripsDoublesExactly) {
  obs::JsonValue v(0.00017337684630217592);
  const obs::JsonValue back = obs::JsonValue::parse(v.dump_string());
  EXPECT_EQ(back.as_double(), 0.00017337684630217592);
}

TEST(Json, DoublesDumpAsAStreamAtMaxDigits10Would) {
  // dump() must write each double byte for byte as the ostringstream at
  // max_digits10 precision it replaced (both are printf "%.17g").
  using Limits = std::numeric_limits<double>;
  std::vector<double> corpus = {0.0,
                                -0.0,
                                Limits::denorm_min(),
                                -Limits::denorm_min(),
                                Limits::min() / 3.0,
                                Limits::min(),
                                Limits::max(),
                                Limits::lowest(),
                                Limits::epsilon(),
                                0.1,
                                1.0 / 3.0,
                                0x1.0p53,
                                0x1.0p53 + 2.0,
                                1e17,
                                123456789012345678.0};
  for (int e = -324; e <= 308; ++e) corpus.push_back(std::pow(10.0, e));
  for (int i = -1000; i <= 1000; ++i) corpus.push_back(i);
  std::mt19937_64 rng(0x6a50aULL);
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t bits = rng();
    double d;
    std::memcpy(&d, &bits, sizeof d);
    if (std::isfinite(d)) corpus.push_back(d);
  }
  for (const double d : corpus) {
    std::ostringstream want;
    want.precision(Limits::max_digits10);
    want << d << '\n';
    ASSERT_EQ(obs::JsonValue(d).dump_string(0), want.str());
  }
}

// ---------------------------------------------------------------------------
// Summaries

TEST(Summary, ExactOrderStatistics) {
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(i * 1e-6);
  const obs::Summary s = obs::summarize(samples);
  EXPECT_EQ(s.count, 100);
  EXPECT_DOUBLE_EQ(s.mean, 50.5e-6);
  EXPECT_DOUBLE_EQ(s.p50, 50e-6);   // nearest-rank: ceil(0.50*100) = 50th
  EXPECT_DOUBLE_EQ(s.p99, 99e-6);   // ceil(0.99*100) = 99th
  EXPECT_DOUBLE_EQ(s.min, 1e-6);
  EXPECT_DOUBLE_EQ(s.max, 100e-6);
}

TEST(Summary, SingleSample) {
  const std::vector<double> one{3.5e-5};
  const obs::Summary s = obs::summarize(one);
  EXPECT_EQ(s.count, 1);
  EXPECT_DOUBLE_EQ(s.p50, 3.5e-5);
  EXPECT_DOUBLE_EQ(s.p99, 3.5e-5);
  EXPECT_DOUBLE_EQ(s.min, s.max);
}

// ---------------------------------------------------------------------------
// EngineMetrics aggregation

TEST(EngineMetrics, MergeAddsSlotsAndChecksPhases) {
  obs::EngineMetrics a, b;
  a.ensure_lanes(2, 1);
  b.ensure_lanes(2, 1);
  a.on_message(PathClass::OnNode, Protocol::Eager, 100);
  b.on_message(PathClass::OnNode, Protocol::Eager, 50);
  b.on_message(PathClass::OffNode, Protocol::Rendezvous, 7);
  a.on_nic_egress(1, 64);
  b.on_nic_egress(1, 36);
  a.on_phase_end(1.0);
  b.on_phase_end(2.0);
  a.merge(b);
  EXPECT_EQ(a.total_messages(), 3);
  EXPECT_EQ(a.total_bytes(), 157);
  EXPECT_EQ(a.nic_bytes[1], 100);
  // Phase vectors of equal length add elementwise.
  ASSERT_EQ(a.phase_makespan.size(), 1u);
  EXPECT_DOUBLE_EQ(a.phase_makespan[0], 3.0);

  obs::EngineMetrics c;
  c.on_phase_end(1.0);
  c.on_phase_end(2.0);
  EXPECT_THROW(a.merge(c), std::invalid_argument);  // 1 phase vs 2
}

TEST(EngineMetrics, PublishUsesStableNames) {
  obs::EngineMetrics m;
  m.ensure_lanes(1, 1);
  m.on_message(PathClass::OnNode, Protocol::Rendezvous, 4096);
  m.on_wait(obs::SimResource::NicOut, 1.0, 1.5);
  m.on_nic_egress(0, 4096);
  obs::Registry reg;
  m.publish(reg);
  bool saw_msgs = false, saw_nic = false;
  for (const auto& c : reg.counters()) {
    if (c.name == "msgs{path=on-node,proto=rendezvous}") {
      saw_msgs = true;
      EXPECT_EQ(c.value, 1);
    }
    if (c.name == "bytes_injected{nic=0}") {
      saw_nic = true;
      EXPECT_EQ(c.value, 4096);
    }
  }
  EXPECT_TRUE(saw_msgs);
  EXPECT_TRUE(saw_nic);
  bool saw_wait = false;
  for (const auto& h : reg.histograms()) {
    if (h.name == "queue_wait{resource=nic-out}") {
      saw_wait = true;
      EXPECT_EQ(h.value.count(), 1);
    }
  }
  EXPECT_TRUE(saw_wait);
}

// ---------------------------------------------------------------------------
// Simulation contracts

class MetricsSimTest : public ::testing::Test {
 protected:
  Topology topo_{presets::lassen(4)};
  ParamSet params_ = lassen_params();

  core::CommPattern pattern() const {
    core::CommPattern p(topo_.num_gpus());
    p.add(0, 4, 40000);
    p.add(1, 5, 40000);
    p.add(2, 9, 20000);
    p.add(0, 2, 8000);
    p.add(3, 12, 700000);  // rendezvous-sized, crosses nodes
    return p;
  }

  core::CommPlan plan(core::StrategyKind kind = core::StrategyKind::Standard,
                      MemSpace space = MemSpace::Host) const {
    return core::build_plan(pattern(), topo_, params_, {kind, space});
  }

  core::MeasureOptions opts(int reps, int jobs,
                            core::ExecMode mode = core::ExecMode::Compiled,
                            bool metrics = true) const {
    core::MeasureOptions o;
    o.reps = reps;
    o.jobs = jobs;
    o.seed = 77;
    o.noise_sigma = 0.02;
    o.engine = mode;
    o.collect_metrics = metrics;
    return o;
  }
};

TEST_F(MetricsSimTest, CollectingMetricsIsBitIdentical) {
  const core::CommPlan p = plan();
  for (const core::ExecMode mode :
       {core::ExecMode::Compiled, core::ExecMode::Interpreted}) {
    const core::MeasureResult off =
        core::measure(p, topo_, params_, opts(8, 1, mode, false));
    const core::MeasureResult on =
        core::measure(p, topo_, params_, opts(8, 1, mode, true));
    EXPECT_EQ(off.max_avg, on.max_avg) << to_string(mode);
    EXPECT_EQ(off.makespan_mean, on.makespan_mean) << to_string(mode);
    EXPECT_EQ(off.makespan_min, on.makespan_min);
    EXPECT_EQ(off.makespan_max, on.makespan_max);
    ASSERT_EQ(off.per_rank_mean.size(), on.per_rank_mean.size());
    for (std::size_t r = 0; r < off.per_rank_mean.size(); ++r) {
      EXPECT_EQ(off.per_rank_mean[r], on.per_rank_mean[r]) << "rank " << r;
    }
    EXPECT_FALSE(off.metrics.has_value());
    ASSERT_TRUE(on.metrics.has_value());
  }
}

// The simulated-time sections of the report must not depend on the worker
// count.  (The host-side workers/wall sections naturally do.)
TEST_F(MetricsSimTest, MetricsAggregateIsJobsInvariant) {
  const core::CommPlan p = plan(core::StrategyKind::TwoStep);
  std::vector<int> job_counts{1, 4, 0};  // 0 = hardware concurrency
  std::vector<obs::RunReport> reports;
  for (const int jobs : job_counts) {
    core::MeasureResult r = core::measure(p, topo_, params_, opts(12, jobs));
    ASSERT_TRUE(r.metrics.has_value());
    reports.push_back(std::move(*r.metrics));
  }
  const obs::RunReport& base = reports[0];
  for (std::size_t i = 1; i < reports.size(); ++i) {
    const obs::RunReport& other = reports[i];
    EXPECT_EQ(base.makespan.mean, other.makespan.mean);
    EXPECT_EQ(base.makespan.p99, other.makespan.p99);
    EXPECT_EQ(base.total_messages, other.total_messages);
    EXPECT_EQ(base.total_bytes, other.total_bytes);
    ASSERT_EQ(base.phases.size(), other.phases.size());
    for (std::size_t ph = 0; ph < base.phases.size(); ++ph) {
      EXPECT_EQ(base.phases[ph].makespan.mean, other.phases[ph].makespan.mean)
          << "phase " << ph;
      EXPECT_EQ(base.phases[ph].makespan.p50, other.phases[ph].makespan.p50);
    }
    ASSERT_EQ(base.traffic.size(), other.traffic.size());
    for (std::size_t t = 0; t < base.traffic.size(); ++t) {
      EXPECT_EQ(base.traffic[t].messages, other.traffic[t].messages);
      EXPECT_EQ(base.traffic[t].bytes, other.traffic[t].bytes);
    }
    ASSERT_EQ(base.resources.size(), other.resources.size());
    for (std::size_t res = 0; res < base.resources.size(); ++res) {
      EXPECT_EQ(base.resources[res].waits, other.resources[res].waits);
      EXPECT_EQ(base.resources[res].wait_mean, other.resources[res].wait_mean)
          << base.resources[res].resource;
      EXPECT_EQ(base.resources[res].occupancy_seconds,
                other.resources[res].occupancy_seconds);
    }
    ASSERT_EQ(base.nic.size(), other.nic.size());
    for (std::size_t n = 0; n < base.nic.size(); ++n) {
      EXPECT_EQ(base.nic[n].bytes_injected, other.nic[n].bytes_injected);
    }
  }
}

TEST_F(MetricsSimTest, CompiledAndInterpretedCollectIdenticalMetrics) {
  for (const core::StrategyConfig& cfg : core::table5_strategies()) {
    const core::CommPlan p =
        core::build_plan(pattern(), topo_, params_, cfg);
    core::MeasureResult compiled = core::measure(
        p, topo_, params_, opts(4, 1, core::ExecMode::Compiled));
    core::MeasureResult interpreted = core::measure(
        p, topo_, params_, opts(4, 1, core::ExecMode::Interpreted));
    ASSERT_TRUE(compiled.metrics && interpreted.metrics) << p.strategy_name;
    const obs::RunReport& a = *compiled.metrics;
    const obs::RunReport& b = *interpreted.metrics;
    EXPECT_EQ(a.makespan.mean, b.makespan.mean) << p.strategy_name;
    EXPECT_EQ(a.total_messages, b.total_messages) << p.strategy_name;
    EXPECT_EQ(a.total_bytes, b.total_bytes) << p.strategy_name;
    ASSERT_EQ(a.traffic.size(), b.traffic.size()) << p.strategy_name;
    for (std::size_t t = 0; t < a.traffic.size(); ++t) {
      EXPECT_EQ(a.traffic[t].path, b.traffic[t].path);
      EXPECT_EQ(a.traffic[t].proto, b.traffic[t].proto);
      EXPECT_EQ(a.traffic[t].messages, b.traffic[t].messages);
      EXPECT_EQ(a.traffic[t].bytes, b.traffic[t].bytes);
    }
    ASSERT_EQ(a.phases.size(), b.phases.size()) << p.strategy_name;
    for (std::size_t ph = 0; ph < a.phases.size(); ++ph) {
      EXPECT_EQ(a.phases[ph].makespan.mean, b.phases[ph].makespan.mean)
          << p.strategy_name << " phase " << ph;
    }
    ASSERT_EQ(a.resources.size(), b.resources.size());
    for (std::size_t res = 0; res < a.resources.size(); ++res) {
      EXPECT_EQ(a.resources[res].waits, b.resources[res].waits);
      EXPECT_EQ(a.resources[res].wait_mean, b.resources[res].wait_mean)
          << p.strategy_name << " " << a.resources[res].resource;
    }
    ASSERT_EQ(a.copies.size(), b.copies.size());
    for (std::size_t c = 0; c < a.copies.size(); ++c) {
      EXPECT_EQ(a.copies[c].count, b.copies[c].count);
      EXPECT_EQ(a.copies[c].bytes, b.copies[c].bytes);
      EXPECT_EQ(a.copies[c].seconds, b.copies[c].seconds);
    }
    EXPECT_EQ(a.packs, b.packs);
    EXPECT_EQ(a.pack_bytes, b.pack_bytes);
  }
}

// ISSUE acceptance check: the reported per-(path, protocol) traffic must
// exactly equal totals computed independently by walking the plan with the
// same classification rules the engine uses.
TEST_F(MetricsSimTest, ReportedTrafficMatchesIndependentPlanTotals) {
  for (const core::StrategyConfig& cfg : core::table5_strategies()) {
    const core::CommPlan p =
        core::build_plan(pattern(), topo_, params_, cfg);

    std::int64_t msgs[3][3] = {};
    std::int64_t bytes[3][3] = {};
    std::int64_t copies = 0;
    std::int64_t packs = 0;
    for (const core::PlanPhase& phase : p.phases) {
      for (const core::PlanOp& op : phase.ops) {
        switch (op.type) {
          case core::OpType::Message: {
            const auto path =
                static_cast<int>(topo_.classify(op.src_rank, op.dst_rank));
            const auto proto = static_cast<int>(
                params_.thresholds.select(op.space, op.bytes));
            ++msgs[path][proto];
            bytes[path][proto] += op.bytes;
            break;
          }
          case core::OpType::Copy:
            ++copies;
            break;
          case core::OpType::Pack:
            ++packs;
            break;
        }
      }
    }

    core::MeasureResult r = core::measure(p, topo_, params_, opts(6, 4));
    ASSERT_TRUE(r.metrics.has_value()) << p.strategy_name;
    const obs::RunReport& report = *r.metrics;

    std::int64_t expected_msgs = 0;
    std::int64_t expected_bytes = 0;
    for (const obs::TrafficStat& t : report.traffic) {
      bool matched = false;
      for (int path = 0; path < 3 && !matched; ++path) {
        for (int proto = 0; proto < 3 && !matched; ++proto) {
          if (t.path == to_string(static_cast<PathClass>(path)) &&
              t.proto == to_string(static_cast<Protocol>(proto))) {
            EXPECT_EQ(t.messages, msgs[path][proto])
                << p.strategy_name << " " << t.path << "/" << t.proto;
            EXPECT_EQ(t.bytes, bytes[path][proto])
                << p.strategy_name << " " << t.path << "/" << t.proto;
            msgs[path][proto] = 0;  // consumed
            bytes[path][proto] = 0;
            matched = true;
          }
        }
      }
      EXPECT_TRUE(matched) << "unknown traffic cell " << t.path << "/"
                           << t.proto;
      expected_msgs += t.messages;
      expected_bytes += t.bytes;
    }
    // Every nonzero plan cell must have been reported.
    for (int path = 0; path < 3; ++path) {
      for (int proto = 0; proto < 3; ++proto) {
        EXPECT_EQ(msgs[path][proto], 0)
            << p.strategy_name << ": unreported cell " << path << "/" << proto;
      }
    }
    EXPECT_EQ(report.total_messages, expected_msgs) << p.strategy_name;
    EXPECT_EQ(report.total_bytes, expected_bytes) << p.strategy_name;

    std::int64_t copy_count = 0;
    for (const obs::CopyStat& c : report.copies) copy_count += c.count;
    EXPECT_EQ(copy_count, copies) << p.strategy_name;
    EXPECT_EQ(report.packs, packs) << p.strategy_name;
  }
}

TEST_F(MetricsSimTest, PhaseDeltasSumToMakespan) {
  const core::CommPlan p = plan(core::StrategyKind::ThreeStep);
  // Zero noise makes every repetition identical, so the phase deltas --
  // recorded on the sampled repetitions only -- telescope exactly to the
  // all-repetition makespan mean.
  core::MeasureOptions o = opts(10, 2);
  o.noise_sigma = 0.0;
  core::MeasureResult r = core::measure(p, topo_, params_, o);
  ASSERT_TRUE(r.metrics.has_value());
  const obs::RunReport& report = *r.metrics;
  ASSERT_FALSE(report.phases.empty());
  EXPECT_GT(report.sampled_reps, 0);
  EXPECT_LE(report.sampled_reps, report.reps);
  double phase_sum = 0.0;
  double share_sum = 0.0;
  for (const obs::PhaseStat& ph : report.phases) {
    EXPECT_GE(ph.makespan.mean, 0.0);
    EXPECT_EQ(ph.makespan.count, report.sampled_reps);
    phase_sum += ph.makespan.mean;
    share_sum += ph.share;
  }
  EXPECT_NEAR(phase_sum, report.makespan.mean,
              1e-12 * std::max(1.0, report.makespan.mean));
  EXPECT_NEAR(share_sum, 1.0, 1e-9);
}

TEST_F(MetricsSimTest, RunReportJsonRoundTrips) {
  core::MeasureResult r = core::measure(plan(), topo_, params_, opts(5, 2));
  ASSERT_TRUE(r.metrics.has_value());
  r.metrics->name = "round-trip";
  const std::vector<obs::RunReport> reports{*r.metrics};
  const obs::JsonValue doc = obs::make_metrics_document(reports);
  const obs::JsonValue back = obs::JsonValue::parse(doc.dump_string());

  EXPECT_EQ(back.at("schema").as_string(), obs::kMetricsSchema);
  const obs::JsonValue& rep = back.at("reports").at(std::size_t{0});
  EXPECT_EQ(rep.at("name").as_string(), "round-trip");
  EXPECT_EQ(rep.at("engine").as_string(), "compiled");
  EXPECT_EQ(rep.at("reps").as_int(), 5);
  EXPECT_EQ(rep.at("ranks").as_int(), topo_.num_ranks());
  EXPECT_EQ(rep.at("makespan").at("mean").as_double(),
            r.metrics->makespan.mean);
  EXPECT_EQ(rep.at("totals").at("messages").as_int(),
            r.metrics->total_messages);
  EXPECT_EQ(rep.at("phases").size(), r.metrics->phases.size());
  // The flat metrics map mirrors the traffic section under stable names.
  const obs::JsonValue& flat = rep.at("metrics");
  ASSERT_GT(flat.size(), 0u);
  bool saw_traffic_name = false;
  for (const auto& [key, value] : flat.members()) {
    if (key.rfind("msgs{", 0) == 0) {
      saw_traffic_name = true;
      EXPECT_TRUE(value.kind() == obs::JsonValue::Kind::Int);
    }
  }
  EXPECT_TRUE(saw_traffic_name);
}

TEST(EngineMetrics, PathNameFallsBackWhenUndeclared) {
  obs::EngineMetrics m;
  // No declared taxonomy names: classic localities label ids 0-2, higher
  // ids get a schema-compatible synthetic label.
  EXPECT_EQ(m.path_name(0), "on-socket");
  EXPECT_EQ(m.path_name(1), "on-node");
  EXPECT_EQ(m.path_name(2), "off-node");
  EXPECT_EQ(m.path_name(3), "path-3");
  // Declared names win for every id they cover.
  m.path_names = {"a", "b", "c", "nvlink-peer"};
  EXPECT_EQ(m.path_name(1), "b");
  EXPECT_EQ(m.path_name(3), "nvlink-peer");
}

TEST(EngineMetrics, PublishUsesDeclaredPathNames) {
  obs::EngineMetrics m;
  m.ensure_lanes(1, 1);
  m.path_names = {"on-socket", "cross-socket", "off-node", "nvlink-peer"};
  m.on_message(3, Protocol::Eager, 512);
  obs::Registry reg;
  m.publish(reg);
  bool saw = false;
  for (const auto& c : reg.counters()) {
    if (c.name == "msgs{path=nvlink-peer,proto=eager}") {
      saw = true;
      EXPECT_EQ(c.value, 1);
    }
  }
  EXPECT_TRUE(saw);
}

TEST(EngineMetrics, TrafficBreakdownCarriesMachineClassNames) {
  // End to end (satellite #6): a machine with a >3-class taxonomy must
  // surface its declared class names in the hetcomm.metrics.v1 traffic
  // breakdown.  nvisland's device 3-step plan moves GPU-owner traffic over
  // the nvlink-peer class.
  const machine::MachineModel mach = machine::nvisland_machine();
  const Topology topo = mach.topology(2);
  core::CommPattern p(topo.num_gpus());
  p.add(0, 1, 40000);   // owners on one node: nvlink-peer
  p.add(0, 4, 700000);  // crosses nodes
  const core::CommPlan plan = core::build_plan(
      p, topo, mach.params,
      {core::StrategyKind::ThreeStep, MemSpace::Device});
  core::MeasureOptions o;
  o.reps = 3;
  o.collect_metrics = true;
  core::MeasureResult r = core::measure(plan, topo, mach.params, o);
  ASSERT_TRUE(r.metrics.has_value());
  bool saw_nvlink = false;
  for (const obs::TrafficStat& t : r.metrics->traffic) {
    if (t.path == "nvlink-peer") saw_nvlink = true;
  }
  EXPECT_TRUE(saw_nvlink);
}

TEST_F(MetricsSimTest, WorkerStatsCoverAllReps) {
  core::MeasureResult r = core::measure(plan(), topo_, params_, opts(9, 3));
  ASSERT_TRUE(r.metrics.has_value());
  std::int64_t reps = 0;
  for (const obs::WorkerStat& w : r.metrics->workers) {
    EXPECT_GE(w.worker, 0);
    EXPECT_GT(w.reps, 0);
    EXPECT_GE(w.busy_seconds, 0.0);
    reps += w.reps;
  }
  EXPECT_EQ(reps, 9);
  EXPECT_EQ(r.metrics->jobs, 3);
}

}  // namespace
}  // namespace hetcomm
