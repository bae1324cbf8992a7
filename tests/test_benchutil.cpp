#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>

#include "benchutil/bench_options.hpp"
#include "benchutil/lsq.hpp"
#include "benchutil/pingpong.hpp"
#include "benchutil/stats.hpp"
#include "benchutil/table.hpp"

namespace hetcomm::benchutil {
namespace {

TEST(Stats, BasicMoments) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_NEAR(variance(xs), 5.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(min_of(xs), 1.0);
  EXPECT_DOUBLE_EQ(max_of(xs), 4.0);
  EXPECT_NEAR(geomean(std::vector<double>{2.0, 8.0}), 4.0, 1e-12);
}

TEST(Stats, Percentile) {
  const std::vector<double> xs = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 4.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 2.5);
  EXPECT_THROW((void)percentile(xs, 101), std::invalid_argument);
}

TEST(Stats, ErrorsOnBadInput) {
  EXPECT_THROW((void)mean(std::vector<double>{}), std::invalid_argument);
  EXPECT_THROW((void)geomean(std::vector<double>{1.0, 0.0}), std::invalid_argument);
  EXPECT_DOUBLE_EQ(variance(std::vector<double>{5.0}), 0.0);
}

TEST(Lsq, RecoversExactLine) {
  const std::vector<double> x = {1, 2, 4, 8, 16};
  std::vector<double> y;
  for (const double xi : x) y.push_back(3.5 + 0.25 * xi);
  const LinearFit fit = fit_linear(x, y);
  EXPECT_NEAR(fit.intercept, 3.5, 1e-12);
  EXPECT_NEAR(fit.slope, 0.25, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(Lsq, RejectsDegenerateInput) {
  EXPECT_THROW((void)fit_linear(std::vector<double>{1.0}, std::vector<double>{2.0}), std::invalid_argument);
  EXPECT_THROW((void)fit_linear(std::vector<double>{1, 2}, std::vector<double>{1.0}), std::invalid_argument);
  EXPECT_THROW((void)fit_linear(std::vector<double>{2, 2}, std::vector<double>{1, 2}), std::invalid_argument);
}

TEST(Lsq, FitPostalProducesParams) {
  const std::vector<double> sizes = {64, 512, 4096};
  std::vector<double> times;
  for (const double s : sizes) times.push_back(1e-6 + 1e-9 * s);
  const PostalParams pp = fit_postal(sizes, times);
  EXPECT_NEAR(pp.alpha, 1e-6, 1e-12);
  EXPECT_NEAR(pp.beta, 1e-9, 1e-15);
}

TEST(Table, AlignedOutputContainsAllCells) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1.0"});
  t.add_row({"beta", "2.0"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("2.0"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, CsvOutput) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, FormattersAndErrors) {
  EXPECT_EQ(Table::bytes(1024), "1KiB");
  EXPECT_EQ(Table::bytes(1 << 20), "1MiB");
  EXPECT_EQ(Table::bytes(100), "100B");
  EXPECT_EQ(Table::num(1.23456, 2), "1.23");
  Table t({"x"});
  EXPECT_THROW((void)t.add_row({"1", "2"}), std::invalid_argument);
  EXPECT_THROW((void)Table({}), std::invalid_argument);
}

class PingPongTest : public ::testing::Test {
 protected:
  Topology topo_{presets::lassen(2)};
  ParamSet params_ = [] {
    ParamSet p = lassen_params();
    p.overheads.post_overhead = 0.0;
    p.overheads.queue_search_per_entry = 0.0;
    return p;
  }();
};

TEST_F(PingPongTest, RankPairsHaveRequestedPlacement) {
  for (const PathClass path :
       {PathClass::OnSocket, PathClass::OnNode, PathClass::OffNode}) {
    const auto [a, b] = rank_pair_for(topo_, path);
    EXPECT_EQ(topo_.classify(a, b), path);
  }
}

TEST_F(PingPongTest, PingPongMatchesInjectedParameters) {
  const auto [a, b] = rank_pair_for(topo_, PathClass::OffNode);
  const std::int64_t bytes = 4096;  // eager
  const double t = ping_pong(topo_, params_, a, b, bytes, MemSpace::Host,
                             {5, 1, 0.0});
  const PostalParams& pp = params_.messages.get(
      MemSpace::Host, Protocol::Eager, PathClass::OffNode);
  EXPECT_NEAR(t, pp.time(bytes), 1e-12);
}

TEST_F(PingPongTest, SweepAndFitRecoverBeta) {
  const auto [a, b] = rank_pair_for(topo_, PathClass::OnSocket);
  const std::vector<std::int64_t> sizes =
      sizes_for_protocol(params_.thresholds, MemSpace::Host,
                         Protocol::Rendezvous);
  const Sweep sweep = ping_pong_sweep(topo_, params_, a, b, sizes,
                                      MemSpace::Host, {3, 1, 0.0});
  const PostalParams fit = fit_postal(sweep.sizes, sweep.times);
  const PostalParams& truth = params_.messages.get(
      MemSpace::Host, Protocol::Rendezvous, PathClass::OnSocket);
  EXPECT_NEAR(fit.beta, truth.beta, truth.beta * 0.05);
  EXPECT_NEAR(fit.alpha, truth.alpha, truth.alpha * 0.2);
}

TEST_F(PingPongTest, NodePongSaturatesWithManyProcs) {
  // Per-process time falls then flattens once the NIC is saturated: total
  // time for a fixed aggregate volume should *improve* from 1 to many procs.
  const std::int64_t total = 16LL << 20;
  const double t1 = node_pong(topo_, params_, 0, 1, 1, total, MemSpace::Host,
                              {2, 1, 0.0});
  const double t8 = node_pong(topo_, params_, 0, 1, 8, total / 8,
                              MemSpace::Host, {2, 1, 0.0});
  EXPECT_LT(t8, t1);
  // But it can't beat the injection-bandwidth floor.
  EXPECT_GE(t8, static_cast<double>(total) * params_.injection.inv_rate_cpu *
                    0.99);
}

TEST_F(PingPongTest, CopyTimeUsesSharedParams) {
  const std::int64_t bytes = 8 << 20;
  const double t1 = copy_time(topo_, params_, 0, CopyDir::DeviceToHost, bytes,
                              1, {2, 1, 0.0});
  const PostalParams cp = copy_params_for(params_.copies,
                                          CopyDir::DeviceToHost, 1);
  EXPECT_NEAR(t1, cp.time(bytes), 1e-12);
  // Four processes sharing: each copies a quarter with degraded beta.
  const double t4 = copy_time(topo_, params_, 0, CopyDir::DeviceToHost, bytes,
                              4, {2, 1, 0.0});
  EXPECT_GT(t4, 0.0);
}

TEST_F(PingPongTest, SizesForProtocolStayInRegime) {
  for (const Protocol proto :
       {Protocol::Short, Protocol::Eager, Protocol::Rendezvous}) {
    const std::vector<std::int64_t> sizes =
        sizes_for_protocol(params_.thresholds, MemSpace::Host, proto);
    ASSERT_GE(sizes.size(), 2u);
    for (const std::int64_t s : sizes) {
      EXPECT_EQ(params_.thresholds.select(MemSpace::Host, s), proto);
    }
  }
  EXPECT_THROW((void)
      sizes_for_protocol(params_.thresholds, MemSpace::Device, Protocol::Short),
      std::invalid_argument);
}

TEST_F(PingPongTest, ValidatesArguments) {
  EXPECT_THROW((void)ping_pong(topo_, params_, 0, 1, 10, MemSpace::Host, {0, 1, 0.0}),
               std::invalid_argument);
  EXPECT_THROW((void)node_pong(topo_, params_, 0, 0, 1, 10, MemSpace::Host),
               std::invalid_argument);
  EXPECT_THROW((void)node_pong(topo_, params_, 0, 1, 99, 10, MemSpace::Host),
               std::invalid_argument);
  EXPECT_THROW((void)copy_time(topo_, params_, 0, CopyDir::DeviceToHost, 10, 0),
               std::invalid_argument);
}

TEST(BenchOptions, DefaultsWhenNoFlags) {
  const BenchOptions opts = BenchOptions::parse_tokens({});
  EXPECT_FALSE(opts.csv);
  EXPECT_FALSE(opts.quick);
  EXPECT_EQ(opts.reps, -1);
  EXPECT_EQ(opts.jobs, 0);
  EXPECT_FALSE(opts.wants_metrics());
}

TEST(BenchOptions, ParsesEveryFlag) {
  const BenchOptions opts = BenchOptions::parse_tokens(
      {"--csv", "--quick", "--progress", "--reps", "12", "--jobs", "3",
       "--seed", "99", "--metrics", "out.json"},
      nullptr, /*metrics_supported=*/true);
  EXPECT_TRUE(opts.csv);
  EXPECT_TRUE(opts.quick);
  EXPECT_TRUE(opts.progress);
  EXPECT_EQ(opts.reps, 12);
  EXPECT_EQ(opts.jobs, 3);
  EXPECT_EQ(opts.seed, 99u);
  EXPECT_TRUE(opts.wants_metrics());
  EXPECT_EQ(opts.metrics_path, "out.json");
}

TEST(BenchOptions, MetricsAcceptsStdoutDash) {
  const BenchOptions opts = BenchOptions::parse_tokens(
      {"--metrics", "-"}, nullptr, /*metrics_supported=*/true);
  EXPECT_TRUE(opts.wants_metrics());
  EXPECT_EQ(opts.metrics_path, "-");
}

TEST(BenchOptions, MetricsRejectedWhereUnsupported) {
  // Binaries that never build a RunReport must not swallow --metrics: a
  // user asking for a report gets a hard error, not a silent no-op.
  EXPECT_THROW((void)BenchOptions::parse_tokens({"--metrics", "out.json"}),
               std::invalid_argument);
}

TEST(BenchOptions, HelpSetsFlagInsteadOfThrowing) {
  bool help = false;
  (void)BenchOptions::parse_tokens({"--help"}, &help);
  EXPECT_TRUE(help);
}

TEST(BenchOptions, RejectsMalformedInput) {
  // Unknown flags and positional garbage.
  EXPECT_THROW((void)BenchOptions::parse_tokens({"--bogus"}),
               std::invalid_argument);
  EXPECT_THROW((void)BenchOptions::parse_tokens({"stray"}),
               std::invalid_argument);
  // Missing values.
  EXPECT_THROW((void)BenchOptions::parse_tokens({"--reps"}),
               std::invalid_argument);
  EXPECT_THROW((void)BenchOptions::parse_tokens({"--metrics"}, nullptr,
                                                /*metrics_supported=*/true),
               std::invalid_argument);
  EXPECT_THROW((void)BenchOptions::parse_tokens({"--metrics", ""}, nullptr,
                                                /*metrics_supported=*/true),
               std::invalid_argument);
  // Malformed numbers.
  EXPECT_THROW((void)BenchOptions::parse_tokens({"--reps", "zero"}),
               std::invalid_argument);
  EXPECT_THROW((void)BenchOptions::parse_tokens({"--reps", "0"}),
               std::invalid_argument);
  EXPECT_THROW((void)BenchOptions::parse_tokens({"--reps", "-3"}),
               std::invalid_argument);
  EXPECT_THROW((void)BenchOptions::parse_tokens({"--jobs", "1.5"}),
               std::invalid_argument);
  EXPECT_THROW((void)BenchOptions::parse_tokens({"--seed", "xyz"}),
               std::invalid_argument);
  // Values that do not fit the destination type: no narrowing into range,
  // no wrap-around of a negative seed.
  EXPECT_THROW((void)BenchOptions::parse_tokens({"--reps", "4294967297"}),
               std::invalid_argument);
  EXPECT_THROW((void)BenchOptions::parse_tokens({"--jobs", "4294967296"}),
               std::invalid_argument);
  EXPECT_THROW((void)BenchOptions::parse_tokens({"--seed", "-1"}),
               std::invalid_argument);
  EXPECT_THROW((void)BenchOptions::parse_tokens({"--seed", "1x"}),
               std::invalid_argument);
  // The engine is not a bench flag; the interpreted reference is reached
  // through core::MeasureOptions::engine.
  try {
    (void)BenchOptions::parse_tokens({"--engine", "interpreted"});
    ADD_FAILURE() << "--engine was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("unknown flag"), std::string::npos)
        << e.what();
  }
}

TEST(ParseNumber, WholeTokenInRange) {
  EXPECT_EQ(parse_number<int>("42", "--n"), 42);
  EXPECT_EQ(parse_number<int>("-7", "--n"), -7);
  EXPECT_EQ(parse_number<std::int64_t>("4294967298", "--n"), 4294967298LL);
  EXPECT_EQ(parse_number<std::uint64_t>("18446744073709551615", "--n"),
            18446744073709551615ULL);
  EXPECT_EQ(parse_number<double>("2.5", "--x"), 2.5);
  EXPECT_EQ(parse_number<double>("1e3", "--x"), 1000.0);
  for (const char* text : {"", "2x", "1.9", " 3", "3 ", "0x10", "4294967298"}) {
    EXPECT_THROW((void)parse_number<int>(text, "--n"), std::invalid_argument)
        << "'" << text << "'";
  }
  EXPECT_THROW((void)parse_number<std::uint64_t>("-1", "--n"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_number<std::int64_t>("9223372036854775808", "--n"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_number<double>("2x", "--x"), std::invalid_argument);
  EXPECT_THROW((void)parse_number<double>("1e999", "--x"),
               std::invalid_argument);
}

TEST(BenchOptions, SweepOptionsCarryJobsAndProgress) {
  const BenchOptions opts =
      BenchOptions::parse_tokens({"--jobs", "2", "--progress"});
  const runtime::SweepOptions sopts = opts.sweep_options();
  EXPECT_EQ(sopts.jobs, 2);
  EXPECT_TRUE(sopts.progress);
}

TEST(WriteMetricsFile, ThrowsOnUnwritablePath) {
  obs::RunReport report;
  report.name = "x";
  EXPECT_THROW(
      write_metrics_file("/nonexistent-dir/metrics.json", {report}),
      std::runtime_error);
}

}  // namespace
}  // namespace hetcomm::benchutil
