#include "serve/service.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/advisor.hpp"
#include "core/comm_pattern.hpp"
#include "core/compiled_plan.hpp"
#include "core/executor.hpp"
#include "core/pattern_io.hpp"
#include "core/plan.hpp"
#include "core/strategy.hpp"
#include "fault/fault_json.hpp"
#include "fault/plan.hpp"
#include "hetsim/engine.hpp"
#include "hetsim/faults.hpp"
#include "hetsim/noise.hpp"
#include "machine/machine.hpp"
#include "machine/machine_json.hpp"
#include "obs/json.hpp"
#include "serve/chaos.hpp"
#include "serve/protocol.hpp"

namespace hetcomm::serve {
namespace {

using obs::JsonValue;

JsonValue parse(const std::string& line) { return JsonValue::parse(line); }

std::string hash_hex(std::uint64_t h) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(h));
  return std::string(buf);
}

/// Inline 8-GPU request body shared by most tests (lassen preset, 2 nodes).
std::string pattern_body() {
  return R"("pattern": {"gpus": 8, "msgs": [[0, 4, 8192], [1, 5, 4096], )"
         R"([2, 6, 4096], [3, 7, 16384], [4, 0, 8192]]})";
}

core::CommPattern reference_pattern() {
  core::CommPattern p(8);
  p.add(0, 4, 8192);
  p.add(1, 5, 4096);
  p.add(2, 6, 4096);
  p.add(3, 7, 16384);
  p.add(4, 0, 8192);
  return p;
}

TEST(ServeTest, PredictOnlyMatchesAdvisorRank) {
  Service service;
  const JsonValue doc = parse(service.handle_line(
      R"({"id": 1, "machine": "lassen", "nodes": 2, )" + pattern_body() +
      R"(, "reps": 0})"));
  ASSERT_TRUE(doc.at("ok").as_bool());
  EXPECT_EQ(doc.at("id").as_int(), 1);
  EXPECT_FALSE(doc.contains("measured"));

  const machine::MachineModel model = machine::resolve_machine("lassen");
  const Topology topo = model.topology(2);
  const core::Advisor advisor(topo, model.params);
  const std::vector<core::Recommendation> expect =
      advisor.rank(reference_pattern(), {});
  const JsonValue& ranking = doc.at("ranking");
  ASSERT_EQ(ranking.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    const JsonValue& row = ranking.at(i);
    EXPECT_EQ(row.at("strategy").as_string(), expect[i].config.name());
    EXPECT_DOUBLE_EQ(row.at("predicted_seconds").as_double(),
                     expect[i].predicted_seconds);
  }
  EXPECT_EQ(doc.at("recommended").as_string(), expect.front().config.name());
}

TEST(ServeTest, MeasuredIsBitIdenticalToOneShotMeasure) {
  const machine::MachineModel model = machine::resolve_machine("lassen");
  const Topology topo = model.topology(2);
  const core::CommPattern pattern = reference_pattern();
  const core::StrategyConfig config = core::parse_strategy("split+MD");
  const core::CommPlan plan =
      core::build_plan(pattern, topo, model.params, config);
  core::MeasureOptions mopts;
  mopts.reps = 6;
  mopts.seed = 99;
  const core::MeasureResult expect =
      core::measure(plan, topo, model.params, mopts);

  const std::string request =
      R"({"machine": "lassen", "nodes": 2, )" + pattern_body() +
      R"(, "strategy": "split+MD", "reps": 6, "seed": 99})";
  // Identical answers at every service geometry: the windowing / caching /
  // jobs knobs must never leak into the numbers.
  for (const int jobs : {1, 3, 0}) {
    ServiceOptions options;
    options.jobs = jobs;
    Service service(options);
    const JsonValue doc = parse(service.handle_line(request));
    ASSERT_TRUE(doc.at("ok").as_bool()) << "jobs=" << jobs;
    const JsonValue& measured = doc.at("measured");
    EXPECT_DOUBLE_EQ(measured.at("max_avg").as_double(), expect.max_avg)
        << "jobs=" << jobs;
    EXPECT_DOUBLE_EQ(measured.at("makespan").at("mean").as_double(),
                     expect.makespan_mean)
        << "jobs=" << jobs;
    EXPECT_EQ(measured.at("strategy").as_string(), "split+MD");
    EXPECT_EQ(measured.at("reps").as_int(), 6);
  }
}

TEST(ServeTest, WindowedDuplicatesShareOneCompile) {
  Service service;
  const std::string request =
      R"({"machine": "lassen", "nodes": 2, )" + pattern_body() +
      R"(, "strategy": "split+MD", "reps": 4, "seed": 7})";
  const std::vector<std::string> replies =
      service.handle_window({request, request, request});
  ASSERT_EQ(replies.size(), 3u);
  const JsonValue first = parse(replies[0]);
  ASSERT_TRUE(first.at("ok").as_bool());
  const double max_avg = first.at("measured").at("max_avg").as_double();
  int hits = 0;
  for (const std::string& line : replies) {
    const JsonValue doc = parse(line);
    ASSERT_TRUE(doc.at("ok").as_bool());
    // Same query, same answer -- shared plans do not perturb results.
    EXPECT_DOUBLE_EQ(doc.at("measured").at("max_avg").as_double(), max_avg);
    if (doc.at("cache").as_string() == "hit") ++hits;
  }
  EXPECT_EQ(hits, 2);  // one compile, two within-window adoptions

  const JsonValue metrics = service.metrics_json();
  EXPECT_EQ(metrics.at("schema").as_string(), "hetcomm.metrics.v1");
  const JsonValue& serve = metrics.at("serve");
  EXPECT_EQ(serve.at("requests").at("measured").as_int(), 3);
  EXPECT_EQ(serve.at("batching").at("windows").as_int(), 1);
}

TEST(ServeTest, PatternRefRoundTripsAndHitsTheCache) {
  Service service;
  const JsonValue first = parse(service.handle_line(
      R"({"machine": "lassen", "nodes": 2, )" + pattern_body() +
      R"(, "strategy": "split+MD", "reps": 3, "seed": 5})"));
  ASSERT_TRUE(first.at("ok").as_bool());
  const std::string ref = first.at("pattern_hash").as_string();
  EXPECT_EQ(ref, hash_hex(core::pattern_hash(reference_pattern())));

  const JsonValue second = parse(service.handle_line(
      R"({"machine": "lassen", "nodes": 2, "pattern": {"ref": ")" + ref +
      R"("}, "strategy": "split+MD", "reps": 3, "seed": 5})"));
  ASSERT_TRUE(second.at("ok").as_bool());
  EXPECT_EQ(second.at("cache").as_string(), "hit");
  EXPECT_DOUBLE_EQ(second.at("measured").at("max_avg").as_double(),
                   first.at("measured").at("max_avg").as_double());
}

TEST(ServeTest, ErrorsAreResponsesNotCrashes) {
  Service service;
  const struct {
    const char* line;
    const char* why;
  } cases[] = {
      {"not json at all", "parse error"},
      {R"({"machine": "lassen", "nodes": 2, "reps": 1})", "missing pattern"},
      {R"({"machine": "lassen", "nodes": 2, "bogus": 1})", "unknown key"},
      {R"({"machine": "lassen", "nodes": 2, "pattern": {"ref": "BOGUS"}})",
       "bad ref"},
      {R"({"machine": "lassen", "nodes": 0, "pattern": {"ref": "0x1"}})",
       "bad nodes"},
  };
  for (const auto& c : cases) {
    const JsonValue doc = parse(service.handle_line(c.line));
    EXPECT_FALSE(doc.at("ok").as_bool()) << c.why;
    EXPECT_FALSE(doc.at("error").as_string().empty()) << c.why;
  }
  EXPECT_FALSE(service.shutdown_requested());
  // The service still answers after every malformed line.
  const JsonValue ok = parse(service.handle_line(
      R"({"machine": "lassen", "nodes": 2, )" + pattern_body() +
      R"(, "reps": 0})"));
  EXPECT_TRUE(ok.at("ok").as_bool());
}

TEST(ServeTest, StatsAndShutdownControlLines) {
  Service service;
  const JsonValue stats =
      parse(service.handle_line(R"({"id": 3, "cmd": "stats"})"));
  ASSERT_TRUE(stats.at("ok").as_bool());
  EXPECT_EQ(stats.at("stats").at("schema").as_string(), "hetcomm.metrics.v1");
  EXPECT_FALSE(service.shutdown_requested());

  const JsonValue bye = parse(service.handle_line(R"({"cmd": "shutdown"})"));
  EXPECT_TRUE(bye.at("ok").as_bool());
  EXPECT_TRUE(bye.at("shutdown").as_bool());
  EXPECT_TRUE(service.shutdown_requested());
}

// ---------------------------------------------------------------------
// Resilience contract (docs/serve.md "Resilience").
// ---------------------------------------------------------------------

TEST(ServeTest, ShutdownDrainAnswersEverythingQueued) {
  // run() must never swallow requests buffered behind a shutdown: the
  // shutdown's window answers normally, the rest drain with structured
  // shutting_down errors.
  ServiceOptions options;
  options.window = 2;
  Service service(options);
  const std::string r =
      R"({"machine": "lassen", "nodes": 2, )" + pattern_body() +
      R"(, "reps": 0})";
  std::istringstream in(r + "\n" + R"({"cmd": "shutdown"})" + "\n" + r + "\n" +
                        r + "\n");
  std::ostringstream out;
  service.run(in, out);
  EXPECT_TRUE(service.shutdown_requested());

  std::vector<JsonValue> replies;
  std::istringstream lines(out.str());
  for (std::string line; std::getline(lines, line);) {
    if (!line.empty()) replies.push_back(parse(line));
  }
  ASSERT_EQ(replies.size(), 4u);  // one reply per input line, none lost
  EXPECT_TRUE(replies[0].at("ok").as_bool());
  EXPECT_TRUE(replies[1].at("shutdown").as_bool());
  for (std::size_t i = 2; i < replies.size(); ++i) {
    EXPECT_FALSE(replies[i].at("ok").as_bool());
    EXPECT_EQ(replies[i].at("error_code").as_string(), "shutting_down");
    EXPECT_GE(replies[i].at("retry_after_ms").as_int(), 1);
  }
}

TEST(ServeTest, OverloadShedsWithRetryHintAndSparesControlLines) {
  ServiceOptions options;
  options.max_queue = 1;
  Service service(options);
  const std::string r =
      R"({"machine": "lassen", "nodes": 2, )" + pattern_body() +
      R"(, "strategy": "split+MD", "reps": 2, "seed": 1})";
  const std::vector<std::string> replies =
      service.handle_window({r, r, r, R"({"id": "s", "cmd": "stats"})"});
  ASSERT_EQ(replies.size(), 4u);
  EXPECT_TRUE(parse(replies[0]).at("ok").as_bool());
  for (int i = 1; i < 3; ++i) {
    const JsonValue doc = parse(replies[i]);
    EXPECT_FALSE(doc.at("ok").as_bool());
    EXPECT_EQ(doc.at("error_code").as_string(), "overloaded");
    const std::int64_t hint = doc.at("retry_after_ms").as_int();
    EXPECT_GE(hint, 1);
    EXPECT_LE(hint, 60000);
  }
  // Control lines are never shed -- stats stays reachable under storm.
  const JsonValue stats = parse(replies[3]);
  ASSERT_TRUE(stats.at("ok").as_bool());
  const JsonValue& resil = stats.at("stats").at("serve").at("resilience");
  EXPECT_EQ(resil.at("shed_overloaded").as_int(), 2);
  EXPECT_EQ(resil.at("shed_policy").as_string(), "reject");
}

TEST(ServeTest, DegradePolicyAnswersFromTheModelLayer) {
  ServiceOptions options;
  options.max_queue = 1;
  options.shed_policy = ShedPolicy::Degrade;
  Service service(options);
  const std::string r =
      R"({"machine": "lassen", "nodes": 2, )" + pattern_body() +
      R"(, "reps": 3, "seed": 4})";
  const std::vector<std::string> replies = service.handle_window({r, r});
  ASSERT_EQ(replies.size(), 2u);
  const JsonValue full = parse(replies[0]);
  ASSERT_TRUE(full.at("ok").as_bool());
  EXPECT_TRUE(full.contains("measured"));
  EXPECT_FALSE(full.contains("degraded"));

  const JsonValue shed = parse(replies[1]);
  ASSERT_TRUE(shed.at("ok").as_bool());
  EXPECT_TRUE(shed.at("degraded").as_bool());
  EXPECT_FALSE(shed.contains("measured"));  // no engine lanes ran
  const double confidence = shed.at("confidence").as_double();
  EXPECT_GE(confidence, 0.0);
  EXPECT_LE(confidence, 1.0);
  // Degradation costs measurement detail, never a different answer.
  EXPECT_EQ(shed.at("recommended").as_string(),
            full.at("recommended").as_string());

  const JsonValue metrics = service.metrics_json();
  EXPECT_EQ(metrics.at("serve").at("requests").at("degraded").as_int(), 1);
}

TEST(ServeTest, DeadlineZeroExpiresWithPartialRanking) {
  Service service;
  const JsonValue doc = parse(service.handle_line(
      R"({"machine": "lassen", "nodes": 2, )" + pattern_body() +
      R"(, "reps": 5, "deadline_ms": 0})"));
  EXPECT_FALSE(doc.at("ok").as_bool());
  EXPECT_EQ(doc.at("error_code").as_string(), "deadline_exceeded");
  EXPECT_GE(doc.at("retry_after_ms").as_int(), 1);
  // The ranking was computed before the deadline fired; it rides along.
  const machine::MachineModel model = machine::resolve_machine("lassen");
  const core::Advisor advisor(model.topology(2), model.params);
  const std::vector<core::Recommendation> expect =
      advisor.rank(reference_pattern(), {});
  const JsonValue& partial = doc.at("partial");
  EXPECT_EQ(partial.at("recommended").as_string(),
            expect.front().config.name());
  ASSERT_EQ(partial.at("ranking").size(), expect.size());

  const JsonValue metrics = service.metrics_json();
  const JsonValue& resil = metrics.at("serve").at("resilience");
  EXPECT_EQ(resil.at("deadline_exceeded").as_int(), 1);
  EXPECT_EQ(resil.at("deadline_partials").as_int(), 1);
}

TEST(ServeTest, FaultAbortIsStructuredAndSparesWindowSiblings) {
  const std::string faults_path =
      std::string(HETCOMM_TEST_DATA_DIR) + "/flaky_abort.json";
  const std::string sibling =
      R"({"machine": "lassen", "nodes": 2, )" + pattern_body() +
      R"(, "strategy": "split+MD", "reps": 3, "seed": 9})";
  const std::string faulted =
      R"({"machine": "lassen", "nodes": 2, )" + pattern_body() +
      R"(, "strategy": "split+MD", "reps": 3, "seed": 9, "faults": ")" +
      faults_path + R"("})";

  Service service;
  const std::vector<std::string> replies =
      service.handle_window({faulted, sibling});
  ASSERT_EQ(replies.size(), 2u);

  const JsonValue bad = parse(replies[0]);
  EXPECT_FALSE(bad.at("ok").as_bool());
  EXPECT_EQ(bad.at("error_code").as_string(), "fault_abort");
  const JsonValue& fault = bad.at("fault");
  EXPECT_EQ(fault.at("strategy").as_string(), "split+MD");
  EXPECT_FALSE(fault.at("reason").as_string().empty());
  EXPECT_FALSE(fault.at("path").as_string().empty());
  EXPECT_GE(fault.at("src").as_int(), 0);
  EXPECT_GE(fault.at("dst").as_int(), 0);
  // flaky-abort retries max_attempts=2 at loss probability 1.
  EXPECT_EQ(fault.at("attempts").as_int(), 2);

  // The sibling lane in the same window is untouched: its numbers match a
  // one-shot service that never saw the fault.
  const JsonValue good = parse(replies[1]);
  ASSERT_TRUE(good.at("ok").as_bool());
  Service oneshot;
  const JsonValue expect = parse(oneshot.handle_line(sibling));
  ASSERT_TRUE(expect.at("ok").as_bool());
  EXPECT_DOUBLE_EQ(good.at("measured").at("max_avg").as_double(),
                   expect.at("measured").at("max_avg").as_double());

  const JsonValue metrics = service.metrics_json();
  const JsonValue& serve = metrics.at("serve");
  EXPECT_EQ(serve.at("resilience").at("fault_aborts").as_int(), 1);
  EXPECT_EQ(
      serve.at("requests").at("errors_by_code").at("fault_abort").as_int(), 1);
}

TEST(ServeTest, FaultAbortIsTheLowestAbortingRepetitionAtAnyJobs) {
  // A loss rate at which many repetitions abort, each at its own message.
  // A request's repetitions run on several workers at once, so only the
  // lowest-repetition rule keeps the reply's fault fixed.
  const std::string faults_path =
      ::testing::TempDir() + "serve_lowest_abort.json";
  {
    std::ofstream out(faults_path);
    out << R"({"schema": "hetcomm.fault.v1", "name": "lossy-abort", )"
           R"("seed": 3, "message_loss": [{"path": "off-node", )"
           R"("probability": 0.2, "retry": {"timeout": 1e-4, )"
           R"("backoff": 2.0, "max_delay": 1e-3, "max_attempts": 2}}]})";
  }
  constexpr int kReps = 48;
  constexpr std::uint64_t kSeed = 3;

  // Serial reference: every aborting repetition, run by hand.
  const machine::MachineModel model = machine::resolve_machine("lassen");
  const Topology topo = model.topology(2);
  const core::CommPlan plan =
      core::build_plan(reference_pattern(), topo, model.params,
                       core::parse_strategy("split+MD"));
  const core::CompiledPlan compiled(plan, topo, model.params);
  const FaultModel faults =
      fault::load_fault_file(faults_path).compile(topo, model.params);
  Engine engine(topo, model.params,
                NoiseModel(0, core::MeasureOptions{}.noise_sigma));
  engine.set_faults(&faults);
  std::vector<FaultAbort> aborts;
  int first_abort = -1;
  for (int rep = 0; rep < kReps; ++rep) {
    engine.reset(mix_seed(kSeed, static_cast<std::uint64_t>(rep)));
    try {
      engine.execute(compiled);
    } catch (const FaultAbort& e) {
      if (aborts.empty()) first_abort = rep;
      aborts.push_back(e);
    }
  }
  // The fixture only tests ordering if clean repetitions precede the first
  // abort and later aborts name other messages.
  ASSERT_GE(aborts.size(), 3u);
  ASSERT_GT(first_abort, 0);
  bool other_message = false;
  for (const FaultAbort& e : aborts) {
    other_message |= e.src != aborts.front().src || e.dst != aborts.front().dst;
  }
  ASSERT_TRUE(other_message);

  const std::string request =
      R"({"machine": "lassen", "nodes": 2, )" + pattern_body() +
      R"(, "strategy": "split+MD", "reps": )" + std::to_string(kReps) +
      R"(, "seed": )" + std::to_string(kSeed) + R"(, "faults": ")" +
      faults_path + R"("})";
  const FaultAbort& expect = aborts.front();
  for (const int jobs : {1, 4, 0}) {
    ServiceOptions options;
    options.jobs = jobs;
    Service service(options);
    for (int trial = 0; trial < 3; ++trial) {
      const JsonValue doc = parse(service.handle_line(request));
      ASSERT_EQ(doc.at("error_code").as_string(), "fault_abort")
          << "jobs=" << jobs;
      const JsonValue& fault = doc.at("fault");
      EXPECT_EQ(fault.at("src").as_int(), expect.src) << "jobs=" << jobs;
      EXPECT_EQ(fault.at("dst").as_int(), expect.dst) << "jobs=" << jobs;
      EXPECT_EQ(fault.at("path_id").as_int(), expect.path_id)
          << "jobs=" << jobs;
      EXPECT_EQ(fault.at("attempts").as_int(), expect.attempts)
          << "jobs=" << jobs;
    }
  }
  std::remove(faults_path.c_str());
}

TEST(ServeTest, StatsCountersBalanceAfterMixedTraffic) {
  ServiceOptions options;
  options.max_queue = 2;
  Service service(options);
  const std::string r =
      R"({"machine": "lassen", "nodes": 2, )" + pattern_body() +
      R"(, "strategy": "split+MD", "reps": 2, "seed": 3})";
  (void)service.handle_window({r, r, r, r, "not json", R"({"cmd": "stats"})"});
  (void)service.handle_line(
      R"({"machine": "lassen", "nodes": 2, )" + pattern_body() +
      R"(, "reps": 0})");

  const JsonValue metrics = service.metrics_json();
  const JsonValue& requests = metrics.at("serve").at("requests");
  std::int64_t sum = 0;
  for (const char* bucket :
       {"control", "errors", "degraded", "predict_only", "measured"}) {
    sum += requests.at(bucket).as_int();
  }
  EXPECT_EQ(sum, requests.at("total").as_int());
  std::int64_t code_sum = 0;
  for (const auto& member : requests.at("errors_by_code").members()) {
    code_sum += member.second.as_int();
  }
  EXPECT_EQ(code_sum, requests.at("errors").as_int());
}

TEST(ServeTest, MaxRequestsCountsDataRequestsOnly) {
  // Control lines do not count toward max_requests, and the stop is
  // checked between windows: at window 1 the run answers exactly two data
  // requests and leaves the third unread.
  ServiceOptions options;
  options.window = 1;
  options.max_requests = 2;
  Service service(options);
  const std::string stats = R"({"id": "s", "cmd": "stats"})";
  const std::string data =
      R"({"id": "d", "machine": "lassen", "nodes": 2, )" + pattern_body() +
      R"(, "reps": 0})";
  std::istringstream in(stats + "\n" + data + "\n" + stats + "\n" + data +
                        "\n" + data + "\n");
  std::ostringstream out;
  service.run(in, out);

  std::vector<std::string> ids;
  std::istringstream lines(out.str());
  for (std::string line; std::getline(lines, line);) {
    const JsonValue doc = parse(line);
    EXPECT_TRUE(doc.at("ok").as_bool()) << line;
    ids.push_back(doc.at("id").as_string());
  }
  EXPECT_EQ(ids, (std::vector<std::string>{"s", "d", "s", "d"}));
}

TEST(ServeTest, DegradedConfidenceSeparatesDistinctStrategies) {
  // On single-rail lassen the device-aware striped variant lowers to
  // standard (device-aware); were it ranked as its own row, the top two
  // would tie and every degraded reply would report confidence 0.
  ServiceOptions options;
  options.max_queue = 1;
  options.shed_policy = ShedPolicy::Degrade;
  Service service(options);
  const std::string r =
      R"({"nodes": 4, "pattern": {"random": {"msgs_per_gpu": 8, )"
      R"("bytes": 65536, "seed": 3}}, "reps": 3})";
  const std::vector<std::string> replies = service.handle_window({r, r, r});
  ASSERT_EQ(replies.size(), 3u);
  for (std::size_t i = 1; i < replies.size(); ++i) {
    const JsonValue doc = parse(replies[i]);
    ASSERT_TRUE(doc.at("degraded").as_bool());
    const JsonValue& ranking = doc.at("ranking");
    EXPECT_NE(ranking.at(0).at("strategy").as_string(),
              ranking.at(1).at("strategy").as_string());
    EXPECT_GT(doc.at("confidence").as_double(), 0.0);
  }
}

TEST(ServeTest, BuiltinMalformedLinesAreBadRequests) {
  for (const std::string& line : chaos::builtin_malformed_lines()) {
    Service service;
    const JsonValue doc = parse(service.handle_line(line));
    EXPECT_FALSE(doc.at("ok").as_bool()) << line;
    EXPECT_EQ(doc.at("error_code").as_string(), "bad_request") << line;
  }
}

TEST(ServeProtocolTest, IntegersAreRangeCheckedBeforeNarrowing) {
  // Each of these once narrowed into range (2^32 + k is k as an int) or,
  // for the byte sizes, overflowed an int64 byte total.
  const std::string cases[] = {
      R"({"nodes": 4294967298, "reps": 4294967297})",
      R"({"reps": 4294967297})",
      R"({"pattern": {"random": {"msgs_per_gpu": 4294967297}}})",
      R"({"pattern": {"gpus": 4294967304, "msgs": []}})",
      R"({"pattern": {"gpus": 8, "msgs": [[0, 4294967300, 64]]}})",
      R"({"pattern": {"gpus": 8, "msgs": [[0, 4, 64]], )"
      R"("dedup": [[4294967296, 1, 64]]}})",
      R"({"pattern": {"gpus": 8, "msgs": [[0, 4, 4611686018427387904], )"
      R"([1, 5, 4611686018427387904]]}})",
      R"({"pattern": {"gpus": 12, "msgs": [[0, 4, 64], [0, 8, 64]], )"
      R"("dedup": [[0, 1, 4611686018427387904], )"
      R"([0, 2, 4611686018427387904]]}})",
  };
  const ServiceOptions options;
  for (const std::string& line : cases) {
    Request req;
    EXPECT_THROW(parse_request(line, options, req), std::invalid_argument)
        << line;
  }
  Request ok;
  parse_request(R"({"nodes": 65536, "reps": 100000, "pattern": )"
                R"({"gpus": 8, "msgs": [[7, 0, 64]], "dedup": [[7, 1, 64]]}})",
                options, ok);
  EXPECT_EQ(ok.nodes, 65536);
  EXPECT_EQ(ok.reps, 100000);
  ASSERT_TRUE(ok.source.pattern.has_value());
  EXPECT_EQ(ok.source.pattern->total_bytes(), 64);
}

TEST(ServeTest, DedupAnnotationsMustFitTheMachine) {
  Service service;
  // Two Lassen nodes: GPU 0 sends 200 payload bytes to node 1.
  const std::string head =
      R"({"machine": "lassen", "nodes": 2, "reps": 0, "pattern": )"
      R"({"gpus": 8, "msgs": [[0, 4, 100], [0, 5, 100]], "dedup": )";
  for (const char* dedup : {"[[0, 1, 1000000]]", "[[0, 1, 201]]",
                            "[[0, 9, 7]]", "[[0, 2, 0]]"}) {
    const JsonValue doc = parse(service.handle_line(head + dedup + "}}"));
    EXPECT_FALSE(doc.at("ok").as_bool()) << dedup;
    EXPECT_EQ(doc.at("error_code").as_string(), "bad_request") << dedup;
    EXPECT_NE(doc.at("error").as_string().find("dedup annotation"),
              std::string::npos)
        << dedup;
  }
  const JsonValue fits =
      parse(service.handle_line(head + "[[0, 1, 200], [0, 0, 0]]}}"));
  ASSERT_TRUE(fits.at("ok").as_bool());

  // A ref meets each request's machine anew: 12 GPUs are three Lassen
  // nodes but two Summit nodes, where node 2 does not exist.
  const JsonValue lassen = parse(service.handle_line(
      R"({"machine": "lassen", "nodes": 3, "reps": 0, "pattern": )"
      R"({"gpus": 12, "msgs": [[0, 8, 100]], "dedup": [[0, 2, 50]]}})"));
  ASSERT_TRUE(lassen.at("ok").as_bool());
  const JsonValue summit = parse(service.handle_line(
      R"({"machine": "summit", "nodes": 2, "reps": 0, "pattern": {"ref": ")" +
      lassen.at("pattern_hash").as_string() + R"("}})"));
  EXPECT_FALSE(summit.at("ok").as_bool());
  EXPECT_EQ(summit.at("error_code").as_string(), "bad_request");
}

TEST(ServeTest, ZeroCapacityCacheCompilesEveryQuery) {
  ServiceOptions options;
  options.cache_capacity = 0;
  Service service(options);
  const std::string request =
      R"({"machine": "lassen", "nodes": 2, )" + pattern_body() +
      R"(, "strategy": "split+MD", "reps": 2, "seed": 1})";
  const JsonValue a = parse(service.handle_line(request));
  const JsonValue b = parse(service.handle_line(request));
  ASSERT_TRUE(a.at("ok").as_bool());
  ASSERT_TRUE(b.at("ok").as_bool());
  EXPECT_EQ(a.at("cache").as_string(), "miss");
  EXPECT_EQ(b.at("cache").as_string(), "miss");
  EXPECT_DOUBLE_EQ(a.at("measured").at("max_avg").as_double(),
                   b.at("measured").at("max_avg").as_double());
}

// ---------------------------------------------------------------------------
// Repeated {"random": ...} specs.  A reply without the fields that time the
// request or say whether its plan was cached -- latency_seconds, timing,
// compile_seconds, cache, and retry_after_ms, which comes from the measured
// drain rate -- depends only on the request.

std::string stripped(const std::string& reply) {
  const JsonValue doc = parse(reply);
  JsonValue out = JsonValue::object();
  for (const auto& [key, value] : doc.members()) {
    if (key != "latency_seconds" && key != "timing" &&
        key != "compile_seconds" && key != "cache" &&
        key != "retry_after_ms") {
      out.set(key, value);
    }
  }
  std::string line = out.dump_string(0);
  line.pop_back();  // the newline dump_string appends
  return line;
}

/// A request's "nodes" and {"random": ...} "pattern" members.
std::string random_spec(int nodes, int msgs, std::int64_t bytes, int seed) {
  return R"("nodes": )" + std::to_string(nodes) +
         R"(, "pattern": {"random": {"msgs_per_gpu": )" +
         std::to_string(msgs) + R"(, "bytes": )" + std::to_string(bytes) +
         R"(, "seed": )" + std::to_string(seed) + "}}";
}

/// The stripped replies to 8 random specs on 2 and 4 nodes, each sent 7
/// times: first with the default ranking, then once in each of six request
/// shapes, interleaved so every window mixes them.
/// tests/data/serve_repeat_golden.ndjson holds them.
std::vector<std::string> repeat_heavy_replies(Service& service) {
  constexpr std::int64_t kBytes[4] = {1024, 4096, 16384, 65536};
  std::vector<std::string> spec;
  for (int i = 0; i < 8; ++i) {
    spec.push_back(random_spec(i % 2 == 0 ? 2 : 4, 2 << (i % 3),
                               kBytes[i / 2 % 4], 11 + 7 * i));
  }
  std::vector<std::string> hash(spec.size());
  std::vector<std::string> replies;
  for (int round = 0; round < 7; ++round) {
    std::vector<std::string> lines;
    for (std::size_t i = 0; i < spec.size(); ++i) {
      const std::string head = R"({"id": ")" + std::to_string(round) + "." +
                               std::to_string(i) + R"(", )";
      const std::string seed = std::to_string(round);
      switch (round == 0 ? 0 : (i + static_cast<std::size_t>(round)) % 6) {
        case 0:  // default ranking: the advisor picks
          lines.push_back(head + spec[i] + R"(, "reps": 2, "seed": )" + seed +
                          "}");
          break;
        case 1:
          lines.push_back(head + spec[i] +
                          R"(, "staged_only": true, "reps": 2})");
          break;
        case 2:
          lines.push_back(head + spec[i] + R"(, "rank": false, "strategy": ")" +
                          (i % 2 == 0 ? "split+MD" : "2-step (staged)") +
                          R"(", "reps": 2, "seed": )" + seed + "}");
          break;
        case 3:
          lines.push_back(head + spec[i] + R"(, "reps": 0})");
          break;
        case 4:  // expires before execution: a partial ranking
          lines.push_back(head + spec[i] + R"(, "reps": 2, "deadline_ms": 0})");
          break;
        default:
          lines.push_back(head + R"("nodes": )" + (i % 2 == 0 ? "2" : "4") +
                          R"(, "pattern": {"ref": ")" + hash[i] +
                          R"("}, "reps": 2, "seed": )" + seed + "}");
          break;
      }
    }
    // One line twice in the window: the second send adopts the first's plan.
    lines.push_back(lines[static_cast<std::size_t>(round)]);
    for (const std::string& reply : service.handle_window(lines)) {
      replies.push_back(stripped(reply));
    }
    if (round == 0) {
      for (std::size_t i = 0; i < spec.size(); ++i) {
        hash[i] = parse(replies[i]).at("pattern_hash").as_string();
      }
    }
  }
  return replies;
}

TEST(ServeTest, RepeatedRandomSpecsMatchTheGolden) {
  Service service;
  const std::vector<std::string> replies = repeat_heavy_replies(service);
  std::ifstream in(std::string(HETCOMM_TEST_DATA_DIR) +
                   "/serve_repeat_golden.ndjson");
  ASSERT_TRUE(in.good());
  std::vector<std::string> golden;
  for (std::string line; std::getline(in, line);) golden.push_back(line);
  ASSERT_EQ(replies.size(), golden.size());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ(replies[i], golden[i]) << "reply " << i;
  }
}

TEST(ServeTest, RandomSpecAnswersTheSameAfterItsPatternIsEvicted) {
  Service service;  // a registry of 1,024 patterns
  const std::string spec =
      "{" + random_spec(2, 4, 8192, 77) + R"(, "reps": 2, "seed": 5})";
  const std::string first = stripped(service.handle_line(spec));
  ASSERT_TRUE(parse(first).at("ok").as_bool()) << first;
  const std::string hash = parse(first).at("pattern_hash").as_string();
  const std::string by_ref = R"({"nodes": 2, "pattern": {"ref": ")" + hash +
                             R"("}, "reps": 0})";
  // 2,048 other patterns evict it from the registry: inline ones, which
  // enter the registry alone, then random specs.
  for (const bool inline_others : {true, false}) {
    for (int k = 0; k < 2048; k += 64) {
      std::vector<std::string> lines;
      for (int j = 1000 + k; j < 1000 + k + 64; ++j) {
        std::string line = "{";
        if (inline_others) {
          line += R"("nodes": 2, "pattern": {"gpus": 8, "msgs": [[0, 5, )";
          line += std::to_string(j);
          line += "]]}";
        } else {
          line += random_spec(2, 1, 512, j);
        }
        line += R"(, "reps": 0})";
        lines.push_back(std::move(line));
      }
      for (const std::string& reply : service.handle_window(lines)) {
        ASSERT_TRUE(parse(reply).at("ok").as_bool()) << reply;
      }
    }
    const JsonValue gone = parse(service.handle_line(by_ref));
    EXPECT_FALSE(gone.at("ok").as_bool());
    EXPECT_NE(gone.at("error").as_string().find("unknown pattern ref"),
              std::string::npos);
    EXPECT_EQ(stripped(service.handle_line(spec)), first);
    const JsonValue again = parse(service.handle_line(by_ref));
    ASSERT_TRUE(again.at("ok").as_bool());
    EXPECT_EQ(again.at("pattern_hash").as_string(), hash);
  }
}

TEST(ServeTest, RandomSpecMemoCountsOnlyRandomSpecs) {
  Service service;
  const std::string a = "{" + random_spec(2, 4, 4096, 3) + R"(, "reps": 0})";
  const std::string b = "{" + random_spec(4, 4, 4096, 3) + R"(, "reps": 0})";
  const std::string hash =
      parse(service.handle_line(a)).at("pattern_hash").as_string();
  (void)service.handle_window({a, b, a});
  (void)service.handle_line(R"({"nodes": 2, "pattern": {"ref": ")" + hash +
                            R"("}, "reps": 0})");
  (void)service.handle_line(R"({"nodes": 2, )" + pattern_body() +
                            R"(, "reps": 0})");
  const JsonValue metrics = service.metrics_json();
  const JsonValue& cache = metrics.at("serve").at("cache");
  const JsonValue& source = cache.at("source");
  EXPECT_EQ(source.at("hits").as_int(), 2);    // a's second and third sends
  EXPECT_EQ(source.at("misses").as_int(), 2);  // a, and b on 4 nodes
  EXPECT_EQ(source.at("entries").as_int(), 2);
  EXPECT_EQ(source.at("capacity").as_int(),
            cache.at("pattern").at("capacity").as_int());
  EXPECT_EQ(source.at("shards").as_int(),
            cache.at("pattern").at("shards").as_int());
}

TEST(ServeTest, EveryChurnSpecHitsMemoAndRegistryOnItsSecondSend) {
  // serve_churn's shape: 1,024 distinct specs on 4-node lassen, 8 or 16
  // messages per GPU, three message sizes.  The memo and the registry each
  // hold 1,024 entries, so a second cycle over the specs finds every one.
  Service service;
  constexpr std::int64_t kBytes[3] = {2048, 8192, 32768};
  std::vector<std::string> lines;
  for (int k = 0; k < 1024; ++k) {
    std::string line = "{";
    line += random_spec(4, k % 2 == 0 ? 8 : 16, kBytes[(k / 2) % 3],
                        (7919 * k + 13) % 1000000);
    line += R"(, "reps": 0})";
    lines.push_back(std::move(line));
  }
  const auto counters = [&service](const char* cache) {
    const JsonValue metrics = service.metrics_json();
    const JsonValue& c = metrics.at("serve").at("cache").at(cache);
    return std::pair{c.at("hits").as_int(), c.at("misses").as_int()};
  };
  for (const std::string& line : lines) {
    ASSERT_TRUE(parse(service.handle_line(line)).at("ok").as_bool()) << line;
  }
  const auto [source_hits, source_misses] = counters("source");
  const auto [pattern_hits, pattern_misses] = counters("pattern");
  EXPECT_EQ(source_misses, 1024);
  for (const std::string& line : lines) {
    ASSERT_TRUE(parse(service.handle_line(line)).at("ok").as_bool()) << line;
  }
  EXPECT_EQ(counters("source"), std::pair(source_hits + 1024, source_misses));
  EXPECT_EQ(counters("pattern"),
            std::pair(pattern_hits + 1024, pattern_misses));
}

TEST(ServeTest, OversizedRandomSpecIsABadRequestOnEveryRepeat) {
  Service service;
  // 8 GPUs x 131,073 messages is 8 past kMaxPatternSize; 2^62-byte
  // messages overflow the pattern's int64 byte total.
  const std::string too_many =
      "{" + random_spec(2, 131073, 8, 1) + R"(, "reps": 0})";
  const std::string too_big =
      "{" + random_spec(2, 4, std::int64_t{1} << 62, 1) + R"(, "reps": 0})";
  for (const std::string& line : {too_many, too_big}) {
    std::vector<std::string> replies = service.handle_window({line, line});
    replies.push_back(service.handle_line(line));
    for (const std::string& reply : replies) {
      const JsonValue doc = parse(reply);
      EXPECT_FALSE(doc.at("ok").as_bool()) << reply;
      EXPECT_EQ(doc.at("error_code").as_string(), "bad_request");
      EXPECT_EQ(doc.at("error").as_string(),
                parse(replies.front()).at("error").as_string());
    }
  }
  EXPECT_NE(parse(service.handle_line(too_many))
                .at("error")
                .as_string()
                .find("1048584 messages"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Exact reply bytes.  render() is a pure function of the request, the done
// time, the retry hint and the control body, so fixed inputs pin every
// byte, latency included.

class RenderGolden : public ::testing::Test {
 protected:
  static Clock::time_point enqueued() {
    return Clock::time_point{} + std::chrono::microseconds(5000);
  }
  static Clock::time_point done() {
    return enqueued() + std::chrono::nanoseconds(1234567);
  }

  static std::vector<core::Recommendation> ranking() {
    return {
        {core::parse_strategy("split+MD"), 9.7312345678901234e-05, 1.0},
        {core::parse_strategy("2-step (staged)"), 1.0541234567890123e-04,
         1.0832375263842451},
        {core::parse_strategy("standard (device-aware)"), 2.5e-4,
         2.5690404040404041},
    };
  }

  /// An answered data request: 8 measured repetitions of split+MD that
  /// compiled its plan, ranked, with a string id that needs escaping.
  Request measured() const {
    Request req;
    req.id = JsonValue(std::string("q\"1\\\n\t\x01\x1f caf\xc3\xa9"));
    req.machine_name = "lassen";
    req.nodes = 2;
    req.reps = 8;
    req.seed = 0x5eed;
    req.has_strategy = true;
    req.strategy = core::parse_strategy("split+MD");
    req.machine = &machine_;
    req.pattern = pattern_;
    req.pattern_fp = 0x0123456789abcdefULL;
    req.ranking = ranking();
    req.compiled_here = true;
    req.compile_seconds = 2.75e-5;
    req.max_avg = 1.0234567890123457e-4;
    req.makespan.count = 8;
    req.makespan.mean = 1.0987654321098765e-4;
    req.makespan.p50 = 1.0900000000000001e-4;
    req.makespan.p99 = 1.2345678901234567e-4;
    req.makespan.min = 1.0e-4;
    req.makespan.max = 1.2345678901234567e-4;
    req.enqueued = enqueued();
    req.queue_wait_seconds = 3.0e-6;
    req.execute_seconds = 4.5678901234567891e-5;
    return req;
  }

  MachineEntry machine_{machine::lassen_machine(), 0x1234};
  std::shared_ptr<const core::CommPattern> pattern_ =
      std::make_shared<const core::CommPattern>(reference_pattern());
};

TEST_F(RenderGolden, MeasuredReplyWithRanking) {
  EXPECT_EQ(render(measured(), done(), 7, JsonValue()),
            "{\"id\": \"q\\\"1\\\\\\n\\t\\u0001\\u001f caf\303\251\",\""
            "latency_seconds\": 0.001234567,\"ok\": true,\"machine\": "
            "\"lassen\",\"nodes\": 2,\"gpus\": 8,\"pattern_hash\": \"0x"
            "0123456789abcdef\",\"recommended\": \"split+MD\",\"ranking"
            "\": [{\"strategy\": \"split+MD\",\"predicted_seconds\": 9."
            "731234567890124e-05,\"relative\": 1},{\"strategy\": \"2-st"
            "ep (staged)\",\"predicted_seconds\": 0.0001054123456789012"
            "3,\"relative\": 1.0832375263842451},{\"strategy\": \"stand"
            "ard (device-aware)\",\"predicted_seconds\": 0.000250000000"
            "00000001,\"relative\": 2.569040404040404}],\"measured\": {"
            "\"strategy\": \"split+MD\",\"reps\": 8,\"seed\": 24301,\"m"
            "ax_avg\": 0.00010234567890123457,\"makespan\": {\"count\":"
            " 8,\"mean\": 0.00010987654321098766,\"p50\": 0.00010900000"
            "000000001,\"p99\": 0.00012345678901234567,\"min\": 0.0001,"
            "\"max\": 0.00012345678901234567}},\"cache\": \"miss\",\"co"
            "mpile_seconds\": 2.7500000000000001e-05,\"timing\": {\"que"
            "ue_wait_seconds\": 3.0000000000000001e-06,\"compile_second"
            "s\": 2.7500000000000001e-05,\"execute_seconds\": 4.5678901"
            "234567889e-05,\"latency_seconds\": 0.001234567}}");
}

TEST_F(RenderGolden, MeasuredReplyWithoutRanking) {
  Request req = measured();
  JsonValue id = JsonValue::object();
  id.set("client", "a/b");
  id.set("seq", 7);
  JsonValue tags = JsonValue::array();
  tags.push_back("x");
  tags.push_back(1.5);
  id.set("tags", std::move(tags));
  req.id = std::move(id);
  req.want_ranking = false;
  req.ranking.clear();
  req.compiled_here = false;
  req.cache_hit = true;
  req.seed = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(render(req, done(), 7, JsonValue()),
            "{\"id\": {\"client\": \"a/b\",\"seq\": 7,\"tags\": [\"x\","
            "1.5]},\"latency_seconds\": 0.001234567,\"ok\": true,\"mach"
            "ine\": \"lassen\",\"nodes\": 2,\"gpus\": 8,\"pattern_hash"
            "\": \"0x0123456789abcdef\",\"measured\": {\"strategy\": \""
            "split+MD\",\"reps\": 8,\"seed\": -1,\"max_avg\": 0.0001023"
            "4567890123457,\"makespan\": {\"count\": 8,\"mean\": 0.0001"
            "0987654321098766,\"p50\": 0.00010900000000000001,\"p99\": "
            "0.00012345678901234567,\"min\": 0.0001,\"max\": 0.00012345"
            "678901234567}},\"cache\": \"hit\",\"timing\": {\"queue_wai"
            "t_seconds\": 3.0000000000000001e-06,\"compile_seconds\": 0"
            ",\"execute_seconds\": 4.5678901234567889e-05,\"latency_sec"
            "onds\": 0.001234567}}");
}

TEST_F(RenderGolden, PredictOnlyReply) {
  Request req = measured();
  req.id = JsonValue(std::int64_t{42});
  req.reps = 0;
  req.compiled_here = false;
  req.execute_seconds = 0.0;
  EXPECT_EQ(render(req, done(), 7, JsonValue()),
            "{\"id\": 42,\"latency_seconds\": 0.001234567,\"ok\": true,"
            "\"machine\": \"lassen\",\"nodes\": 2,\"gpus\": 8,\"pattern"
            "_hash\": \"0x0123456789abcdef\",\"recommended\": \"split+M"
            "D\",\"ranking\": [{\"strategy\": \"split+MD\",\"predicted_"
            "seconds\": 9.731234567890124e-05,\"relative\": 1},{\"strat"
            "egy\": \"2-step (staged)\",\"predicted_seconds\": 0.000105"
            "41234567890123,\"relative\": 1.0832375263842451},{\"strate"
            "gy\": \"standard (device-aware)\",\"predicted_seconds\": 0"
            ".00025000000000000001,\"relative\": 2.569040404040404}],\""
            "timing\": {\"queue_wait_seconds\": 3.0000000000000001e-06,"
            "\"compile_seconds\": 0,\"execute_seconds\": 0,\"latency_se"
            "conds\": 0.001234567}}");
}

TEST_F(RenderGolden, DegradedReply) {
  Request req = measured();
  JsonValue id = JsonValue::array();
  id.push_back(1);
  id.push_back("two");
  id.push_back(nullptr);
  id.push_back(true);
  id.push_back(-0.0);
  id.push_back(JsonValue::object());
  id.push_back(JsonValue::array());
  req.id = std::move(id);
  req.compiled_here = false;
  req.degraded = true;
  req.confidence = 0.076895555555555556;
  req.plan_cached = true;
  req.execute_seconds = 0.0;
  EXPECT_EQ(render(req, done(), 7, JsonValue()),
            "{\"id\": [1,\"two\",null,true,-0,{},[]],\"latency_seconds"
            "\": 0.001234567,\"ok\": true,\"machine\": \"lassen\",\"nod"
            "es\": 2,\"gpus\": 8,\"pattern_hash\": \"0x0123456789abcdef"
            "\",\"recommended\": \"split+MD\",\"ranking\": [{\"strategy"
            "\": \"split+MD\",\"predicted_seconds\": 9.731234567890124e"
            "-05,\"relative\": 1},{\"strategy\": \"2-step (staged)\",\""
            "predicted_seconds\": 0.00010541234567890123,\"relative\": "
            "1.0832375263842451},{\"strategy\": \"standard (device-awar"
            "e)\",\"predicted_seconds\": 0.00025000000000000001,\"relat"
            "ive\": 2.569040404040404}],\"degraded\": true,\"confidence"
            "\": 0.07689555555555555,\"cache\": \"hit\",\"timing\": {\""
            "queue_wait_seconds\": 3.0000000000000001e-06,\"compile_sec"
            "onds\": 0,\"execute_seconds\": 0,\"latency_seconds\": 0.00"
            "1234567}}");
}

TEST_F(RenderGolden, FaultAbortReplyCarriesTheFault) {
  Request req = measured();
  req.error = "fault abort: retries exhausted on \"inter-node\"";
  req.code = ErrorCode::FaultAborted;
  req.fault.emplace(FaultAbort::Reason::RetriesExhausted, "split+MD", 3, 12,
                    2, "inter-node", 5);
  EXPECT_EQ(render(req, done(), 7, JsonValue()),
            "{\"id\": \"q\\\"1\\\\\\n\\t\\u0001\\u001f caf\303\251\",\""
            "latency_seconds\": 0.001234567,\"ok\": false,\"error\": \""
            "fault abort: retries exhausted on \\\"inter-node\\\"\",\"e"
            "rror_code\": \"fault_abort\",\"fault\": {\"reason\": \"ret"
            "ries_exhausted\",\"strategy\": \"split+MD\",\"src\": 3,\"d"
            "st\": 12,\"path_id\": 2,\"path\": \"inter-node\",\"attempt"
            "s\": 5}}");
  req.fault->reason = FaultAbort::Reason::NicUnavailable;
  req.ranking.clear();
  EXPECT_EQ(render(req, done(), 7, JsonValue()),
            "{\"id\": \"q\\\"1\\\\\\n\\t\\u0001\\u001f caf\303\251\",\""
            "latency_seconds\": 0.001234567,\"ok\": false,\"error\": \""
            "fault abort: retries exhausted on \\\"inter-node\\\"\",\"e"
            "rror_code\": \"fault_abort\",\"fault\": {\"reason\": \"nic"
            "_unavailable\",\"strategy\": \"split+MD\",\"src\": 3,\"dst"
            "\": 12,\"path_id\": 2,\"path\": \"inter-node\",\"attempts"
            "\": 5}}");
}

TEST_F(RenderGolden, DeadlineExceededReplyCarriesThePartialRanking) {
  Request req = measured();
  req.error = "deadline exceeded before execution";
  req.code = ErrorCode::DeadlineExceeded;
  EXPECT_EQ(render(req, done(), 17, JsonValue()),
            "{\"id\": \"q\\\"1\\\\\\n\\t\\u0001\\u001f caf\303\251\",\""
            "latency_seconds\": 0.001234567,\"ok\": false,\"error\": \""
            "deadline exceeded before execution\",\"error_code\": \"dea"
            "dline_exceeded\",\"retry_after_ms\": 17,\"partial\": {\"re"
            "commended\": \"split+MD\",\"ranking\": [{\"strategy\": \"s"
            "plit+MD\",\"predicted_seconds\": 9.731234567890124e-05,\"r"
            "elative\": 1},{\"strategy\": \"2-step (staged)\",\"predict"
            "ed_seconds\": 0.00010541234567890123,\"relative\": 1.08323"
            "75263842451},{\"strategy\": \"standard (device-aware)\",\""
            "predicted_seconds\": 0.00025000000000000001,\"relative\": "
            "2.569040404040404}]}}");
  req.ranking.clear();
  EXPECT_EQ(render(req, done(), 17, JsonValue()),
            "{\"id\": \"q\\\"1\\\\\\n\\t\\u0001\\u001f caf\303\251\",\""
            "latency_seconds\": 0.001234567,\"ok\": false,\"error\": \""
            "deadline exceeded before execution\",\"error_code\": \"dea"
            "dline_exceeded\",\"retry_after_ms\": 17}");
}

TEST_F(RenderGolden, ShedAndUnclassifiedErrors) {
  Request req;
  req.enqueued = enqueued();
  req.error = "server overloaded: pending queue is at max_queue (4)";
  req.code = ErrorCode::Overloaded;
  EXPECT_EQ(render(req, done(), 60000, JsonValue()),
            "{\"id\": null,\"latency_seconds\": 0.001234567,\"ok\": fal"
            "se,\"error\": \"server overloaded: pending queue is at max"
            "_queue (4)\",\"error_code\": \"overloaded\",\"retry_after_"
            "ms\": 60000}");
  req.code = ErrorCode::ShuttingDown;
  req.id = JsonValue("shed\x7f");
  EXPECT_EQ(render(req, done(), 1, JsonValue()),
            "{\"id\": \"shed\177\",\"latency_seconds\": 0.001234567,\"o"
            "k\": false,\"error\": \"server overloaded: pending queue i"
            "s at max_queue (4)\",\"error_code\": \"shutting_down\",\"r"
            "etry_after_ms\": 1}");
  req.code = ErrorCode::None;
  req.error = "JSON parse error at line 1, column 2 (byte 1): \"\\\"";
  EXPECT_EQ(render(req, done(), 1, JsonValue()),
            "{\"id\": \"shed\177\",\"latency_seconds\": 0.001234567,\"o"
            "k\": false,\"error\": \"JSON parse error at line 1, column"
            " 2 (byte 1): \\\"\\\\\\\"\",\"error_code\": \"bad_request"
            "\"}");
  req.code = ErrorCode::Internal;
  EXPECT_EQ(render(req, done(), 1, JsonValue()),
            "{\"id\": \"shed\177\",\"latency_seconds\": 0.001234567,\"o"
            "k\": false,\"error\": \"JSON parse error at line 1, column"
            " 2 (byte 1): \\\"\\\\\\\"\",\"error_code\": \"internal\"}");
}

TEST_F(RenderGolden, ControlReplies) {
  Request req;
  req.enqueued = enqueued();
  req.control = true;
  req.id = JsonValue("ctl");
  req.cmd = "stats";
  JsonValue body = JsonValue::object();
  body.set("schema", "hetcomm.metrics.v1");
  body.set("requests", std::int64_t{3});
  JsonValue cache = JsonValue::object();
  cache.set("hit_rate", 2.0 / 3.0);
  cache.set("entries", JsonValue::array());
  body.set("cache", std::move(cache));
  body.set("nan", std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(render(req, done(), 7, body),
            "{\"id\": \"ctl\",\"latency_seconds\": 0.001234567,\"ok\": "
            "true,\"stats\": {\"schema\": \"hetcomm.metrics.v1\",\"requ"
            "ests\": 3,\"cache\": {\"hit_rate\": 0.66666666666666663,\""
            "entries\": []},\"nan\": null}}");
  req.cmd = "trace";
  EXPECT_EQ(render(req, done(), 7, JsonValue()),
            "{\"id\": \"ctl\",\"latency_seconds\": 0.001234567,\"ok\": "
            "false,\"error\": \"tracing is disabled (start the server w"
            "ith --trace)\"}");
  EXPECT_EQ(render(req, done(), 7, body),
            "{\"id\": \"ctl\",\"latency_seconds\": 0.001234567,\"ok\": "
            "true,\"trace\": {\"schema\": \"hetcomm.metrics.v1\",\"requ"
            "ests\": 3,\"cache\": {\"hit_rate\": 0.66666666666666663,\""
            "entries\": []},\"nan\": null}}");
  req.cmd = "shutdown";
  req.id = JsonValue();
  EXPECT_EQ(render(req, done(), 7, JsonValue()),
            "{\"id\": null,\"latency_seconds\": 0.001234567,\"ok\": tru"
            "e,\"shutdown\": true}");
}

}  // namespace
}  // namespace hetcomm::serve
