#include "serve/service.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
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

}  // namespace
}  // namespace hetcomm::serve
