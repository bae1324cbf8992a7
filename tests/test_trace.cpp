#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "serve/service.hpp"

namespace hetcomm::obs {
namespace {

Tracer::Options small_ring(std::size_t capacity, std::uint64_t period = 1) {
  Tracer::Options o;
  o.rings = 1;
  o.ring_capacity = capacity;
  o.sample_period = period;
  return o;
}

TEST(TracerTest, InternDedupesAndNamesRoundTrip) {
  Tracer tracer(small_ring(16));
  const std::uint16_t a = tracer.intern("request");
  const std::uint16_t b = tracer.intern("execute");
  EXPECT_NE(a, b);
  EXPECT_EQ(tracer.intern("request"), a);  // stable slot, no duplicate
  SpanRecord span;
  span.trace_id = 1;
  span.span_id = tracer.new_span_id();
  span.name = a;
  span.t_start = 0.5;
  span.t_end = 1.0;
  tracer.record(0, span);
  const JsonValue doc = tracer.to_json();
  ASSERT_EQ(doc.at("spans").size(), 1u);
  EXPECT_EQ(doc.at("spans").at(0).at("name").as_string(), "request");
}

TEST(TracerTest, RingDropsOldestWithExactCounter) {
  Tracer tracer(small_ring(4));
  const std::uint16_t name = tracer.intern("s");
  for (int i = 1; i <= 10; ++i) {
    SpanRecord span;
    span.trace_id = 1;
    span.span_id = static_cast<std::uint32_t>(i);
    span.name = name;
    span.t_start = i;
    span.t_end = i + 1;
    tracer.record(0, span);
  }
  EXPECT_EQ(tracer.recorded(), 10);
  EXPECT_EQ(tracer.dropped(), 6);
  const JsonValue doc = tracer.to_json();
  EXPECT_EQ(doc.at("meta").at("spans").as_int(), 4);
  EXPECT_EQ(doc.at("meta").at("dropped").as_int(), 6);
  const JsonValue& spans = doc.at("spans");
  ASSERT_EQ(spans.size(), 4u);
  // Drop-oldest: the newest four span ids survive, in sorted order.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(spans.at(i).at("span").as_int(),
              static_cast<std::int64_t>(7 + i));
  }
}

TEST(TracerTest, SamplingKeepsEveryNthTrace) {
  Tracer tracer(small_ring(16, /*period=*/3));
  EXPECT_FALSE(tracer.sampled(0));  // id 0 is reserved / never sampled
  std::vector<std::uint64_t> kept;
  for (int i = 0; i < 9; ++i) {
    const std::uint64_t id = tracer.begin_trace();
    if (tracer.sampled(id)) kept.push_back(id);
  }
  EXPECT_EQ(kept, (std::vector<std::uint64_t>{1, 4, 7}));
}

TEST(TracerTest, ScopedSpanBuildsParentChains) {
  Tracer tracer(small_ring(16));
  const std::uint64_t trace = tracer.begin_trace();
  TraceContext root{&tracer, 0, trace, 0, 0};
  std::uint32_t outer_id = 0;
  {
    ScopedSpan outer(root, tracer.intern("outer"));
    outer_id = outer.id();
    ASSERT_NE(outer_id, 0u);
    const ScopedSpan inner(root.child(outer.id()), tracer.intern("inner"));
    EXPECT_NE(inner.id(), outer_id);
  }
  const JsonValue doc = tracer.to_json();
  const JsonValue& spans = doc.at("spans");
  ASSERT_EQ(spans.size(), 2u);
  // Sorted by span id: outer first, inner parented under it and nested.
  EXPECT_EQ(spans.at(0).at("name").as_string(), "outer");
  EXPECT_EQ(spans.at(0).at("parent").as_int(), 0);
  EXPECT_EQ(spans.at(1).at("name").as_string(), "inner");
  EXPECT_EQ(spans.at(1).at("parent").as_int(),
            static_cast<std::int64_t>(outer_id));
  EXPECT_GE(spans.at(1).at("t_start").as_double(),
            spans.at(0).at("t_start").as_double());
  EXPECT_LE(spans.at(1).at("t_end").as_double(),
            spans.at(0).at("t_end").as_double());
}

TEST(TracerTest, InactiveScopedSpanRecordsNothing) {
  Tracer tracer(small_ring(16));
  {
    const TraceContext off{};  // null tracer: every helper is a no-op
    ScopedSpan span(off, 0);
    EXPECT_FALSE(span.active());
    EXPECT_EQ(span.id(), 0u);
    span.add_attr(1, 2);
  }
  EXPECT_EQ(tracer.recorded(), 0);
}

TEST(TracerTest, ChromeExportEmitsEventsAndTrackNames) {
  Tracer tracer(small_ring(16));
  tracer.name_track(0, "worker 0");
  tracer.name_track(kEngineTrackBase + 2, "engine rank 2");
  const std::uint64_t trace = tracer.begin_trace();
  const TraceContext ctx{&tracer, 0, trace, 0, 0};
  { const ScopedSpan span(ctx, tracer.intern("request")); }
  SpanRecord engine;
  engine.trace_id = trace;
  engine.span_id = tracer.new_span_id();
  engine.name = tracer.intern("engine.msg");
  engine.track = kEngineTrackBase + 2;
  engine.t_start = 0.1;
  engine.t_end = 0.2;
  tracer.record(0, engine);

  std::ostringstream os;
  write_chrome_trace_artifact(os, tracer.to_json());
  const JsonValue chrome = JsonValue::parse(os.str());
  const JsonValue& events = chrome.at("traceEvents");
  int complete = 0, metadata = 0;
  bool saw_engine_thread = false;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const JsonValue& e = events.at(i);
    const std::string phase = e.at("ph").as_string();
    if (phase == "X") ++complete;
    if (phase == "M") {
      ++metadata;
      if (e.at("name").as_string() == "thread_name" &&
          e.at("args").at("name").as_string() == "engine rank 2") {
        saw_engine_thread = true;
      }
    }
  }
  EXPECT_EQ(complete, 2);
  EXPECT_GE(metadata, 2);
  EXPECT_TRUE(saw_engine_thread);
}

TEST(TracerTest, ChromeExportKeepsEveryDigitAndOneEventPerLine) {
  Tracer tracer(small_ring(16));
  SpanRecord span;
  span.trace_id = tracer.begin_trace();
  span.span_id = tracer.new_span_id();
  span.name = tracer.intern("window");
  span.t_start = 3.380931;  // past 1 s, where 6 significant digits fall short
  span.t_end = 3.380992;
  span.add_attr(tracer.intern("requests"), 2);
  span.add_attr_slot(tracer.intern("cache"), tracer.intern("hit"));
  tracer.record(0, span);

  std::ostringstream os;
  write_chrome_trace_artifact(os, tracer.to_json());
  std::istringstream lines(os.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, R"({"traceEvents": [)");
  int spans = 0;
  while (std::getline(lines, line) && line != "]}") {
    if (line.back() == ',') line.pop_back();
    const JsonValue event = JsonValue::parse(line);  // a whole event
    if (event.at("ph").as_string() != "X") continue;
    ++spans;
    EXPECT_NEAR(event.at("ts").as_double(), 3380931.0, 1e-3);
    EXPECT_NEAR(event.at("dur").as_double(), 61.0, 1e-3);
    EXPECT_EQ(event.at("args").at("requests").as_int(), 2);
    EXPECT_EQ(event.at("args").at("cache").as_string(), "hit");
  }
  EXPECT_EQ(spans, 1);
  EXPECT_EQ(line, "]}");
  EXPECT_FALSE(std::getline(lines, line));
}

// ---- service integration ------------------------------------------------

std::string measured_request(int id, int reps, std::uint64_t seed) {
  return R"({"id": )" + std::to_string(id) +
         R"(, "machine": "lassen", "nodes": 2, "pattern": {"gpus": 8, )"
         R"("msgs": [[0, 4, 8192], [1, 5, 4096], [2, 6, 4096]]}, )"
         R"("strategy": "split+MD", "reps": )" + std::to_string(reps) +
         R"(, "seed": )" + std::to_string(seed) + "}";
}

serve::ServiceOptions traced_options() {
  serve::ServiceOptions options;
  options.jobs = 2;
  options.trace = true;
  return options;
}

/// Count spans named `name` in a hetcomm.trace.v1 artifact.
int count_spans(const JsonValue& artifact, const std::string& name) {
  int n = 0;
  const JsonValue& spans = artifact.at("spans");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans.at(i).at("name").as_string() == name) ++n;
  }
  return n;
}

TEST(ServeTraceTest, DisabledByDefaultAndTraceJsonThrows) {
  serve::Service service;
  EXPECT_FALSE(service.tracing_enabled());
  EXPECT_THROW((void)service.trace_json(), std::logic_error);
  const JsonValue doc =
      JsonValue::parse(service.handle_line(R"({"cmd": "trace"})"));
  EXPECT_FALSE(doc.at("ok").as_bool());
  EXPECT_NE(doc.at("error").as_string().find("--trace"), std::string::npos);
}

TEST(ServeTraceTest, RequestSpanTreeMatchesReportedLatency) {
  serve::Service service(traced_options());
  ASSERT_TRUE(service.tracing_enabled());
  const std::vector<std::string> replies = service.handle_window(
      {measured_request(1, 3, 7), measured_request(2, 3, 7)});
  ASSERT_EQ(replies.size(), 2u);
  std::vector<double> latencies;
  for (const std::string& line : replies) {
    const JsonValue doc = JsonValue::parse(line);
    ASSERT_TRUE(doc.at("ok").as_bool());
    latencies.push_back(doc.at("latency_seconds").as_double());
  }

  const JsonValue artifact = service.trace_json();
  EXPECT_EQ(artifact.at("schema").as_string(), kTraceSchema);
  EXPECT_EQ(count_spans(artifact, "request"), 2);
  EXPECT_EQ(count_spans(artifact, "parse"), 2);
  EXPECT_EQ(count_spans(artifact, "execute"), 2);
  EXPECT_EQ(count_spans(artifact, "window"), 1);
  // Identical queries share one cache lookup and one compile.
  EXPECT_EQ(count_spans(artifact, "cache.lookup"), 1);
  EXPECT_EQ(count_spans(artifact, "cache.build"), 1);

  // The request root span *is* the reported latency: both derive from the
  // same enqueue/done time points.
  const JsonValue& spans = artifact.at("spans");
  std::vector<double> root_durations;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const JsonValue& s = spans.at(i);
    if (s.at("name").as_string() != "request") continue;
    EXPECT_EQ(s.at("parent").as_int(), 0);
    root_durations.push_back(s.at("t_end").as_double() -
                             s.at("t_start").as_double());
  }
  ASSERT_EQ(root_durations.size(), latencies.size());
  for (const double latency : latencies) {
    bool matched = false;
    for (const double dur : root_durations) {
      if (std::abs(dur - latency) < 1e-9) matched = true;
    }
    EXPECT_TRUE(matched) << "no root span matches latency " << latency;
  }
}

TEST(ServeTraceTest, BadRequestGetsErrorSpanAndServerKeepsServing) {
  serve::Service service(traced_options());
  const JsonValue bad =
      JsonValue::parse(service.handle_line("this is not json"));
  EXPECT_FALSE(bad.at("ok").as_bool());
  EXPECT_FALSE(bad.at("error").as_string().empty());
  EXPECT_GE(bad.at("latency_seconds").as_double(), 0.0);

  const JsonValue unknown = JsonValue::parse(service.handle_line(
      R"({"machine": "not-a-machine", "nodes": 2, "pattern": )"
      R"({"gpus": 8, "msgs": [[0, 4, 64]]}, "reps": 1})"));
  EXPECT_FALSE(unknown.at("ok").as_bool());

  const JsonValue ref_miss = JsonValue::parse(service.handle_line(
      R"({"machine": "lassen", "nodes": 2, "pattern": {"ref": "0xdead"}, )"
      R"("reps": 1})"));
  EXPECT_FALSE(ref_miss.at("ok").as_bool());

  const JsonValue artifact = service.trace_json();
  EXPECT_EQ(count_spans(artifact, "request.error"), 3);
  EXPECT_EQ(count_spans(artifact, "request"), 3);

  // Still serving: a good request after the bad ones succeeds and traces.
  const JsonValue ok =
      JsonValue::parse(service.handle_line(measured_request(9, 2, 1)));
  EXPECT_TRUE(ok.at("ok").as_bool());
  EXPECT_EQ(count_spans(service.trace_json(), "request"), 4);
}

TEST(ServeTraceTest, TraceControlLineReturnsArtifactInline) {
  serve::Service service(traced_options());
  (void)service.handle_line(measured_request(1, 2, 3));
  const JsonValue doc =
      JsonValue::parse(service.handle_line(R"({"id": 5, "cmd": "trace"})"));
  ASSERT_TRUE(doc.at("ok").as_bool());
  EXPECT_EQ(doc.at("id").as_int(), 5);
  const JsonValue& trace = doc.at("trace");
  EXPECT_EQ(trace.at("schema").as_string(), kTraceSchema);
  EXPECT_GE(trace.at("meta").at("spans").as_int(), 1);
}

TEST(ServeTraceTest, TracingNeverPerturbsTheNumbers) {
  // Bit-identical responses with tracing off and on: the tracer reads
  // clocks around the engine, never inside it.
  const std::vector<std::string> window = {measured_request(1, 4, 11),
                                           measured_request(2, 4, 12)};
  serve::ServiceOptions plain;
  plain.jobs = 2;
  serve::Service untraced(plain);
  serve::Service traced(traced_options());
  const std::vector<std::string> a = untraced.handle_window(window);
  const std::vector<std::string> b = traced.handle_window(window);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const JsonValue da = JsonValue::parse(a[i]);
    const JsonValue db = JsonValue::parse(b[i]);
    ASSERT_TRUE(da.at("ok").as_bool());
    ASSERT_TRUE(db.at("ok").as_bool());
    // Whole measured blocks (max_avg, makespan summary) must be
    // bit-identical, not merely close.
    std::ostringstream ma, mb;
    da.at("measured").dump(ma);
    db.at("measured").dump(mb);
    EXPECT_EQ(ma.str(), mb.str());
  }
}

TEST(ServeTraceTest, SamplePeriodSkipsRequests) {
  serve::ServiceOptions options = traced_options();
  options.trace_sample = 2;  // keep every other trace id
  serve::Service service(options);
  // One window so the four requests draw consecutive trace ids (windows
  // and requests share the same dense id sequence).
  std::vector<std::string> window;
  for (int i = 0; i < 4; ++i) window.push_back(measured_request(i, 2, 21 + i));
  for (const std::string& line : service.handle_window(window)) {
    ASSERT_TRUE(JsonValue::parse(line).at("ok").as_bool());
  }
  const int roots = count_spans(service.trace_json(), "request");
  EXPECT_GE(roots, 1);
  EXPECT_LT(roots, 4);  // sampling dropped some request traces
}

}  // namespace
}  // namespace hetcomm::obs
