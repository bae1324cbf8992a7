// Validator for hetcomm.metrics.v1 *serve* artifacts (the metrics file
// `hetcomm serve --metrics FILE` writes, Service::metrics_json()).
//
// Usage: validate_serve FILE...
//
// Parses each file with the strict obs JSON parser and checks the schema
// contract CI relies on: schema tag, a "serve" section with request
// counters that add up (control + errors + degraded + predict_only +
// measured == total; errors_by_code sums to errors), cache sections
// (plan, pattern and source) whose hit/miss accounting is internally
// consistent, window counters, the resilience section (shed/deadline/
// fault-abort counters consistent with errors_by_code, retry hint in
// range), and the timing summaries (compile, execute, latency,
// queue_wait).  Exits non-zero with a one-line diagnostic on the first
// violation so a malformed serve-smoke artifact fails the pipeline instead
// of uploading.

#include <cstdint>
#include <iostream>
#include <string>

#include "obs/run_report.hpp"
#include "validate_common.hpp"

namespace hetcomm::validate {
namespace {

void check_summary(const std::string& file, const JsonValue& s,
                   const std::string& where) {
  for (const char* key : {"count", "mean", "p50", "p99", "min", "max"}) {
    require_number(file, s, key);
  }
  if (s.at("count").as_int() < 0) fail(file, where + ".count must be >= 0");
}

/// One ShardedLruCache section; returns the request-facing miss count.
void check_cache(const std::string& file, const JsonValue& c,
                 const std::string& where) {
  const std::int64_t shards = require_count(file, c, "shards", where);
  if (shards < 1) fail(file, where + ".shards must be >= 1");
  require_count(file, c, "capacity", where);
  const std::int64_t entries = require_count(file, c, "entries", where);
  const std::int64_t hits = require_count(file, c, "hits", where);
  const std::int64_t misses = require_count(file, c, "misses", where);
  require_count(file, c, "evictions", where);
  const double rate = require_number(file, c, "hit_rate").as_double();
  const double expect =
      hits + misses == 0
          ? 0.0
          : static_cast<double>(hits) / static_cast<double>(hits + misses);
  if (rate < expect - 1e-9 || rate > expect + 1e-9) {
    fail(file, where + ".hit_rate disagrees with hits/misses");
  }
  const std::int64_t capacity = c.at("capacity").as_int();
  if (capacity > 0 && entries > capacity) {
    fail(file, where + ".entries exceeds capacity");
  }
}

void validate_file(const std::string& file) {
  const JsonValue doc = read_json(file);

  const std::string schema =
      require(file, doc, "schema", JsonValue::Kind::String).as_string();
  if (schema != obs::kMetricsSchema) {
    fail(file, "unexpected schema \"" + schema + "\"");
  }
  const JsonValue& serve = require(file, doc, "serve", JsonValue::Kind::Object);

  const std::int64_t jobs = require_count(file, serve, "jobs", "serve");
  if (jobs < 1) fail(file, "serve.jobs must be >= 1");
  const std::int64_t window = require_count(file, serve, "window", "serve");
  if (window < 1) fail(file, "serve.window must be >= 1");

  const JsonValue& requests =
      require(file, serve, "requests", JsonValue::Kind::Object);
  const std::int64_t total =
      require_count(file, requests, "total", "serve.requests");
  const std::int64_t control =
      require_count(file, requests, "control", "serve.requests");
  const std::int64_t errors =
      require_count(file, requests, "errors", "serve.requests");
  const std::int64_t predict =
      require_count(file, requests, "predict_only", "serve.requests");
  const std::int64_t degraded =
      require_count(file, requests, "degraded", "serve.requests");
  const std::int64_t measured =
      require_count(file, requests, "measured", "serve.requests");
  // Every request is exactly one of: control, error, degraded,
  // predict-only, measured.
  if (control + errors + predict + degraded + measured != total) {
    fail(file, "serve.requests counters do not add up to total");
  }
  const JsonValue& by_code =
      require(file, requests, "errors_by_code", JsonValue::Kind::Object);
  std::int64_t code_sum = 0;
  for (const auto& member : by_code.members()) {
    code_sum +=
        require_count(file, by_code, member.first, "serve.requests"
                                                   ".errors_by_code");
  }
  if (code_sum != errors) {
    fail(file, "serve.requests.errors_by_code does not sum to errors");
  }

  const JsonValue& cache =
      require(file, serve, "cache", JsonValue::Kind::Object);
  const JsonValue& plan =
      require(file, cache, "plan", JsonValue::Kind::Object);
  check_cache(file, plan, "serve.cache.plan");
  const std::int64_t request_hits =
      require_count(file, plan, "request_hits", "serve.cache.plan");
  if (request_hits > measured) {
    fail(file, "serve.cache.plan.request_hits exceeds measured requests");
  }
  const double request_rate =
      require_number(file, plan, "request_hit_rate").as_double();
  const double expect_rate =
      measured == 0 ? 0.0
                    : static_cast<double>(request_hits) /
                          static_cast<double>(measured);
  if (request_rate < expect_rate - 1e-9 || request_rate > expect_rate + 1e-9) {
    fail(file, "serve.cache.plan.request_hit_rate disagrees with counts");
  }
  check_cache(file, require(file, cache, "pattern", JsonValue::Kind::Object),
              "serve.cache.pattern");
  check_cache(file, require(file, cache, "source", JsonValue::Kind::Object),
              "serve.cache.source");

  const JsonValue& batching =
      require(file, serve, "batching", JsonValue::Kind::Object);
  const std::int64_t windows =
      require_count(file, batching, "windows", "serve.batching");
  const std::int64_t window_max =
      require_count(file, batching, "max_window_requests", "serve.batching");
  if (total > 0 && windows < 1) fail(file, "requests served without a window");
  if (window_max > window) {
    fail(file, "serve.batching.max_window_requests exceeds the window size");
  }

  const JsonValue& timing =
      require(file, serve, "timing", JsonValue::Kind::Object);
  const JsonValue& compile =
      require(file, timing, "compile", JsonValue::Kind::Object);
  if (require_number(file, compile, "total_seconds").as_double() < 0.0) {
    fail(file, "serve.timing.compile.total_seconds must be >= 0");
  }
  check_summary(file,
                require(file, compile, "per_compile", JsonValue::Kind::Object),
                "serve.timing.compile.per_compile");
  const JsonValue& execute =
      require(file, timing, "execute", JsonValue::Kind::Object);
  if (require_number(file, execute, "total_seconds").as_double() < 0.0) {
    fail(file, "serve.timing.execute.total_seconds must be >= 0");
  }
  check_summary(file,
                require(file, execute, "per_request", JsonValue::Kind::Object),
                "serve.timing.execute.per_request");
  check_summary(file, require(file, timing, "latency", JsonValue::Kind::Object),
                "serve.timing.latency");
  check_summary(file,
                require(file, timing, "queue_wait", JsonValue::Kind::Object),
                "serve.timing.queue_wait");

  const JsonValue& resil =
      require(file, serve, "resilience", JsonValue::Kind::Object);
  require_count(file, resil, "max_queue", "serve.resilience");
  const std::string policy =
      require(file, resil, "shed_policy", JsonValue::Kind::String).as_string();
  if (policy != "reject" && policy != "degrade") {
    fail(file, "serve.resilience.shed_policy must be reject|degrade");
  }
  require_count(file, resil, "default_deadline_ms", "serve.resilience");
  require_count(file, resil, "shed_overloaded", "serve.resilience");
  require_count(file, resil, "shed_shutdown", "serve.resilience");
  const std::int64_t resil_degraded =
      require_count(file, resil, "degraded", "serve.resilience");
  if (resil_degraded != degraded) {
    fail(file, "serve.resilience.degraded disagrees with serve.requests");
  }
  if (policy == "reject" && degraded != 0) {
    fail(file, "degraded answers under the reject shed policy");
  }
  const std::int64_t deadline_errors =
      require_count(file, resil, "deadline_exceeded", "serve.resilience");
  if (const JsonValue* dl = by_code.find("deadline_exceeded");
      dl != nullptr && dl->as_int() != deadline_errors) {
    fail(file, "serve.resilience.deadline_exceeded disagrees with "
               "errors_by_code");
  }
  const std::int64_t partials =
      require_count(file, resil, "deadline_partials", "serve.resilience");
  if (partials > deadline_errors) {
    fail(file, "serve.resilience.deadline_partials exceeds deadline_exceeded");
  }
  const std::int64_t fault_aborts =
      require_count(file, resil, "fault_aborts", "serve.resilience");
  if (const JsonValue* fa = by_code.find("fault_abort");
      fa != nullptr && fa->as_int() != fault_aborts) {
    fail(file, "serve.resilience.fault_aborts disagrees with errors_by_code");
  }
  if (require_count(file, resil, "cancelled_requests", "serve.resilience") >
      deadline_errors) {
    fail(file, "serve.resilience.cancelled_requests exceeds "
               "deadline_exceeded");
  }
  require_count(file, resil, "queue_depth_peak", "serve.resilience");
  if (require_number(file, resil, "drain_rate_rps").as_double() < 0.0) {
    fail(file, "serve.resilience.drain_rate_rps must be >= 0");
  }
  const std::int64_t retry_hint =
      require(file, resil, "retry_after_ms_hint", JsonValue::Kind::Int)
          .as_int();
  if (retry_hint < 1 || retry_hint > 60000) {
    fail(file, "serve.resilience.retry_after_ms_hint outside [1, 60000]");
  }

  if (require_number(file, serve, "busy_seconds").as_double() < 0.0) {
    fail(file, "serve.busy_seconds must be >= 0");
  }
  if (require_number(file, serve, "requests_per_second").as_double() < 0.0) {
    fail(file, "serve.requests_per_second must be >= 0");
  }

  std::cout << file << ": OK (" << total << " request"
            << (total == 1 ? "" : "s") << ", " << windows << " window"
            << (windows == 1 ? "" : "s") << ")\n";
}

}  // namespace
}  // namespace hetcomm::validate

int main(int argc, char** argv) {
  return hetcomm::validate::run("validate_serve", argc, argv,
                                hetcomm::validate::validate_file);
}
