// Validator for hetcomm.metrics.v1 run-report files.
//
// Usage: validate_metrics FILE...
//
// Parses each file with the strict obs JSON parser and checks the schema
// contract that CI and downstream analysis scripts rely on: schema tag,
// non-empty reports array, required identity/summary fields, internally
// consistent traffic totals, phase shares that cover the makespan, phase
// summaries of exactly `sampled_reps` samples whose means sum into the
// makespan's [min, max] range, and non-negative fault counts whose per-rail
// retries do not exceed the total.
// Exits non-zero with a one-line diagnostic on the first violation so a
// malformed metrics artifact fails the pipeline instead of uploading.

#include <cmath>
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>

#include "obs/run_report.hpp"
#include "validate_common.hpp"

namespace hetcomm::validate {
namespace {

void check_summary(const std::string& file, const JsonValue& s,
                   const std::string& where) {
  for (const char* key : {"count", "mean", "p50", "p99", "min", "max"}) {
    if (s.find(key) == nullptr || (s.find(key)->kind() != JsonValue::Kind::Int &&
                                   s.find(key)->kind() != JsonValue::Kind::Double)) {
      fail(file, where + ": summary missing numeric \"" + std::string(key) + "\"");
    }
  }
}

void check_report(const std::string& file, const JsonValue& report) {
  const std::string name =
      require(file, report, "name", JsonValue::Kind::String).as_string();
  const std::string where = "report \"" + name + "\"";
  require(file, report, "engine", JsonValue::Kind::String);
  for (const char* key : {"reps", "jobs", "seed", "ranks", "nodes"}) {
    require_number(file, report, key);
  }
  if (require(file, report, "reps", JsonValue::Kind::Int).as_int() <= 0) {
    fail(file, where + ": reps must be positive");
  }
  check_summary(file, require(file, report, "makespan", JsonValue::Kind::Object),
                where + " makespan");

  // Phase shares must decompose (approximately all of) the makespan.  Each
  // phase summarizes the `sampled_reps` profiled repetitions (one: the
  // phase times are repetition 0's), so the phase means sum to a makespan
  // of that run and must fall within the makespan's range.
  const std::int64_t sampled =
      require_count(file, report, "sampled_reps", where);
  const JsonValue& phases =
      require(file, report, "phases", JsonValue::Kind::Array);
  double share = 0.0;
  double phase_sum = 0.0;
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const JsonValue& p = phases.at(i);
    require_number(file, p, "phase");
    const JsonValue& makespan =
        require(file, p, "makespan", JsonValue::Kind::Object);
    check_summary(file, makespan, where + " phase makespan");
    if (require(file, makespan, "count", JsonValue::Kind::Int).as_int() !=
        sampled) {
      fail(file, where + ": a phase makespan count differs from sampled_reps");
    }
    phase_sum += makespan.at("mean").as_double();
    // "share" is a double, but a value like exactly 1.0 (single-phase
    // report) serializes without a fraction and parses back as Int --
    // JSON has one number type, so accept either kind and promote.
    share += require_number(file, p, "share").as_double();
  }
  if (phases.size() > 0 && (share < 0.999 || share > 1.001)) {
    std::ostringstream os;
    os << where << ": phase shares sum to " << share << ", expected ~1";
    fail(file, os.str());
  }
  const JsonValue& makespan = report.at("makespan");
  const double lo = makespan.at("min").as_double();
  const double hi = makespan.at("max").as_double();
  constexpr double kRelTol = 1e-9;
  if (phases.size() > 0 && (phase_sum < lo - kRelTol * std::abs(lo) ||
                            phase_sum > hi + kRelTol * std::abs(hi))) {
    std::ostringstream os;
    os.precision(17);
    os << where << ": phase means sum to " << phase_sum
       << ", outside the makespan range [" << lo << ", " << hi << "]";
    fail(file, os.str());
  }

  // Traffic rows must agree with the report's own totals.
  const JsonValue& traffic =
      require(file, report, "traffic", JsonValue::Kind::Array);
  const JsonValue& totals =
      require(file, report, "totals", JsonValue::Kind::Object);
  std::int64_t msgs = 0;
  std::int64_t bytes = 0;
  for (std::size_t i = 0; i < traffic.size(); ++i) {
    const JsonValue& t = traffic.at(i);
    require(file, t, "path", JsonValue::Kind::String);
    require(file, t, "proto", JsonValue::Kind::String);
    msgs += require(file, t, "messages", JsonValue::Kind::Int).as_int();
    bytes += require(file, t, "bytes", JsonValue::Kind::Int).as_int();
  }
  if (msgs != require(file, totals, "messages", JsonValue::Kind::Int).as_int()) {
    fail(file, where + ": traffic messages do not sum to totals.messages");
  }
  if (bytes != require(file, totals, "bytes", JsonValue::Kind::Int).as_int()) {
    fail(file, where + ": traffic bytes do not sum to totals.bytes");
  }

  require(file, report, "contention", JsonValue::Kind::Array);
  require(file, report, "metrics", JsonValue::Kind::Object);

  // The faults section appears only for runs that saw fault activity.
  if (report.find("faults") != nullptr) {
    const JsonValue& faults =
        require(file, report, "faults", JsonValue::Kind::Object);
    const std::string in_faults = where + " faults";
    const std::int64_t retries =
        require_count(file, faults, "retries", in_faults);
    require_count(file, faults, "failovers", in_faults);
    require_count(file, faults, "degraded_msgs", in_faults);
    std::int64_t rail_retries = 0;
    if (faults.find("rail_retries") != nullptr) {
      const JsonValue& rails =
          require(file, faults, "rail_retries", JsonValue::Kind::Array);
      for (std::size_t i = 0; i < rails.size(); ++i) {
        rail_retries += require_count(file, rails.at(i), "retries",
                                      in_faults + ".rail_retries[]");
      }
    }
    if (rail_retries > retries) {
      fail(file, in_faults + ": per-rail retries sum to " +
                     std::to_string(rail_retries) + ", more than retries (" +
                     std::to_string(retries) + ")");
    }
  }
}

void validate_file(const std::string& file) {
  const JsonValue doc = read_json(file);

  const std::string schema =
      require(file, doc, "schema", JsonValue::Kind::String).as_string();
  if (schema != obs::kMetricsSchema) {
    fail(file, "unexpected schema \"" + schema + "\"");
  }
  const JsonValue& reports =
      require(file, doc, "reports", JsonValue::Kind::Array);
  if (reports.size() == 0) fail(file, "reports array is empty");
  for (std::size_t i = 0; i < reports.size(); ++i) {
    check_report(file, reports.at(i));
  }
  std::cout << file << ": OK (" << reports.size() << " report"
            << (reports.size() == 1 ? "" : "s") << ")\n";
}

}  // namespace
}  // namespace hetcomm::validate

int main(int argc, char** argv) {
  return hetcomm::validate::run("validate_metrics", argc, argv,
                                hetcomm::validate::validate_file);
}
