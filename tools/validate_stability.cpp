// Validator for hetcomm.stability.v1 ranking-stability reports.
//
// Usage: validate_stability FILE...
//
// Parses each file with the strict obs JSON parser and checks the schema
// contract CI relies on: schema tag, identity fields, a nominal instance
// with one outcome per strategy, one result per declared ensemble
// instance (each with the same strategy set, a winner drawn from it, and
// outcomes that are a numeric max_avg, a structured failure, or an alias
// naming an earlier strategy),
// and a summary whose wins / survival counts are internally consistent
// with the per-instance winners.  Exits non-zero with a one-line
// diagnostic on the first violation so a malformed stability artifact
// fails the pipeline instead of uploading.

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "validate_common.hpp"

namespace hetcomm::validate {
namespace {

constexpr const char* kStabilitySchema = "hetcomm.stability.v1";

/// Check one instance's outcomes; returns the strategy names in order.
std::vector<std::string> check_outcomes(const std::string& file,
                                        const JsonValue& inst,
                                        const std::string& where) {
  const JsonValue& outcomes =
      require(file, inst, "outcomes", JsonValue::Kind::Array);
  if (outcomes.size() == 0) fail(file, where + ": outcomes array is empty");
  const std::string winner =
      require(file, inst, "winner", JsonValue::Kind::String).as_string();
  std::vector<std::string> strategies;
  bool winner_found = winner.empty();
  bool any_ok = false;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const JsonValue& o = outcomes.at(i);
    const std::string name =
        require(file, o, "strategy", JsonValue::Kind::String).as_string();
    if (o.contains("alias_of")) {
      const std::string base =
          require(file, o, "alias_of", JsonValue::Kind::String).as_string();
      if (std::find(strategies.begin(), strategies.end(), base) ==
          strategies.end()) {
        fail(file, where + ": alias_of \"" + base +
                       "\" does not name an earlier outcome");
      }
      if (o.contains("max_avg") || o.contains("failed")) {
        fail(file, where + ": alias outcome must not carry a measurement");
      }
      if (name == winner) fail(file, where + ": an alias cannot win");
      strategies.push_back(name);
      continue;
    }
    strategies.push_back(name);
    if (name == winner) winner_found = true;
    if (o.contains("failed")) {
      if (!require(file, o, "failed", JsonValue::Kind::Bool).as_bool()) {
        fail(file, where + ": outcome \"failed\" must be true when present");
      }
      require(file, o, "error", JsonValue::Kind::String);
      if (o.contains("max_avg")) {
        fail(file, where + ": failed outcome must not carry max_avg");
      }
    } else {
      if (require_number(file, o, "max_avg").as_double() < 0.0) {
        fail(file, where + ": max_avg must be >= 0");
      }
      any_ok = true;
    }
  }
  if (!winner_found) {
    fail(file, where + ": winner \"" + winner + "\" is not an outcome");
  }
  if (winner.empty() && any_ok) {
    fail(file, where + ": empty winner but non-failed outcomes exist");
  }
  return strategies;
}

void validate_file(const std::string& file) {
  const JsonValue doc = read_json(file);

  const std::string schema =
      require(file, doc, "schema", JsonValue::Kind::String).as_string();
  if (schema != kStabilitySchema) {
    fail(file, "unexpected schema \"" + schema + "\"");
  }
  require(file, doc, "machine", JsonValue::Kind::String);
  require(file, doc, "fault_plan", JsonValue::Kind::String);
  require(file, doc, "engine", JsonValue::Kind::String);
  for (const char* key : {"nodes", "plan_seed", "instances", "reps", "seed"}) {
    require_number(file, doc, key);
  }
  const std::int64_t instances =
      require(file, doc, "instances", JsonValue::Kind::Int).as_int();
  if (instances < 1) fail(file, "instances must be >= 1");

  const JsonValue& nominal =
      require(file, doc, "nominal", JsonValue::Kind::Object);
  const std::vector<std::string> strategies =
      check_outcomes(file, nominal, "nominal");
  const std::string nominal_winner =
      nominal.at("winner").as_string();

  const JsonValue& results =
      require(file, doc, "results", JsonValue::Kind::Array);
  if (static_cast<std::int64_t>(results.size()) != instances) {
    fail(file, "results array does not match the declared instance count");
  }
  std::int64_t survived = 0;
  std::vector<std::int64_t> wins(strategies.size(), 0);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const JsonValue& inst = results.at(i);
    const std::string where = "results[" + std::to_string(i) + "]";
    if (require(file, inst, "instance", JsonValue::Kind::Int).as_int() !=
        static_cast<std::int64_t>(i)) {
      fail(file, where + ": instance index out of order");
    }
    require_number(file, inst, "fault_seed");
    if (check_outcomes(file, inst, where) != strategies) {
      fail(file, where + ": strategy set differs from the nominal run");
    }
    const std::string winner = inst.at("winner").as_string();
    if (!winner.empty() && winner == nominal_winner) ++survived;
    for (std::size_t s = 0; s < strategies.size(); ++s) {
      if (strategies[s] == winner) ++wins[s];
    }
  }

  const JsonValue& summary =
      require(file, doc, "summary", JsonValue::Kind::Object);
  if (require(file, summary, "winner_survived", JsonValue::Kind::Int)
          .as_int() != survived) {
    fail(file, "summary.winner_survived disagrees with per-instance winners");
  }
  const double rate = require_number(file, summary, "survival_rate").as_double();
  const double expect = static_cast<double>(survived) /
                        static_cast<double>(instances);
  if (rate < expect - 1e-9 || rate > expect + 1e-9) {
    fail(file, "summary.survival_rate disagrees with winner_survived");
  }
  const JsonValue& compile =
      require(file, summary, "compile", JsonValue::Kind::Object);
  const bool precompiled =
      require(file, compile, "plans_precompiled", JsonValue::Kind::Bool)
          .as_bool();
  const double compile_seconds =
      require_number(file, compile, "compile_seconds").as_double();
  const double saved =
      require_number(file, compile, "saved_compile_seconds").as_double();
  if (compile_seconds < 0.0 || saved < 0.0) {
    fail(file, "summary.compile times must be >= 0");
  }
  if (!precompiled && (compile_seconds != 0.0 || saved != 0.0)) {
    fail(file, "summary.compile reports time without precompiled plans");
  }
  const double expect_saved =
      compile_seconds * static_cast<double>(instances);
  if (saved < expect_saved - 1e-9 || saved > expect_saved + 1e-9) {
    fail(file, "summary.compile.saved_compile_seconds is inconsistent");
  }
  const JsonValue& per =
      require(file, summary, "strategies", JsonValue::Kind::Array);
  if (per.size() != strategies.size()) {
    fail(file, "summary.strategies does not cover every strategy");
  }
  for (std::size_t s = 0; s < per.size(); ++s) {
    const JsonValue& row = per.at(s);
    const std::string where = "summary.strategies[" + std::to_string(s) + "]";
    if (require(file, row, "strategy", JsonValue::Kind::String).as_string() !=
        strategies[s]) {
      fail(file, where + ": strategy order differs from the nominal run");
    }
    if (require(file, row, "wins", JsonValue::Kind::Int).as_int() != wins[s]) {
      fail(file, where + ": wins disagree with per-instance winners");
    }
    const std::int64_t failures =
        require(file, row, "failures", JsonValue::Kind::Int).as_int();
    if (failures < 0 || failures > instances) {
      fail(file, where + ": failures out of range");
    }
  }

  std::cout << file << ": OK (" << instances << " instance"
            << (instances == 1 ? "" : "s") << ", " << strategies.size()
            << " strategies)\n";
}

}  // namespace
}  // namespace hetcomm::validate

int main(int argc, char** argv) {
  return hetcomm::validate::run("validate_stability", argc, argv,
                                hetcomm::validate::validate_file);
}
