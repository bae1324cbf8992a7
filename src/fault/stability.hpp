#pragma once
// Ranking-stability analysis: does the nominal strategy winner survive
// degradation?
//
// The paper's headline result is a *ranking* (Table 5 strategies ordered by
// measured max-avg time, Fig 5.1), but every parameter behind it is a point
// estimate from a quiet machine.  ranking_stability() stress-tests that
// ranking: it measures the fault-free baseline, then re-measures every
// strategy under an ensemble of FaultPlan instances (the plan with its
// fault-stream seed re-derived per instance) and reports how often the
// nominal winner stays on top.
//
// Everything is deterministic: instance k uses fault seed
// mix_seed(plan.seed, k), and results are bit-identical for any --jobs
// value.  The nominal run and every instance are one core::RepRunner batch,
// a job per measured strategy, on one pool of MeasureOptions::jobs threads.
// A strategy whose run hard-fails (FaultAbort: retry budget exhausted, no
// NIC lane recovers) is recorded as a structured failure for that instance,
// not a crash -- an undeliverable plan losing its ranking slot is exactly
// the signal this analysis exists to surface.
//
// The report round-trips through the hetcomm.stability.v1 JSON schema
// (tools/validate_stability checks the contract in CI).

#include <cstdint>
#include <string>
#include <vector>

#include "core/comm_pattern.hpp"
#include "core/executor.hpp"
#include "fault/plan.hpp"
#include "hetsim/params.hpp"
#include "hetsim/topology.hpp"
#include "obs/json.hpp"

namespace hetcomm::fault {

inline constexpr const char* kStabilitySchema = "hetcomm.stability.v1";

struct StabilityOptions {
  /// Ensemble size: number of fault-seed instances to sweep.
  int instances = 4;
  /// Per-measurement options (reps, seed, engine, fabric); `jobs` sizes the
  /// report's one pool; `faults` is the sweep's and must be left null.
  core::MeasureOptions measure;
};

/// One strategy's result under one fault instance (or the nominal run).
struct StrategyOutcome {
  std::string strategy;
  double max_avg = 0.0;  ///< meaningless when failed
  bool failed = false;   ///< FaultAbort: undeliverable under this instance
  std::string error;     ///< structured FaultAbort message when failed
  /// Base strategy whose plan this variant builds unchanged on the machine
  /// (core::identity_aliases); such an outcome is not measured.  "" = a
  /// measured outcome.
  std::string alias_of;
};

/// One fault-seed ensemble member: every strategy measured under the same
/// degraded machine.
struct StabilityInstance {
  int instance = 0;
  std::uint64_t fault_seed = 0;
  std::string winner;  ///< "" when every strategy failed
  std::vector<StrategyOutcome> outcomes;
};

/// Per-strategy aggregate over the ensemble.
struct StrategySummary {
  std::string strategy;
  int wins = 0;
  int failures = 0;
};

struct StabilityReport {
  std::string machine;     ///< parameter-set name
  int nodes = 0;
  std::string fault_plan;  ///< FaultPlan::name
  std::uint64_t plan_seed = 0;
  int instances = 0;
  int reps = 0;
  std::uint64_t seed = 0;  ///< measurement seed
  std::string engine;      ///< "compiled" / "interpreted"

  StabilityInstance nominal;  ///< fault-free baseline (fault_seed unused)
  std::vector<StabilityInstance> results;

  /// Compile-reuse accounting (Compiled engine mode): every Table-5 plan is
  /// compiled exactly once and the CompiledPlan replayed across the nominal
  /// run plus all `instances` ensemble members (fault models never change a
  /// plan's compiled tables -- they perturb execution, not structure).
  /// `compile_seconds` is the wall time of that single compile pass;
  /// `saved_compile_seconds` estimates what re-compiling inside every
  /// measurement would have cost on top: compile_seconds * instances.
  /// Both are 0 in Interpreted mode, which has nothing to compile.
  bool plans_precompiled = false;
  double compile_seconds = 0.0;
  double saved_compile_seconds = 0.0;

  /// True when instance `winner` matches the nominal winner.
  int winner_survived = 0;
  double survival_rate = 0.0;  ///< winner_survived / instances
  std::vector<StrategySummary> strategies;

  [[nodiscard]] obs::JsonValue to_json() const;
};

/// Sweep the Table-5 strategies across a FaultPlan ensemble.  Throws
/// std::invalid_argument when the plan does not compile against the machine
/// (unknown path class, out-of-range scopes) or when options are invalid.
[[nodiscard]] StabilityReport ranking_stability(
    const core::CommPattern& pattern, const Topology& topo,
    const ParamSet& params, const FaultPlan& plan,
    const StabilityOptions& options = {});

}  // namespace hetcomm::fault
