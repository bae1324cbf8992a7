#include "fault/stability.hpp"

#include <chrono>
#include <deque>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/strategy.hpp"
#include "fault/fault_json.hpp"
#include "hetsim/faults.hpp"
#include "hetsim/noise.hpp"
#include "obs/engine_metrics.hpp"
#include "runtime/thread_pool.hpp"

namespace hetcomm::fault {

namespace {

using obs::JsonValue;

/// Winner of one instance: the lowest measured, non-failed max_avg, ties
/// broken by Table-5 order (outcomes keep that order).  "" when everything
/// failed.
std::string pick_winner(const std::vector<StrategyOutcome>& outcomes) {
  double best = std::numeric_limits<double>::infinity();
  std::string winner;
  for (const StrategyOutcome& o : outcomes) {
    if (!o.failed && o.alias_of.empty() && o.max_avg < best) {
      best = o.max_avg;
      winner = o.strategy;
    }
  }
  return winner;
}

JsonValue outcome_json(const StrategyOutcome& o) {
  JsonValue v = JsonValue::object();
  v.set("strategy", o.strategy);
  if (!o.alias_of.empty()) {
    v.set("alias_of", o.alias_of);
  } else if (o.failed) {
    v.set("failed", true);
    v.set("error", o.error);
  } else {
    v.set("max_avg", o.max_avg);
  }
  return v;
}

JsonValue instance_json(const StabilityInstance& inst, bool with_seed) {
  JsonValue v = JsonValue::object();
  if (with_seed) {
    v.set("instance", inst.instance);
    v.set("fault_seed", static_cast<std::int64_t>(inst.fault_seed));
  }
  v.set("winner", inst.winner);
  JsonValue arr = JsonValue::array();
  for (const StrategyOutcome& o : inst.outcomes) {
    arr.push_back(outcome_json(o));
  }
  v.set("outcomes", std::move(arr));
  return v;
}

}  // namespace

JsonValue StabilityReport::to_json() const {
  JsonValue doc = JsonValue::object();
  doc.set("schema", kStabilitySchema);
  doc.set("machine", machine);
  doc.set("nodes", nodes);
  doc.set("fault_plan", fault_plan);
  doc.set("plan_seed", static_cast<std::int64_t>(plan_seed));
  doc.set("instances", instances);
  doc.set("reps", reps);
  doc.set("seed", static_cast<std::int64_t>(seed));
  doc.set("engine", engine);
  doc.set("nominal", instance_json(nominal, /*with_seed=*/false));
  JsonValue arr = JsonValue::array();
  for (const StabilityInstance& inst : results) {
    arr.push_back(instance_json(inst, /*with_seed=*/true));
  }
  doc.set("results", std::move(arr));
  JsonValue summary = JsonValue::object();
  summary.set("winner_survived", winner_survived);
  summary.set("survival_rate", survival_rate);
  JsonValue compile = JsonValue::object();
  compile.set("plans_precompiled", plans_precompiled);
  compile.set("compile_seconds", compile_seconds);
  compile.set("saved_compile_seconds", saved_compile_seconds);
  summary.set("compile", std::move(compile));
  JsonValue per = JsonValue::array();
  for (const StrategySummary& s : strategies) {
    JsonValue row = JsonValue::object();
    row.set("strategy", s.strategy);
    row.set("wins", s.wins);
    row.set("failures", s.failures);
    per.push_back(std::move(row));
  }
  summary.set("strategies", std::move(per));
  doc.set("summary", std::move(summary));
  return doc;
}

StabilityReport ranking_stability(const core::CommPattern& pattern,
                                  const Topology& topo, const ParamSet& params,
                                  const FaultPlan& plan,
                                  const StabilityOptions& options) {
  if (options.instances < 1) {
    throw std::invalid_argument(
        "ranking stability: instances must be >= 1");
  }
  if (options.measure.faults != nullptr) {
    throw std::invalid_argument(
        "ranking stability: MeasureOptions::faults is managed by the sweep");
  }
  // Compile the ensemble first, so scope errors (unknown path class, bad
  // lane) surface before any other work.  Instance k re-derives the plan's
  // fault seed as mix_seed(plan.seed, k).
  plan.validate();
  std::vector<FaultModel> models;
  for (int k = 0; k < options.instances; ++k) {
    FaultPlan member = plan;
    member.seed = mix_seed(plan.seed, static_cast<std::uint64_t>(k));
    models.push_back(member.compile(topo, params));
  }

  // Build each roster plan once; plans are rep- and fault-invariant.  A
  // variant that lowers to its base's plan on this machine is an alias:
  // reported, never compiled or measured.
  const std::vector<core::StrategyConfig> roster = core::all_strategies();
  const std::vector<int> alias = core::identity_aliases(roster, params);
  std::vector<core::CommPlan> plans;
  for (const core::StrategyConfig& cfg : roster) {
    plans.push_back(core::build_plan(pattern, topo, params, cfg));
  }

  // Compiled engine: pay the compile cost once per strategy here and replay
  // the CompiledPlan across the nominal run plus every ensemble member.
  // Fault models perturb execution (lane failures, retries), never the
  // compiled event tables, so reuse is exact -- measurements stay
  // bit-identical to the recompile-per-call path.
  std::vector<std::optional<core::CompiledPlan>> compiled(plans.size());
  double compile_seconds = 0.0;
  const bool precompile = options.measure.engine == core::ExecMode::Compiled;
  if (precompile) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < plans.size(); ++i) {
      if (alias[i] < 0) compiled[i].emplace(plans[i], topo, params);
    }
    const auto t1 = std::chrono::steady_clock::now();
    compile_seconds = std::chrono::duration<double>(t1 - t0).count();
  }

  StabilityReport report;
  report.plans_precompiled = precompile;
  report.compile_seconds = compile_seconds;
  report.saved_compile_seconds =
      compile_seconds * static_cast<double>(options.instances);
  report.machine = params.name;
  report.nodes = topo.num_nodes();
  report.fault_plan = plan.name;
  report.plan_seed = plan.seed;
  report.instances = options.instances;
  report.reps = options.measure.reps;
  report.seed = options.measure.seed;
  report.engine = core::to_string(options.measure.engine);

  // The whole report is one batch on one pool: a job per measured strategy
  // for the nominal run (no faults), then for every ensemble member.
  // Traced, every job gets a repetition-0 sink for its engine.phase spans.
  const core::MeasureTrace trace(options.measure);
  std::deque<obs::EngineMetrics> sinks;
  std::vector<core::RepJob> jobs;
  for (std::size_t run = 0; run <= models.size(); ++run) {
    for (std::size_t i = 0; i < plans.size(); ++i) {
      if (alias[i] >= 0) continue;
      core::RepJob& job = jobs.emplace_back(core::measure_job(
          plans[i], compiled[i] ? &*compiled[i] : nullptr, topo, params,
          options.measure));
      job.faults = run == 0 ? nullptr : &models[run - 1];
      job.tag = static_cast<std::int64_t>(jobs.size() - 1);
      if (trace.tracer != nullptr) job.rep0_metrics = &sinks.emplace_back();
    }
  }
  runtime::ThreadPool pool(options.measure.jobs);
  const core::RepBatch batch = core::RepRunner().run(jobs, pool, trace);
  trace.close(options.measure.reps, pool.num_threads());

  for (const core::CommPlan& p : plans) {
    report.strategies.push_back({p.strategy_name, 0, 0});
  }
  report.results.resize(models.size());
  auto outcome = batch.jobs.begin();
  for (std::size_t run = 0; run <= models.size(); ++run) {
    StabilityInstance& inst =
        run == 0 ? report.nominal : report.results[run - 1];
    if (run > 0) {
      inst.instance = static_cast<int>(run - 1);
      inst.fault_seed = models[run - 1].seed;
    }
    for (std::size_t i = 0; i < plans.size(); ++i) {
      StrategyOutcome& o = inst.outcomes.emplace_back();
      o.strategy = plans[i].strategy_name;
      if (alias[i] >= 0) {
        o.alias_of = plans[static_cast<std::size_t>(alias[i])].strategy_name;
      } else if (!outcome->failed()) {
        o.max_avg = outcome->fold.max_avg;
      } else {
        // A FaultAbort is this strategy's structured failure; anything
        // else fails the report.
        try {
          core::rethrow(*outcome, o.strategy);
        } catch (const FaultAbort& e) {
          o.failed = true;
          o.error = e.what();
        }
      }
      if (alias[i] < 0) ++outcome;
    }
    inst.winner = pick_winner(inst.outcomes);
    if (run == 0) continue;
    if (!inst.winner.empty() && inst.winner == report.nominal.winner) {
      ++report.winner_survived;
    }
    for (std::size_t i = 0; i < inst.outcomes.size(); ++i) {
      if (inst.outcomes[i].failed) ++report.strategies[i].failures;
      if (!inst.winner.empty() &&
          inst.outcomes[i].strategy == inst.winner) {
        ++report.strategies[i].wins;
      }
    }
  }
  report.survival_rate = static_cast<double>(report.winner_survived) /
                         static_cast<double>(options.instances);
  return report;
}

}  // namespace hetcomm::fault
