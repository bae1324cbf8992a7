// Layer probes of the traced run: each times one layer in isolation on the
// audikw_1 fixture (split+MD plan), so every workload reports the same
// rungs of the ladder -- stand-in build, advisor ranking, one serial engine
// repetition with and without faults, and core::measure scaling.

#include <iostream>
#include <optional>

#include "core/advisor.hpp"
#include "core/compiled_plan.hpp"
#include "core/executor.hpp"
#include "core/strategy.hpp"
#include "fault/fault_json.hpp"
#include "hetsim/engine.hpp"
#include "hetsim/faults.hpp"
#include "hetsim/noise.hpp"
#include "ladder.hpp"

namespace ladder {

namespace {

using hetcomm::Engine;
using hetcomm::FaultAbort;
using hetcomm::FaultModel;
using hetcomm::mix_seed;
using hetcomm::NoiseModel;
using hetcomm::obs::JsonValue;
namespace core = hetcomm::core;

constexpr int kFixtureBuilds = 3;
constexpr int kRankCalls = 30;
constexpr int kRepBatches = 20;
constexpr int kRepsPerBatch = 50;

/// Median seconds per repetition of serial Engine::execute over
/// kRepBatches batches; FaultAbort repetitions are counted, not timed out.
double rep_seconds(Engine& engine, const core::CompiledPlan& compiled,
                   std::uint64_t seed, std::int64_t& aborts) {
  std::vector<double> per_rep;
  std::uint64_t rep = 0;
  for (int b = -1; b < kRepBatches; ++b) {  // batch -1 warms the engine
    const auto t0 = Clock::now();
    for (int i = 0; i < kRepsPerBatch; ++i) {
      engine.reset(mix_seed(seed, rep++));
      try {
        engine.execute(compiled);
      } catch (const FaultAbort&) {
        ++aborts;
      }
    }
    if (b >= 0) {
      per_rep.push_back(seconds_between(t0, Clock::now()) / kRepsPerBatch);
    }
  }
  return summarize(per_rep).median;
}

}  // namespace

void run_probes(const Args& args, Outcome& out) {
  std::vector<double> standin;
  std::vector<double> pattern;
  std::optional<Fixture> fixture;
  for (int i = 0; i < kFixtureBuilds; ++i) {
    fixture.emplace(make_fixture(args.seed));
    standin.push_back(fixture->standin_seconds);
    pattern.push_back(fixture->pattern_seconds);
  }
  const Fixture& f = *fixture;
  const hetcomm::ParamSet& params = f.mach.params;
  out.set("sparse.standin_s", summarize(standin).median, "s", kFixtureBuilds);
  out.set("sparse.pattern_s", summarize(pattern).median, "s", kFixtureBuilds);

  const core::Advisor advisor(f.topo, params);
  std::vector<double> rank;
  for (int i = 0; i < kRankCalls; ++i) {
    const auto t0 = Clock::now();
    const auto ranking = advisor.rank(f.pattern);
    rank.push_back(seconds_between(t0, Clock::now()));
    if (ranking.empty()) out.check(false, "advisor returned no ranking");
  }
  out.set("core.advisor.rank_us", summarize(rank).median * 1e6, "us",
          kRankCalls);

  const core::CommPlan plan = core::build_plan(
      f.pattern, f.topo, params, core::parse_strategy("split+MD"));
  const core::CompiledPlan compiled(plan, f.topo, params);
  out.set("hetsim.engine.msgs_per_rep",
          static_cast<double>(plan.summarize(f.topo).messages), "count");

  const std::uint64_t seed = mix_seed(args.seed, 0x9e9ULL);
  Engine engine(f.topo, params, NoiseModel(seed, 0.02));
  std::int64_t aborts = 0;
  out.set("hetsim.engine.rep_us",
          rep_seconds(engine, compiled, seed, aborts) * 1e6, "us",
          kRepBatches);
  const FaultModel faults =
      hetcomm::fault::load_fault_file(LADDER_FAULT_PLAN).compile(f.topo,
                                                                 params);
  engine.set_faults(&faults);
  out.set("hetsim.engine.rep_faulted_us",
          rep_seconds(engine, compiled, seed, aborts) * 1e6, "us",
          kRepBatches);
  engine.set_faults(nullptr);
  out.detail.set("probe_fault_aborts", aborts);

  core::MeasureOptions faulted;
  faulted.reps = 100;
  faulted.seed = seed;
  faulted.faults = &faults;
  faulted.precompiled = &compiled;
  faulted.collect_metrics = true;
  const core::MeasureResult fr =
      core::measure(plan, f.topo, params, faulted);
  out.set("fault.retries_per_rep",
          fr.metrics ? static_cast<double>(fr.metrics->faults.retries) : 0.0,
          "count");

  // core::measure scaling: repetitions per second at jobs 1..nproc, compile
  // included (measure compiles the plan itself, as `compare` does).
  JsonValue curve = JsonValue::array();
  const int jobs_max = nproc();
  for (const int reps : {32, 1000}) {
    const int calls = reps == 32 ? 30 : 5;
    double rps_1 = 0.0;
    double rps_max = 0.0;
    for (int jobs = 1; jobs <= jobs_max; ++jobs) {
      core::MeasureOptions m;
      m.reps = reps;
      m.seed = seed;
      m.jobs = jobs;
      std::vector<double> walls;
      for (int c = 0; c < calls; ++c) {
        const auto t0 = Clock::now();
        (void)core::measure(plan, f.topo, params, m);
        walls.push_back(seconds_between(t0, Clock::now()));
      }
      const double rps = reps / summarize(walls).median;
      if (jobs == 1) rps_1 = rps;
      if (jobs == jobs_max) rps_max = rps;
      JsonValue point = JsonValue::object();
      point.set("reps", reps);
      point.set("jobs", jobs);
      point.set("reps_per_s", rps);
      point.set("calls", calls);
      curve.push_back(std::move(point));
    }
    out.set(reps == 32 ? "core.measure.eff_r32" : "core.measure.eff_r1000",
            rps_1 > 0.0 ? rps_max / (jobs_max * rps_1) : 0.0, "ratio", calls);
  }
  out.detail.set("measure_curve", std::move(curve));
}

}  // namespace ladder
