// study_audikw and stability_faults: the paper's own use of the simulator.
//
// study_audikw ranks every strategy on the audikw_1 stand-in with 1000
// repetitions each (PAPER §4.5/§5, Fig. 5.1), fanned out over strategies by
// runtime::SweepRunner exactly as `hetcomm compare` does.  stability_faults
// runs fault::ranking_stability on the same pattern under a lossy fabric,
// whose parallelism is over repetitions inside core::measure instead.
// The untraced run times one-thread sweeps (reports), each pinned to the
// next CPU; the traced half alternates them with all-thread ones, which
// give the parallel speed-up.

#include <cstring>
#include <iostream>
#include <optional>
#include <stdexcept>

#include "core/compiled_plan.hpp"
#include "core/executor.hpp"
#include "core/strategy.hpp"
#include "fault/fault_json.hpp"
#include "fault/stability.hpp"
#include "hetsim/noise.hpp"
#include "ladder.hpp"
#include "runtime/sweep.hpp"
#include "spans.hpp"

namespace ladder {

namespace {

using hetcomm::mix_seed;
using hetcomm::obs::JsonValue;
using hetcomm::obs::ScopedSpan;
using hetcomm::obs::TraceContext;
namespace core = hetcomm::core;
namespace fault = hetcomm::fault;
namespace runtime = hetcomm::runtime;

constexpr int kSetups = 8;
constexpr int kStudyReps = 1000;
constexpr int kStabilityInstances = 8;
constexpr int kStabilityReps = 100;
constexpr std::int64_t kTracedReports = 8;

/// Untimed lead-in before the measured phase: the host's idle CPUs take
/// about a second to come up to speed, which would otherwise land in the
/// first samples.
double warmup_seconds(const Args& args) { return std::min(1.0, args.seconds / 10); }

/// Span-name slots of one tracer (all 0 when untraced).
struct Names {
  std::uint16_t sweep = 0, cell = 0, plan = 0, build_plan = 0, compile = 0,
                measure = 0, stability = 0;

  explicit Names(BenchTracer* bt) {
    if (bt == nullptr) return;
    hetcomm::obs::Tracer& t = bt->tracer();
    sweep = t.intern("runtime.sweep");
    cell = t.intern("runtime.cell");
    plan = t.intern("core.plan");
    build_plan = t.intern("core.build_plan");
    compile = t.intern("core.compile");
    measure = t.intern("core.measure");
    stability = t.intern("fault.ranking_stability");
  }
};

TraceContext root_of(BenchTracer* bt) {
  return bt != nullptr ? bt->root() : TraceContext{};
}

/// One-thread timings grouped by the CPU they were pinned to: a CPU slowed
/// by another tenant shows as one slow group.
JsonValue by_cpu(const std::vector<int>& cpus,
                 const std::vector<double>& walls) {
  std::map<int, std::vector<double>> groups;
  for (std::size_t i = 0; i < cpus.size() && i < walls.size(); ++i) {
    groups[cpus[i]].push_back(walls[i]);
  }
  JsonValue out = JsonValue::object();
  for (const auto& [cpu, w] : groups) {
    out.set(std::to_string(cpu), to_json(summarize(w)));
  }
  return out;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Untraced-vs-traced ratio of the primary metric, plus the layer table.
void report_trace(const Args& args, BenchTracer& bt, double untraced,
                  double traced, Outcome& out, SpanAnalysis& spans) {
  const JsonValue doc = bt.tracer().to_json();
  write_trace_file(args.trace_path, doc);
  spans = analyze_spans(doc);
  print_layer_table(std::cout, spans);
  out.detail.set("layers", layer_table_json(spans));
  out.set("obs.trace_overhead", untraced > 0.0 ? traced / untraced : 0.0,
          "ratio");
}

// ---- study_audikw -------------------------------------------------------

struct SweepResult {
  std::vector<double> max_avg;  ///< per strategy, roster order
  double wall = 0.0;
  double utilization = 0.0;
  double critical_share = 0.0;  ///< longest cell / sweep wall
};

/// One Fig. 5.1 comparison: every strategy compiled and measured with
/// kStudyReps repetitions, one sweep cell per strategy.
SweepResult sweep(const Fixture& f,
                  const std::vector<core::StrategyConfig>& strategies,
                  int jobs, core::ExecMode mode, std::uint64_t seed,
                  BenchTracer* bt, const Names& names) {
  SweepResult out;
  out.max_avg.assign(strategies.size(), 0.0);
  const TraceContext root = root_of(bt);
  ScopedSpan sweep_span(root, names.sweep);
  const TraceContext in_sweep = root.child(sweep_span.id());
  runtime::SweepRunner runner(runtime::SweepOptions{jobs, false, nullptr});
  for (std::size_t i = 0; i < strategies.size(); ++i) {
    runner.add(strategies[i].name(), [&, i] {
      const TraceContext ctx = on_this_thread(in_sweep);
      ScopedSpan cell(ctx, names.cell);
      const TraceContext in_cell = ctx.child(cell.id());
      core::MeasureOptions m;
      m.reps = kStudyReps;
      m.seed = seed;
      m.engine = mode;
      core::CommPlan plan;
      std::optional<core::CompiledPlan> compiled;
      {
        ScopedSpan plan_span(in_cell, names.plan);
        const TraceContext in_plan = in_cell.child(plan_span.id());
        {
          ScopedSpan s(in_plan, names.build_plan);
          plan = core::build_plan(f.pattern, f.topo, f.mach.params,
                                  strategies[i]);
        }
        if (mode == core::ExecMode::Compiled) {
          ScopedSpan s(in_plan, names.compile);
          compiled.emplace(plan, f.topo, f.mach.params);
          m.precompiled = &*compiled;
        }
      }
      ScopedSpan s(in_cell, names.measure);
      out.max_avg[i] = core::measure(plan, f.topo, f.mach.params, m).max_avg;
    });
  }
  const runtime::SweepReport report = runner.run();
  out.wall = report.wall_seconds;
  out.utilization = report.utilization();
  double longest = 0.0;
  for (const runtime::CellStats& c : report.cells) {
    longest = std::max(longest, c.seconds);
  }
  out.critical_share = report.wall_seconds > 0.0 ? longest / report.wall_seconds
                                                 : 0.0;
  return out;
}

struct StudyPhase {
  std::vector<double> serial_wall;
  std::vector<int> serial_cpu;
  std::vector<double> calibration;  ///< calibrate() before each serial sweep
  std::vector<double> parallel_wall;
  std::vector<double> utilization;
  std::vector<double> critical_share;
  std::vector<std::vector<double>> results;  ///< every sweep's max_avg
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
};

/// Sweeps for `seconds`: one-thread sweeps, each pinned to the next CPU,
/// and with `parallel` an all-thread sweep after each of them.
void study_phase(const Fixture& f,
                 const std::vector<core::StrategyConfig>& strategies,
                 std::uint64_t seed, double seconds, bool parallel,
                 BenchTracer* bt, StudyPhase& phase) {
  const Names names(bt);
  const int jobs = nproc();
  const auto end = Clock::now() + std::chrono::duration<double>(seconds);
  int rotation = 0;
  do {
    for (const int j : {1, jobs}) {
      if (j != 1 && !parallel) break;
      ++phase.attempted;
      try {
        std::optional<PinnedToCpu> pin;
        if (j == 1) {
          pin.emplace(rotation++);
          phase.calibration.push_back(calibrate());
        }
        SweepResult r = sweep(f, strategies, j, core::ExecMode::Compiled,
                              seed, bt, names);
        if (pin) phase.serial_cpu.push_back(pin->cpu());
        (j == 1 ? phase.serial_wall : phase.parallel_wall).push_back(r.wall);
        if (j != 1) {
          phase.utilization.push_back(r.utilization);
          phase.critical_share.push_back(r.critical_share);
        }
        phase.results.push_back(std::move(r.max_avg));
      } catch (const std::exception& e) {
        ++phase.failed;
        std::cerr << "ladder: sweep failed: " << e.what() << "\n";
      }
    }
  } while (Clock::now() < end);
}

// ---- stability_faults ---------------------------------------------------

/// The report minus its host-side compile timings: what must be identical
/// at every job count.
JsonValue strip_compile_timings(const JsonValue& report) {
  JsonValue out = JsonValue::object();
  for (const auto& [key, value] : report.members()) {
    if (key != "summary") {
      out.set(key, value);
      continue;
    }
    JsonValue summary = JsonValue::object();
    for (const auto& [k, v] : value.members()) {
      if (k != "compile") summary.set(k, v);
    }
    out.set(key, std::move(summary));
  }
  return out;
}

struct StabilityPhase {
  std::vector<double> serial_wall;
  std::vector<int> serial_cpu;
  std::vector<double> calibration;  ///< calibrate() before each serial report
  std::vector<double> parallel_wall;
  std::vector<std::string> results;  ///< stripped report per run
  std::vector<double> compile_seconds;
  std::vector<double> measure_seconds;
  std::int64_t strategies = 0;  ///< compiled plans per report
  std::int64_t failed_outcomes = 0;
  std::int64_t reps_per_report = 0;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
};

/// Reports for `seconds`, as study_phase runs sweeps: one-thread reports
/// on rotating CPUs, each followed by an all-thread report with `parallel`.
void stability_phase(const Fixture& f, const fault::FaultPlan& plan,
                     std::uint64_t seed, double seconds, bool parallel,
                     BenchTracer* bt, StabilityPhase& phase) {
  const Names names(bt);
  const int jobs = nproc();
  const auto end = Clock::now() + std::chrono::duration<double>(seconds);
  int rotation = 0;
  do {
    for (const int j : {1, jobs}) {
      if (j != 1 && !parallel) break;
      ++phase.attempted;
      try {
        std::optional<PinnedToCpu> pin;
        if (j == 1) {
          pin.emplace(rotation++);
          phase.calibration.push_back(calibrate());
        }
        const TraceContext root = root_of(bt);
        ScopedSpan span(root, names.stability);
        fault::StabilityOptions so;
        so.instances = kStabilityInstances;
        so.measure.reps = kStabilityReps;
        so.measure.seed = seed;
        so.measure.jobs = j;
        // measure() records ~1,400 spans per report; tracing the first few
        // reports keeps the rings from dropping while every report still
        // gets its own span.
        if (bt != nullptr && phase.attempted <= kTracedReports) {
          so.measure.tracer = &bt->tracer();
          so.measure.trace_id = root.trace_id;
          so.measure.trace_parent = span.id();
        }
        const auto t0 = Clock::now();
        const fault::StabilityReport report =
            fault::ranking_stability(f.pattern, f.topo, f.mach.params, plan,
                                     so);
        const double wall = seconds_between(t0, Clock::now());
        (j == 1 ? phase.serial_wall : phase.parallel_wall).push_back(wall);
        if (pin) phase.serial_cpu.push_back(pin->cpu());
        phase.compile_seconds.push_back(report.compile_seconds);
        phase.measure_seconds.push_back(wall - report.compile_seconds);
        phase.strategies = static_cast<std::int64_t>(report.strategies.size());
        phase.reps_per_report =
            phase.strategies * (kStabilityInstances + 1) * kStabilityReps;
        std::int64_t failed_outcomes = 0;
        for (const fault::StabilityInstance& inst : report.results) {
          for (const fault::StrategyOutcome& o : inst.outcomes) {
            failed_outcomes += o.failed ? 1 : 0;
          }
        }
        phase.failed_outcomes = failed_outcomes;
        phase.results.push_back(
            strip_compile_timings(report.to_json()).dump_string(0));
      } catch (const std::exception& e) {
        ++phase.failed;
        std::cerr << "ladder: ranking_stability failed: " << e.what() << "\n";
      }
    }
  } while (Clock::now() < end);
}

}  // namespace

Outcome run_study(const Args& args) {
  Outcome out;
  std::vector<double> setups;
  const Fixture f = timed_fixture_setups(args.seed, kSetups, setups);
  const std::vector<core::StrategyConfig> strategies = core::all_strategies();
  const std::uint64_t seed = mix_seed(args.seed, 0x57d7ULL);

  StudyPhase warmup;
  study_phase(f, strategies, seed, warmup_seconds(args), false, nullptr,
              warmup);
  StudyPhase main_phase;
  StudyPhase traced_phase;
  std::optional<BenchTracer> bt;
  if (!args.trace) {
    study_phase(f, strategies, seed, args.seconds, false, nullptr, main_phase);
    out.set("peak_rss_mb", peak_rss_mb(), "MiB");
  } else {
    study_phase(f, strategies, seed, args.seconds / 2, false, nullptr,
                main_phase);
    bt.emplace(nproc() + 1);
    study_phase(f, strategies, seed, args.seconds / 2, true, &*bt,
                traced_phase);
  }

  // Output checks (untimed): every sweep matches the first one bit for bit,
  // and so do an all-thread sweep and the interpreted reference engine.
  const Names none(nullptr);
  std::vector<std::vector<double>> all = main_phase.results;
  all.insert(all.end(), traced_phase.results.begin(),
             traced_phase.results.end());
  all.push_back(sweep(f, strategies, nproc(), core::ExecMode::Compiled, seed,
                      nullptr, none)
                    .max_avg);
  out.attempted = main_phase.attempted + traced_phase.attempted + 1;
  out.failed = warmup.failed + main_phase.failed + traced_phase.failed;
  const std::vector<double>& first = all.front();
  std::int64_t differing = 0;
  for (const std::vector<double>& r : all) {
    if (!same_bits(r, first)) ++differing;
  }
  out.failed += differing;
  out.check(differing == 0, "study sweeps differ between job counts or runs");
  const SweepResult reference = sweep(f, strategies, nproc(),
                                      core::ExecMode::Interpreted, seed,
                                      nullptr, none);
  if (!same_bits(reference.max_avg, first)) {
    // Every compiled sweep carries the same wrong answer.
    out.failed += static_cast<std::int64_t>(all.size()) - differing;
    out.check(false, "compiled sweep differs from the interpreted reference");
  }
  out.digest = fnv1a(first.data(), first.size() * sizeof(double));
  out.digest_items = static_cast<std::int64_t>(first.size());

  const Timing ser = summarize(main_phase.serial_wall);
  const double scale = host_scale(main_phase.calibration);
  out.detail.set("strategies", static_cast<std::int64_t>(strategies.size()));
  out.detail.set("reps_per_strategy", kStudyReps);
  out.detail.set("setup_s", to_json(summarize(setups)));
  out.detail.set("sweep_serial_s", to_json(ser));
  out.detail.set("sweep_serial_by_cpu_s",
                 by_cpu(main_phase.serial_cpu, main_phase.serial_wall));
  out.detail.set("calibration_s", to_json(summarize(main_phase.calibration)));
  out.detail.set("host_scale", scale);

  if (!args.trace) {
    const double reps = static_cast<double>(strategies.size()) * kStudyReps;
    const double sweep_s = ser.p10 * scale;
    out.set("setup_s", summarize(setups).median * scale, "s",
            static_cast<std::int64_t>(setups.size()));
    out.set("latency_ms", sweep_s * 1e3, "ms", ser.n);
    out.set("throughput_per_s", reps / sweep_s, "1/s", ser.n);
    return out;
  }

  const Timing traced_ser = summarize(traced_phase.serial_wall);
  const Timing traced_par = summarize(traced_phase.parallel_wall);
  out.detail.set("traced_sweep_serial_s", to_json(traced_ser));
  out.detail.set("traced_sweep_parallel_s", to_json(traced_par));
  SpanAnalysis spans;
  report_trace(args, *bt, ser.p10, traced_ser.p10, out, spans);
  const SpanStat& plan = spans.get("core.plan");
  out.set("core.plan.calls", static_cast<double>(plan.count), "count");
  out.set("core.plan.busy_s", plan.busy_seconds, "s", plan.count);
  out.set("core.plan.p50_us", summarize(plan.durations).median * 1e6, "us",
          plan.count);
  const SpanStat& measure = spans.get("core.measure");
  out.set("core.measure.busy_s", measure.busy_seconds, "s", measure.count);
  out.set("runtime.sweep.speedup", traced_ser.median / traced_par.median,
          "ratio", traced_par.n);
  out.set("runtime.sweep.utilization",
          summarize(traced_phase.utilization).median, "ratio",
          static_cast<std::int64_t>(traced_phase.utilization.size()));
  out.set("runtime.sweep.critical_share",
          summarize(traced_phase.critical_share).median, "ratio",
          static_cast<std::int64_t>(traced_phase.critical_share.size()));
  return out;
}

Outcome run_stability(const Args& args) {
  Outcome out;
  std::vector<double> setups;
  fault::FaultPlan plan;
  std::optional<Fixture> fixture;
  for (int i = 0; i < kSetups; ++i) {
    const PinnedToCpu pin(i);
    const auto t0 = Clock::now();
    fixture.emplace(make_fixture(args.seed));
    plan = fault::load_fault_file(LADDER_FAULT_PLAN);
    setups.push_back(seconds_between(t0, Clock::now()));
  }
  const Fixture& f = *fixture;
  const std::uint64_t seed = mix_seed(args.seed, 0x57ab1eULL);

  StabilityPhase warmup;
  stability_phase(f, plan, seed, warmup_seconds(args), false, nullptr,
                  warmup);
  StabilityPhase main_phase;
  StabilityPhase traced_phase;
  std::optional<BenchTracer> bt;
  if (!args.trace) {
    stability_phase(f, plan, seed, args.seconds, false, nullptr, main_phase);
    out.set("peak_rss_mb", peak_rss_mb(), "MiB");
  } else {
    stability_phase(f, plan, seed, args.seconds / 2, false, nullptr,
                    main_phase);
    bt.emplace(nproc() + 1);
    stability_phase(f, plan, seed, args.seconds / 2, true, &*bt,
                    traced_phase);
  }
  // One more report at each job count, untimed, for the check below.
  StabilityPhase check_phase;
  stability_phase(f, plan, seed, 0.0, true, nullptr, check_phase);

  // Output check (untimed): the report minus its compile timings is the
  // same at jobs 1 and nproc, and on every repetition of the run.
  std::vector<std::string> all = main_phase.results;
  for (const StabilityPhase* p : {&traced_phase, &check_phase}) {
    all.insert(all.end(), p->results.begin(), p->results.end());
  }
  out.attempted =
      main_phase.attempted + traced_phase.attempted + check_phase.attempted;
  out.failed = warmup.failed + main_phase.failed + traced_phase.failed +
               check_phase.failed;
  std::int64_t differing = 0;
  for (const std::string& r : all) {
    if (r != all.front()) ++differing;
  }
  out.failed += differing;
  out.check(differing == 0,
            "stability reports differ between job counts or runs");
  if (!all.empty()) {
    out.digest = fnv1a(all.front().data(), all.front().size());
    out.digest_items = 1;
  }

  const Timing ser = summarize(main_phase.serial_wall);
  const double scale = host_scale(main_phase.calibration);
  out.detail.set("instances", kStabilityInstances);
  out.detail.set("reps", kStabilityReps);
  out.detail.set("setup_s", to_json(summarize(setups)));
  out.detail.set("report_serial_s", to_json(ser));
  out.detail.set("report_serial_by_cpu_s",
                 by_cpu(main_phase.serial_cpu, main_phase.serial_wall));
  out.detail.set("calibration_s", to_json(summarize(main_phase.calibration)));
  out.detail.set("host_scale", scale);
  out.detail.set("failed_outcomes_per_report", main_phase.failed_outcomes);

  if (!args.trace) {
    const auto reps = static_cast<double>(main_phase.reps_per_report);
    const double report_s = ser.p10 * scale;
    out.set("setup_s", summarize(setups).median * scale, "s",
            static_cast<std::int64_t>(setups.size()));
    out.set("latency_ms", report_s * 1e3, "ms", ser.n);
    out.set("throughput_per_s", reps / report_s, "1/s", ser.n);
    return out;
  }

  const Timing traced_ser = summarize(traced_phase.serial_wall);
  const Timing traced_par = summarize(traced_phase.parallel_wall);
  out.detail.set("traced_report_serial_s", to_json(traced_ser));
  out.detail.set("traced_report_parallel_s", to_json(traced_par));
  SpanAnalysis spans;
  report_trace(args, *bt, ser.p10, traced_ser.p10, out, spans);
  out.set("core.measure.speedup", traced_ser.median / traced_par.median,
          "ratio", traced_par.n);
  // ranking_stability compiles each strategy once per report and reports
  // only the total; build_plan is not timed separately.
  double compile_total = 0.0;
  double measure_total = 0.0;
  std::vector<double> per_plan_us;
  for (std::size_t i = 0; i < traced_phase.compile_seconds.size(); ++i) {
    compile_total += traced_phase.compile_seconds[i];
    measure_total += traced_phase.measure_seconds[i];
    per_plan_us.push_back(traced_phase.compile_seconds[i] * 1e6 /
                          static_cast<double>(traced_phase.strategies));
  }
  const auto reports = static_cast<std::int64_t>(per_plan_us.size());
  out.set("core.plan.calls",
          static_cast<double>(reports * traced_phase.strategies), "count");
  out.set("core.plan.busy_s", compile_total, "s", reports);
  out.set("core.plan.p50_us", summarize(per_plan_us).median, "us", reports);
  out.set("core.measure.busy_s", measure_total, "s", reports);
  out.set("fault.failed_outcomes",
          static_cast<double>(main_phase.failed_outcomes), "count");
  return out;
}

}  // namespace ladder
