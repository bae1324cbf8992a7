// google-benchmark micro-benchmarks for the library's own hot paths:
// discrete-event engine throughput, pattern extraction, plan construction,
// and model evaluation.  These guard the simulator's performance, not the
// paper's results.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

#include "benchutil/artifact_stamp.hpp"
#include "benchutil/bench_options.hpp"
#include "core/compiled_plan.hpp"
#include "core/executor.hpp"
#include "core/models/strategy_models.hpp"
#include "core/strategy.hpp"
#include "machine/machine.hpp"
#include "sparse/comm_graph.hpp"
#include "sparse/generators.hpp"
#include "sparse/suitesparse_profiles.hpp"

namespace {

using namespace hetcomm;
using namespace hetcomm::core;

void BM_EngineMessageThroughput(benchmark::State& state) {
  const machine::MachineModel mach = machine::lassen_machine();
  const Topology topo = mach.topology(4);
  const ParamSet& params = mach.params;
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Engine engine(topo, params, NoiseModel(1, 0.0));
    for (int i = 0; i < n; ++i) {
      const int src = i % topo.num_ranks();
      const int dst = (i * 7 + 1) % topo.num_ranks();
      if (src == dst) continue;
      engine.isend(src, dst, 4096, i, MemSpace::Host);
      engine.irecv(dst, src, 4096, i, MemSpace::Host);
    }
    engine.resolve();
    benchmark::DoNotOptimize(engine.max_clock());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EngineMessageThroughput)->Arg(1000)->Arg(10000);

void BM_SpmvPatternExtraction(benchmark::State& state) {
  const auto n = static_cast<std::int64_t>(state.range(0));
  const sparse::CsrMatrix m = sparse::banded_fem(n, n / 50, 16, 3, false);
  const sparse::RowPartition part = sparse::RowPartition::contiguous(n, 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sparse::spmv_comm_pattern(m, part));
  }
}
BENCHMARK(BM_SpmvPatternExtraction)->Arg(10000)->Arg(100000);

void BM_PlanConstruction(benchmark::State& state) {
  const machine::MachineModel mach = machine::lassen_machine();
  const Topology topo = mach.topology(8);
  const ParamSet& params = mach.params;
  const CommPattern pattern = random_pattern(topo, 16, 8192, 5);
  const StrategyConfig cfg{static_cast<StrategyKind>(state.range(0)),
                           MemSpace::Host};
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_plan(pattern, topo, params, cfg));
  }
}
BENCHMARK(BM_PlanConstruction)
    ->Arg(static_cast<int>(StrategyKind::Standard))
    ->Arg(static_cast<int>(StrategyKind::ThreeStep))
    ->Arg(static_cast<int>(StrategyKind::TwoStep))
    ->Arg(static_cast<int>(StrategyKind::SplitMD))
    ->Arg(static_cast<int>(StrategyKind::SplitDD));

void BM_ModelEvaluation(benchmark::State& state) {
  const machine::MachineModel mach = machine::lassen_machine();
  const Topology topo = mach.topology(8);
  const ParamSet& params = mach.params;
  const CommPattern pattern = random_pattern(topo, 16, 8192, 5);
  const PatternStats st = compute_stats(pattern, topo);
  for (auto _ : state) {
    for (const StrategyConfig& cfg : table5_strategies()) {
      benchmark::DoNotOptimize(models::predict(cfg, st, params, topo));
    }
  }
}
BENCHMARK(BM_ModelEvaluation);

void BM_MeasureFullStrategy(benchmark::State& state) {
  const machine::MachineModel mach = machine::lassen_machine();
  const Topology topo = mach.topology(4);
  const ParamSet& params = mach.params;
  const CommPattern pattern = random_pattern(topo, 32, 4096, 9);
  const CommPlan plan = build_plan(pattern, topo, params,
                                   {StrategyKind::SplitMD, MemSpace::Host});
  for (auto _ : state) {
    Engine engine(topo, params, NoiseModel(1, 0.0));
    benchmark::DoNotOptimize(run_plan(engine, plan));
  }
}
BENCHMARK(BM_MeasureFullStrategy);

// ---- DES sweep-runtime throughput (the ISSUE-1 refactor's payoff) -------
//
// Fixed workload: the audikw_1 stand-in SpMV plan on a 4-node Lassen
// (the Figure 4.2 validation point), split+MD.  Tracked in BENCH JSON as
// reps/sec so regressions in the sweep runtime show up over time.

struct AudikwFixture {
  machine::MachineModel mach = machine::lassen_machine();
  Topology topo = mach.topology(4);
  ParamSet params = mach.params;
  CommPlan plan;

  AudikwFixture() {
    const double scale = 0.005;
    const sparse::CsrMatrix matrix = sparse::generate_standin(
        sparse::profile_by_name("audikw_1"), scale, 7);
    const sparse::RowPartition part =
        sparse::RowPartition::contiguous(matrix.rows(), topo.num_gpus());
    const CommPattern pattern = sparse::spmv_comm_pattern(
        matrix, part, topo, static_cast<std::int64_t>(8.0 / scale));
    plan = build_plan(pattern, topo, params,
                      {StrategyKind::SplitMD, MemSpace::Host});
  }

  static const AudikwFixture& get() {
    static const AudikwFixture fixture;
    return fixture;
  }
};

// Old execution path: a freshly constructed engine for every repetition.
void BM_DesThroughputFreshEngine(benchmark::State& state) {
  const AudikwFixture& f = AudikwFixture::get();
  std::int64_t reps = 0;
  for (auto _ : state) {
    Engine engine(f.topo, f.params, NoiseModel(mix_seed(1, ++reps), 0.02));
    benchmark::DoNotOptimize(run_plan(engine, f.plan));
  }
  state.SetItemsProcessed(state.iterations());  // items = repetitions
}
BENCHMARK(BM_DesThroughputFreshEngine);

// Reuse path: one engine, reset(seed) between repetitions.
void BM_DesThroughputReusedEngine(benchmark::State& state) {
  const AudikwFixture& f = AudikwFixture::get();
  Engine engine(f.topo, f.params, NoiseModel(1, 0.02));
  std::int64_t reps = 0;
  for (auto _ : state) {
    engine.reset(mix_seed(1, ++reps));
    benchmark::DoNotOptimize(run_plan(engine, f.plan));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DesThroughputReusedEngine);

// Full measure() throughput at jobs in {1, 4, hardware}; Arg is the jobs
// value passed to MeasureOptions (0 = hardware concurrency).
void BM_DesThroughputMeasureJobs(benchmark::State& state) {
  const AudikwFixture& f = AudikwFixture::get();
  MeasureOptions mopts;
  mopts.reps = 32;
  mopts.noise_sigma = 0.02;
  mopts.jobs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    MeasureResult r = measure(f.plan, f.topo, f.params, mopts);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * mopts.reps);
}
BENCHMARK(BM_DesThroughputMeasureJobs)
    ->Arg(1)
    ->Arg(4)
    ->Arg(0)  // hardware concurrency
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// ---- CompiledPlan fast path (the ISSUE-2 perf work) ---------------------
//
// Fixed workload: the audikw_1 stand-in SpMV plan at the fig5_1 scale
// (0.015, volume-preserving payload), 4-node Lassen, split+MD -- the plan
// the "compile once, simulate many" acceptance target is quoted against.
// The interpreted/compiled pair below is the A/B: identical clocks, only
// the per-repetition work differs.

struct Fig51Fixture {
  machine::MachineModel mach = machine::lassen_machine();
  Topology topo = mach.topology(4);
  ParamSet params = mach.params;
  CommPlan plan;

  Fig51Fixture() {
    const double scale = 0.015;
    const sparse::CsrMatrix matrix = sparse::generate_standin(
        sparse::profile_by_name("audikw_1"), scale, 11);
    const sparse::RowPartition part =
        sparse::RowPartition::contiguous(matrix.rows(), topo.num_gpus());
    const CommPattern pattern = sparse::spmv_comm_pattern(
        matrix, part, topo, std::llround(8.0 / scale));
    plan = build_plan(pattern, topo, params,
                      {StrategyKind::SplitMD, MemSpace::Host});
  }

  static const Fig51Fixture& get() {
    static const Fig51Fixture fixture;
    return fixture;
  }
};

// One-time compile cost: amortized away after a handful of repetitions.
void BM_CompilePlan(benchmark::State& state) {
  const Fig51Fixture& f = Fig51Fixture::get();
  for (auto _ : state) {
    benchmark::DoNotOptimize(CompiledPlan(f.plan, f.topo, f.params));
  }
}
BENCHMARK(BM_CompilePlan);

// Interpreted repetition: reused engine, op-by-op isend/irecv + resolve().
void BM_RepInterpreted(benchmark::State& state) {
  const Fig51Fixture& f = Fig51Fixture::get();
  Engine engine(f.topo, f.params, NoiseModel(1, 0.02));
  std::int64_t rep = 0;
  for (auto _ : state) {
    engine.reset(mix_seed(1, static_cast<std::uint64_t>(++rep)));
    benchmark::DoNotOptimize(run_plan(engine, f.plan));
  }
  state.SetItemsProcessed(state.iterations());  // items = repetitions
}
BENCHMARK(BM_RepInterpreted);

// Compiled repetition: reused engine, execute() on the precompiled plan.
// items_per_second(BM_RepCompiled) / items_per_second(BM_RepInterpreted)
// is the speedup quoted in docs/simulator.md.
void BM_RepCompiled(benchmark::State& state) {
  const Fig51Fixture& f = Fig51Fixture::get();
  const CompiledPlan compiled(f.plan, f.topo, f.params);
  Engine engine(f.topo, f.params, NoiseModel(1, 0.02));
  std::int64_t rep = 0;
  for (auto _ : state) {
    engine.reset(mix_seed(1, static_cast<std::uint64_t>(++rep)));
    engine.execute(compiled);
    benchmark::DoNotOptimize(engine.max_clock());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RepCompiled);

// End-to-end measure() in both modes (compile cost included for Compiled).
void BM_MeasureEngineMode(benchmark::State& state) {
  const Fig51Fixture& f = Fig51Fixture::get();
  MeasureOptions mopts;
  mopts.reps = 32;
  mopts.noise_sigma = 0.02;
  mopts.jobs = 1;
  mopts.engine = state.range(0) == 0 ? ExecMode::Compiled
                                     : ExecMode::Interpreted;
  for (auto _ : state) {
    MeasureResult r = measure(f.plan, f.topo, f.params, mopts);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * mopts.reps);
  state.SetLabel(to_string(mopts.engine));
}
BENCHMARK(BM_MeasureEngineMode)
    ->Arg(0)   // compiled
    ->Arg(1)   // interpreted
    ->Unit(benchmark::kMillisecond);

// Observability overhead A/B: measure() with metrics collection off vs on
// (compiled path, jobs=1).  The enabled-overhead budget is <2%.
void BM_MeasureMetricsOverhead(benchmark::State& state) {
  const Fig51Fixture& f = Fig51Fixture::get();
  MeasureOptions mopts;
  mopts.reps = 32;
  mopts.noise_sigma = 0.02;
  mopts.jobs = 1;
  mopts.collect_metrics = state.range(0) != 0;
  for (auto _ : state) {
    MeasureResult r = measure(f.plan, f.topo, f.params, mopts);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * mopts.reps);
  state.SetLabel(mopts.collect_metrics ? "metrics-on" : "metrics-off");
}
BENCHMARK(BM_MeasureMetricsOverhead)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// Run the fig5_1-scale fixture once with metrics collection and write the
// hetcomm.metrics.v1 report (both engine modes, so the file also documents
// their equivalence).  Used by CI's perf-smoke step.
int write_metrics_report(const std::string& path) {
  const Fig51Fixture& f = Fig51Fixture::get();
  std::vector<obs::RunReport> reports;
  for (const ExecMode mode : {ExecMode::Compiled, ExecMode::Interpreted}) {
    MeasureOptions mopts;
    mopts.reps = 32;
    mopts.noise_sigma = 0.02;
    mopts.jobs = 0;  // hardware concurrency; simulated metrics are invariant
    mopts.engine = mode;
    mopts.collect_metrics = true;
    MeasureResult result = measure(f.plan, f.topo, f.params, mopts);
    result.metrics->name = std::string("fig5_1_audikw_split_md/") +
                           to_string(mode);
    reports.push_back(std::move(*result.metrics));
  }
  try {
    benchutil::write_metrics_file(path, reports);
  } catch (const std::exception& e) {
    std::cerr << "micro_hetcomm: " << e.what() << "\n";
    return 2;
  }
  return 0;
}

// Re-open the google-benchmark JSON after the run and inject the
// provenance stamp as a top-level "hetcomm_stamp" member, so
// tools/bench_trend.py can attribute every number to a commit/host.
// Failures warn rather than fail: the benchmark results themselves are
// already on disk.
void stamp_bench_json(const std::string& path) {
  using hetcomm::obs::JsonValue;
  try {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot read " + path);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    JsonValue doc = JsonValue::parse(text);
    doc.set("hetcomm_stamp",
            hetcomm::benchutil::artifact_stamp(/*jobs=*/0));
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write " + path);
    doc.dump(out);
  } catch (const std::exception& e) {
    std::cerr << "micro_hetcomm: could not stamp " << path << ": " << e.what()
              << "\n";
  }
}

}  // namespace

// BENCHMARK_MAIN() plus two CI spellings: `--json FILE` expands into
// google-benchmark's --benchmark_out/--benchmark_out_format pair (so the
// perf-smoke step can upload BENCH_micro_hetcomm.json without hard-coding
// benchmark library flag names in the workflow; the file is stamped with
// hetcomm.bench_stamp.v1 provenance after the run), and `--metrics FILE`
// writes a hetcomm.metrics.v1 run report for the fig5_1-scale fixture
// before the benchmarks run.
int main(int argc, char** argv) {
  std::vector<std::string> expanded;
  expanded.reserve(static_cast<std::size_t>(argc) + 1);
  expanded.emplace_back(argv[0]);
  std::string metrics_path;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      if (i + 1 >= argc) {
        std::cerr << "micro_hetcomm: --json needs a file path\n";
        return 2;
      }
      json_path = argv[++i];
      expanded.push_back("--benchmark_out=" + json_path);
      expanded.emplace_back("--benchmark_out_format=json");
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      if (i + 1 >= argc || argv[i + 1][0] == '\0') {
        std::cerr << "micro_hetcomm: --metrics needs a file path\n";
        return 2;
      }
      metrics_path = argv[++i];
    } else {
      expanded.emplace_back(argv[i]);
    }
  }
  if (!metrics_path.empty()) {
    const int rc = write_metrics_report(metrics_path);
    if (rc != 0) return rc;
  }
  std::vector<char*> args;
  args.reserve(expanded.size());
  for (std::string& s : expanded) args.push_back(s.data());
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!json_path.empty()) stamp_bench_json(json_path);
  return 0;
}
