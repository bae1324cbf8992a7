#pragma once
// Execute a CommPlan on the discrete-event simulator and collect timing
// statistics the way the paper reports them: per-process times averaged over
// repetitions, then the maximum over processes ("maximum average time
// required for communication by any single process", §4.5/§5).
//
// measure() is the repetition runtime: it keeps one reusable Engine per
// worker thread (reset(seed) between repetitions instead of reconstructing),
// derives each repetition's noise seed as mix_seed(options.seed, rep), and
// reduces per-repetition results in repetition order -- so the aggregate is
// bit-identical for any `jobs` value, including jobs=1.

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/compiled_plan.hpp"
#include "core/plan.hpp"
#include "hetsim/engine.hpp"
#include "hetsim/network.hpp"
#include "hetsim/trace.hpp"
#include "obs/run_report.hpp"
#include "obs/trace.hpp"

namespace hetcomm::core {

/// How measure() drives each repetition.  Both paths are bit-identical
/// (clocks, traces, statistics); Compiled hoists the rep-invariant work
/// (matching, classification, parameter lookups) into a CompiledPlan built
/// once per measure() call and is several times faster per repetition.
enum class ExecMode : std::uint8_t {
  Compiled,     ///< compile once, Engine::execute() per repetition
  Interpreted,  ///< re-interpret the CommPlan op-by-op per repetition
};

[[nodiscard]] constexpr const char* to_string(ExecMode m) noexcept {
  return m == ExecMode::Compiled ? "compiled" : "interpreted";
}

struct MeasureOptions {
  MeasureOptions() = default;
  /// Pre-runtime callers spell out the first four options positionally;
  /// keep that working without -Wmissing-field-initializers noise.
  MeasureOptions(int reps_, std::uint64_t seed_, double noise_sigma_,
                 bool trace_last_rep_) noexcept
      : reps(reps_),
        seed(seed_),
        noise_sigma(noise_sigma_),
        trace_last_rep(trace_last_rep_) {}

  int reps = 25;              ///< repetitions (the paper uses 1000)
  std::uint64_t seed = 0x5eedULL;
  double noise_sigma = 0.02;  ///< mean-one jitter factor; 0 = deterministic
  bool trace_last_rep = false;
  /// Worker threads for repetitions: 1 = serial (default), 0 = hardware
  /// concurrency.  Results are bit-identical for every value.
  int jobs = 1;
  /// Attach a tapered fat-tree fabric to every engine (what-if studies).
  std::optional<FatTreeConfig> fabric;
  /// Execution path; Compiled is the default fast path, Interpreted is the
  /// reference path (bench `--engine interpreted` A/Bs them).
  ExecMode engine = ExecMode::Compiled;
  /// Collect per-phase/per-path metrics into MeasureResult::metrics.
  /// Recording never perturbs the simulation: clocks, traces and statistics
  /// are bit-identical with this on or off (and for every jobs value).
  bool collect_metrics = false;
  /// Caller-owned fault model attached to every per-worker engine (nullptr
  /// or an empty model = unfaulted).  Faulted results stay bit-identical
  /// across `jobs` values and engine modes (the fault stream is keyed by
  /// repetition seed and schedule-order message id, never worker identity).
  /// When repetitions abort, the lowest aborting repetition's FaultAbort
  /// is rethrown (the same one at every `jobs` value) with the plan's
  /// strategy name filled in; no partial result is returned.
  const FaultModel* faults = nullptr;
  /// Caller-owned pre-compiled plan to replay instead of compiling inside
  /// measure() (Compiled mode only; ignored when Interpreted).  Must have
  /// been compiled from exactly the (plan, topo, params) triple passed to
  /// measure() -- results are then bit-identical to the compile-in-call
  /// path.  This is how callers that re-measure one plan many times (the
  /// serve plan cache, the ranking-stability fault ensemble) skip the
  /// per-call compile entirely.
  const CompiledPlan* precompiled = nullptr;
  /// Span tracing (null = off; see obs/trace.hpp and docs/tracing.md).
  /// When set -- and trace_id is on the tracer's sampled grid -- measure()
  /// records a compile span, one span per repetition on the running
  /// worker's ring/track (the tracer needs rings >= effective jobs), and
  /// repetition-0 engine phase spans scaled into that repetition's wall
  /// interval.  trace_id 0 allocates a fresh trace with a root `measure`
  /// span; a nonzero trace_id parents everything under `trace_parent`.
  /// Tracing never perturbs results: clocks and statistics stay
  /// bit-identical with the tracer attached or not.
  obs::Tracer* tracer = nullptr;
  std::uint64_t trace_id = 0;
  std::uint32_t trace_parent = 0;
};

struct MeasureResult {
  double max_avg = 0.0;       ///< max over ranks of per-rank mean time
  double makespan_mean = 0.0; ///< mean over reps of max rank time
  double makespan_min = 0.0;
  double makespan_max = 0.0;
  std::vector<double> per_rank_mean;
  PlanSummary summary;
  Trace trace;                ///< last repetition's events (trace_last_rep)
  double wall_seconds = 0.0;  ///< wall time spent simulating repetitions
  double reps_per_second = 0.0;
  /// Aggregated run report (collect_metrics).  `name` is left empty for the
  /// caller to label.  Simulated-time sections depend only on the plan,
  /// machine, seed and noise; the `workers` / wall-time sections describe
  /// this host-side execution and naturally vary with `jobs`.
  std::optional<obs::RunReport> metrics;
};

/// Run `plan` once on `engine` (which must be reset by the caller),
/// writing rank r's final clock into `clocks_out[r]`.  `clocks_out.size()`
/// must equal the engine's rank count (throws std::invalid_argument
/// otherwise).  Allocation-free after engine warm-up.
void run_plan(Engine& engine, const CommPlan& plan,
              std::span<double> clocks_out);

/// Convenience overload returning a freshly allocated clock vector.
std::vector<double> run_plan(Engine& engine, const CommPlan& plan);

/// Compiled counterpart of run_plan(): execute a pre-compiled plan and
/// write the final per-rank clocks into `clocks_out`.
void run_plan(Engine& engine, const CompiledPlan& plan,
              std::span<double> clocks_out);

/// The paper's reduction of repeated runs, folded in repetition order.
struct RepFold {
  std::vector<double> per_rank_mean;  ///< each rank's mean final clock
  double max_avg = 0.0;               ///< the largest of those means
  std::vector<double> makespans;      ///< per repetition, its largest clock
};

/// Fold `clocks`, reps x `num_ranks` final rank clocks (row = repetition).
/// measure() and serve both reduce through here, so a serve reply and a
/// one-shot measurement of the same query are bit-identical.
[[nodiscard]] RepFold fold_repetitions(std::span<const double> clocks,
                                       std::size_t num_ranks);

/// Repeatedly execute `plan` with per-repetition reseeded noise -- on
/// per-worker reused engines, fanned across `options.jobs` threads -- and
/// aggregate.  Deterministic: the result depends only on (plan, topo,
/// params, reps, seed, noise_sigma, fabric), never on the thread count and
/// never on the execution mode (compiled and interpreted are bit-identical).
/// In Compiled mode the plan is compiled once per call and the immutable
/// CompiledPlan is shared across all workers.
[[nodiscard]] MeasureResult measure(const CommPlan& plan, const Topology& topo,
                                    const ParamSet& params,
                                    const MeasureOptions& options = {});

}  // namespace hetcomm::core
