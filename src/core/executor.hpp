#pragma once
// Execute a CommPlan on the discrete-event simulator and collect timing
// statistics the way the paper reports them: per-process times averaged over
// repetitions, then the maximum over processes ("maximum average time
// required for communication by any single process", §4.5/§5).
//
// RepRunner is the one repetition runtime: it fans a batch of jobs' (job,
// repetition) pairs out onto a caller-owned ThreadPool and folds each job
// in repetition order, so results are bit-identical for any pool size.
// measure() is a batch of one; a ranking-stability report and a serve
// window are one batch each.

#include <chrono>
#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/compiled_plan.hpp"
#include "core/plan.hpp"
#include "hetsim/engine.hpp"
#include "hetsim/network.hpp"
#include "obs/run_report.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"

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
  int reps = 25;              ///< repetitions (the paper uses 1000)
  std::uint64_t seed = 0x5eedULL;
  double noise_sigma = 0.02;  ///< mean-one jitter factor; 0 = deterministic
  /// Worker threads for repetitions: 1 = serial (default), 0 = hardware
  /// concurrency.  Results are bit-identical for every value.
  int jobs = 1;
  /// Attach a tapered fat-tree fabric to every engine (what-if studies).
  std::optional<FatTreeConfig> fabric = std::nullopt;
  /// Execution path; Compiled is the default fast path, Interpreted is the
  /// bit-identical reference the equivalence tests compare it against.
  ExecMode engine = ExecMode::Compiled;
  /// Collect per-phase/per-path metrics into MeasureResult::metrics.
  /// Recording never perturbs the simulation: clocks, traces and statistics
  /// are bit-identical with this on or off (and for every jobs value).
  bool collect_metrics = false;
  /// Caller-owned fault model attached to every engine (nullptr or an
  /// empty model = unfaulted); results stay bit-identical across `jobs`
  /// and engine modes.  When repetitions abort, the lowest aborting
  /// repetition's FaultAbort is rethrown with the plan's strategy name
  /// filled in; no partial result is returned.
  const FaultModel* faults = nullptr;
  /// Caller-owned pre-compiled plan to replay instead of compiling inside
  /// measure() (Compiled mode only).  It must come from exactly the (plan,
  /// topo, params) passed to measure(), so results stay bit-identical.
  const CompiledPlan* precompiled = nullptr;
  /// Span tracing (null = off; docs/tracing.md), resolved by MeasureTrace:
  /// a compile span, a `measure.block` span per repetition on its worker's
  /// ring (rings >= effective jobs) and repetition 0's `engine.phase`
  /// spans.  Tracing never perturbs results.
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
  double wall_seconds = 0.0;  ///< wall time spent simulating repetitions
  double reps_per_second = 0.0;
  /// Aggregated run report (collect_metrics).  `name` is left empty for the
  /// caller to label.  Simulated-time sections depend only on the plan,
  /// machine, seed and noise; the `workers` / wall-time sections describe
  /// this host-side execution and naturally vary with `jobs`.
  std::optional<obs::RunReport> metrics;
};

/// Post every op of `phase` on `engine` in op order: a Message op posts
/// its isend -- with its rail, and with its depends_on edge when that edge
/// targets a message -- then the matching irecv; copies and packs run
/// blocking.  Resolving is left to the caller.  `send_req` is scratch
/// (op index -> isend request id).
void post_phase(Engine& engine, const PlanPhase& phase,
                std::vector<int>& send_req);

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
  double makespan_mean = 0.0;         ///< mean, min and max of makespans
  double makespan_min = 0.0;
  double makespan_max = 0.0;
};

/// Fold `clocks`, reps x `num_ranks` final rank clocks (row = repetition).
/// RepRunner and NeighborhoodExchange::measure_overlapped() both reduce
/// through here, so a serve reply and a one-shot measurement of the same
/// query are bit-identical.  Each rank's sum runs in repetition order,
/// which is why the whole buffer is kept: the result is the same at any
/// `--jobs`.
[[nodiscard]] RepFold fold_repetitions(std::span<const double> clocks,
                                       std::size_t num_ranks);

/// One measurement in a RepRunner batch: repetition k runs
/// reset(mix_seed(seed, k)); execute(plan) with `faults` attached, on an
/// engine for (topo, params, noise_sigma, fabric).  Jobs with one
/// engine_key must share those four; they then share each worker's engine.
struct RepJob {
  const CompiledPlan* compiled = nullptr;  ///< null = interpret `plan`
  const CommPlan* plan = nullptr;
  const Topology* topo = nullptr;
  const ParamSet* params = nullptr;
  std::uint64_t engine_key = 0;
  int reps = 1;
  std::uint64_t seed = 0;
  double noise_sigma = 0.0;
  const FatTreeConfig* fabric = nullptr;
  const FaultModel* faults = nullptr;
  /// A repetition claimed at or after this instant fails unrun.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// Repetition 0 records into this sink; the others run hook-free.
  obs::EngineMetrics* rep0_metrics = nullptr;
  /// Traced, repetition 0 shows its messages and copies as spans.
  bool trace_rep0 = false;
  std::int64_t tag = 0;  ///< caller's label; its block spans' `job_key`
};

/// A job's lowest failed repetition (-1 = none): it threw `error`, or it
/// was claimed past the deadline (`error` null).  Repetitions above it are
/// skipped, so the same one fails at any pool size.  A timed or traced
/// batch also records the repetitions that ran, their summed wall time and
/// the tracer interval they span.
struct RepOutcome {
  int failed_rep = -1;
  std::exception_ptr error;
  RepFold fold;  ///< the folded clocks, when none failed
  int reps_run = 0;
  double busy_seconds = 0.0;
  double trace_t0 = 0.0;
  double trace_t1 = 0.0;

  [[nodiscard]] bool failed() const noexcept { return failed_rep >= 0; }
};

/// A batch's timing and spans: per repetition a `block` span (attributes
/// `first_rep` and `job_key`) on its worker's ring under `parent`,
/// repetition 0's engine spans inside it and, with `pool_spans`,
/// `pool.wait`/`pool.run`.  Trace id 0 records no span but still times
/// repetitions, as `timed` does without a tracer.
struct BatchTrace {
  obs::Tracer* tracer = nullptr;
  std::uint64_t trace_id = 0;
  std::uint32_t parent = 0;
  const char* block = "measure.block";
  const char* job_key = "job";
  bool pool_spans = false;
  bool timed = false;
};

struct RepBatch {
  std::vector<RepOutcome> jobs;          ///< in job order
  std::vector<obs::WorkerStat> workers;  ///< per pool worker, when timed
};

/// The repetition runner: it keeps one engine per pool worker per engine
/// key for as long as it lives, so it runs one batch at a time.
class RepRunner {
 public:
  /// Fan every (job, repetition) out onto `pool` and fold each job in
  /// repetition order.  A job's reps x ranks clocks live from its first
  /// claimed repetition to its fold.  Throws std::invalid_argument when a
  /// job has reps < 1.
  RepBatch run(std::span<const RepJob> jobs, runtime::ThreadPool& pool,
               const BatchTrace& trace = {});

 private:
  std::vector<std::unordered_map<std::uint64_t, std::unique_ptr<Engine>>>
      engines_;  ///< [worker][engine_key]
};

/// measure()'s job for `plan` (replaying `compiled` unless null) under
/// `options`, which must outlive it.
[[nodiscard]] RepJob measure_job(const CommPlan& plan,
                                 const CompiledPlan* compiled,
                                 const Topology& topo, const ParamSet& params,
                                 const MeasureOptions& options);

/// Throw what failed `outcome`: its exception, a FaultAbort stamped with
/// `strategy`, or a std::runtime_error for a deadline.
[[noreturn]] void rethrow(const RepOutcome& outcome,
                          const std::string& strategy);

/// MeasureOptions' tracing for one measurement's batch: trace_id 0 begins
/// a trace, an unsampled one turns tracing off (null tracer), trace_parent
/// 0 opens a root `measure` span that close() records, and collect_metrics
/// times the repetitions.
struct MeasureTrace : BatchTrace {
  explicit MeasureTrace(const MeasureOptions& options);
  void close(int reps, int jobs) const;

  bool own_root = false;
  double t0 = 0.0;
};

/// Repeatedly execute `plan` with per-repetition reseeded noise and
/// aggregate: a RepRunner batch of one on a pool of min(jobs, reps)
/// threads.  Deterministic: the result depends only on (plan, topo,
/// params, reps, seed, noise_sigma, fabric), never on the thread count and
/// never on the execution mode (compiled and interpreted are bit-identical).
/// In Compiled mode the plan is compiled once per call and the immutable
/// CompiledPlan is shared across all workers.  Callers that measure many
/// plans batch them on one pool instead (see fault::ranking_stability).
[[nodiscard]] MeasureResult measure(const CommPlan& plan, const Topology& topo,
                                    const ParamSet& params,
                                    const MeasureOptions& options = {});

}  // namespace hetcomm::core
