#include "core/executor.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "obs/engine_metrics.hpp"
#include "runtime/thread_pool.hpp"

namespace hetcomm::core {

namespace {

void check_clock_span(const Engine& engine, std::span<double> clocks_out) {
  if (clocks_out.size() !=
      static_cast<std::size_t>(engine.topology().num_ranks())) {
    throw std::invalid_argument("run_plan: clocks_out must hold one slot per rank");
  }
}

}  // namespace

void run_plan(Engine& engine, const CommPlan& plan,
              std::span<double> clocks_out) {
  check_clock_span(engine, clocks_out);
  std::vector<int> send_req;  // phase-local op index -> isend request id
  for (const PlanPhase& phase : plan.phases) {
    send_req.assign(phase.ops.size(), -1);
    for (std::size_t oi = 0; oi < phase.ops.size(); ++oi) {
      const PlanOp& op = phase.ops[oi];
      switch (op.type) {
        case OpType::Message: {
          // Only message-target deps reach the engine: deps on copies or
          // packs are already enforced by blocking posting on the sender's
          // clock (the engine would reject them as non-send request ids).
          int dep_req = -1;
          if (op.depends_on >= 0 &&
              static_cast<std::size_t>(op.depends_on) < phase.ops.size() &&
              phase.ops[static_cast<std::size_t>(op.depends_on)].type ==
                  OpType::Message) {
            dep_req = send_req[static_cast<std::size_t>(op.depends_on)];
          }
          send_req[oi] = engine.isend(op.src_rank, op.dst_rank, op.bytes,
                                      op.tag, op.space, op.rail, dep_req);
          engine.irecv(op.dst_rank, op.src_rank, op.bytes, op.tag, op.space);
          break;
        }
        case OpType::Copy:
          engine.copy(op.rank, op.gpu, op.dir, op.bytes, op.sharing_procs);
          break;
        case OpType::Pack:
          engine.pack(op.rank, op.bytes);
          break;
      }
    }
    if (engine.has_pending()) engine.resolve();
    // One phase-end sample per phase on the sampled tier, matching
    // Engine::execute.
    if (engine.sampled_metrics() != nullptr) {
      engine.sampled_metrics()->on_phase_end(engine.max_clock());
    }
  }
  const std::vector<double>& clocks = engine.clocks();
  std::copy(clocks.begin(), clocks.end(), clocks_out.begin());
}

std::vector<double> run_plan(Engine& engine, const CommPlan& plan) {
  std::vector<double> clocks(
      static_cast<std::size_t>(engine.topology().num_ranks()));
  run_plan(engine, plan, clocks);
  return clocks;
}

void run_plan(Engine& engine, const CompiledPlan& plan,
              std::span<double> clocks_out) {
  check_clock_span(engine, clocks_out);
  engine.execute(plan);
  const std::vector<double>& clocks = engine.clocks();
  std::copy(clocks.begin(), clocks.end(), clocks_out.begin());
}

RepFold fold_repetitions(std::span<const double> clocks,
                         std::size_t num_ranks) {
  const std::size_t reps = clocks.size() / num_ranks;
  RepFold fold;
  fold.per_rank_mean.assign(num_ranks, 0.0);
  // Stored by index, not push_back(const double&): taking the running
  // maximum's address would keep it in memory through the inner loop.
  fold.makespans.resize(reps);
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const double* row = clocks.data() + rep * num_ranks;
    double makespan = 0.0;
    for (std::size_t r = 0; r < num_ranks; ++r) {
      fold.per_rank_mean[r] += row[r];
      makespan = std::max(makespan, row[r]);
    }
    fold.makespans[rep] = makespan;
  }
  const double inv = 1.0 / static_cast<double>(reps);
  for (double& mean : fold.per_rank_mean) mean *= inv;
  fold.max_avg =
      *std::max_element(fold.per_rank_mean.begin(), fold.per_rank_mean.end());
  return fold;
}

MeasureResult measure(const CommPlan& plan, const Topology& topo,
                      const ParamSet& params, const MeasureOptions& options) {
  if (options.reps < 1) {
    throw std::invalid_argument("measure: reps must be >= 1");
  }
  if (options.jobs < 0) {
    throw std::invalid_argument("measure: jobs must be >= 0 (0 = hardware)");
  }

  MeasureResult result;
  result.summary = plan.summarize(topo);
  result.makespan_min = std::numeric_limits<double>::infinity();
  result.makespan_max = 0.0;

  int jobs = options.jobs == 0 ? runtime::hardware_jobs() : options.jobs;
  jobs = std::min(jobs, options.reps);

  const std::size_t num_ranks = static_cast<std::size_t>(topo.num_ranks());

  // Span tracing: resolve the trace id up front; an unsampled id turns the
  // local tracer pointer off entirely, so the hot path below stays on the
  // exact tracing-off code for skipped traces.
  obs::Tracer* tracer = options.tracer;
  std::uint64_t trace_id = options.trace_id;
  std::uint32_t trace_root = options.trace_parent;
  bool own_root = false;
  double root_t0 = 0.0;
  std::uint16_t n_compile = 0, n_block = 0, n_phase = 0;
  std::uint16_t k_block = 0, k_phase = 0, k_sim = 0;
  if (tracer != nullptr && trace_id == 0) trace_id = tracer->begin_trace();
  if (tracer != nullptr && !tracer->sampled(trace_id)) tracer = nullptr;
  if (tracer != nullptr) {
    n_compile = tracer->intern("measure.compile");
    n_block = tracer->intern("measure.block");
    n_phase = tracer->intern("engine.phase");
    k_block = tracer->intern("first_rep");
    k_phase = tracer->intern("phase");
    k_sim = tracer->intern("sim_ns");
    if (options.trace_parent == 0) {
      own_root = true;
      trace_root = tracer->new_span_id();
      root_t0 = tracer->now();
    }
  }

  // Compile the rep-invariant work once; the immutable CompiledPlan is
  // shared by const reference across every worker thread.  A caller-owned
  // precompiled plan (serve cache, stability ensemble) skips even that.
  std::optional<CompiledPlan> compiled_local;
  const CompiledPlan* compiled = nullptr;
  if (options.engine == ExecMode::Compiled) {
    if (options.precompiled != nullptr) {
      compiled = options.precompiled;
    } else {
      const obs::ScopedSpan compile_span(
          obs::TraceContext{tracer, 0, trace_id, trace_root, 0}, n_compile);
      compiled_local.emplace(plan, topo, params);
      compiled = &*compiled_local;
    }
  }

  // Per-repetition clocks in one flat reps x num_ranks buffer (a single
  // allocation instead of one per repetition), keyed by repetition so the
  // reduction below is independent of which worker ran which repetition.
  std::vector<double> rep_clocks(static_cast<std::size_t>(options.reps) *
                                 num_ranks);
  Trace last_trace;  // written only by the repetition reps-1

  // One reusable engine per worker, constructed lazily on first use.
  std::vector<std::unique_ptr<Engine>> engines(static_cast<std::size_t>(jobs));

  // Metrics plumbing (collect_metrics).  Each worker accumulates into its
  // own sink; phase-end clocks land in a flat reps x phases buffer keyed by
  // repetition, so aggregation below never depends on which worker ran
  // which repetition.
  const std::size_t num_phases = plan.phases.size();
  // Noise-dependent statistics (queue waits, copy/pack durations, phase-end
  // clocks) are sampled on repetitions where rep % sample_stride == 0 --
  // with the stride at `reps`, exactly repetition 0.  One profiled
  // repetition already pools hundreds of per-event wait samples at paper
  // scale, and every repetition that records pays for a full rank-clock
  // scan per phase, so bounding the sampled count is what holds the
  // enabled-mode overhead under the <2% budget (plan-invariant counters
  // record once; see Engine::set_metrics).  Keying the choice on the
  // repetition index alone keeps the aggregate identical at any jobs
  // count.
  const std::int64_t sample_stride = std::max<std::int64_t>(1, options.reps);
  const int sampled_reps = static_cast<int>(
      (options.reps + sample_stride - 1) / sample_stride);
  std::vector<obs::EngineMetrics> worker_metrics;
  std::vector<double> phase_ends;
  std::vector<std::int64_t> worker_rep_count;
  std::vector<double> worker_busy_seconds;
  if (options.collect_metrics) {
    worker_metrics.resize(static_cast<std::size_t>(jobs));
    phase_ends.assign(static_cast<std::size_t>(options.reps) * num_phases,
                      0.0);
    worker_rep_count.assign(static_cast<std::size_t>(jobs), 0);
    worker_busy_seconds.assign(static_cast<std::size_t>(jobs), 0.0);
  }

  // Tracing scratch.  The worker that runs repetition 0 is the only
  // writer of the lead_* / trace_phase_ends slots; they are read back
  // serially after the pool joins.  Without collect_metrics a throwaway
  // sink is attached to that one repetition so the engine still surfaces
  // its phase-end clocks.
  obs::EngineMetrics trace_sink;
  const bool want_trace_phases = tracer != nullptr && !options.collect_metrics;
  std::vector<double> trace_phase_ends;
  std::uint32_t lead_span = 0;
  int lead_ring = 0;
  double lead_t0 = 0.0;
  double lead_t1 = 0.0;

  const auto run_rep = [&](std::int64_t rep, int worker) {
    std::unique_ptr<Engine>& slot = engines[static_cast<std::size_t>(worker)];
    if (!slot) {
      slot = std::make_unique<Engine>(topo, params,
                                      NoiseModel(0, options.noise_sigma));
      if (options.fabric) slot->set_fabric(*options.fabric);
      if (options.faults) slot->set_faults(options.faults);
    }
    const double trace_t0 = tracer != nullptr ? tracer->now() : 0.0;
    if (want_trace_phases) {
      slot->set_metrics(rep == 0 ? &trace_sink : nullptr, false, rep == 0);
    }
    if (options.collect_metrics) {
      // Plan-invariant slots record on repetition 0 only (exactly once per
      // measure() call, whichever worker runs it); waits, copy/pack
      // durations, and phase-end clocks record on the sampled repetitions.
      // Steady-state repetitions detach the sink entirely, so they run the
      // exact metrics-off code path -- that is what keeps the enabled-mode
      // overhead inside the <2% budget.
      const bool invariant_rep = rep == 0;
      const bool sampled_rep = rep % sample_stride == 0;
      slot->set_metrics(
          invariant_rep || sampled_rep
              ? &worker_metrics[static_cast<std::size_t>(worker)]
              : nullptr,
          invariant_rep, sampled_rep);
    }
    Engine& engine = *slot;
    engine.reset(mix_seed(options.seed, static_cast<std::uint64_t>(rep)));
    const bool traced =
        options.trace_last_rep && rep == static_cast<std::int64_t>(options.reps) - 1;
    engine.set_tracing(traced);
    const auto rep_start = options.collect_metrics
                               ? std::chrono::steady_clock::now()
                               : std::chrono::steady_clock::time_point{};
    const std::span<double> clocks_out(
        rep_clocks.data() + static_cast<std::size_t>(rep) * num_ranks,
        num_ranks);
    if (compiled) {
      run_plan(engine, *compiled, clocks_out);
    } else {
      run_plan(engine, plan, clocks_out);
    }
    if (options.collect_metrics) {
      obs::EngineMetrics& sink = worker_metrics[static_cast<std::size_t>(worker)];
      // Move this repetition's phase-end clocks into the rep-keyed buffer;
      // every other sink slot keeps accumulating across repetitions.
      for (std::size_t p = 0; p < sink.phase_makespan.size(); ++p) {
        phase_ends[static_cast<std::size_t>(rep) * num_phases + p] =
            sink.phase_makespan[p];
      }
      sink.phase_makespan.clear();
      ++worker_rep_count[static_cast<std::size_t>(worker)];
      worker_busy_seconds[static_cast<std::size_t>(worker)] +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        rep_start)
              .count();
    }
    if (traced) {
      last_trace = engine.trace();
      engine.set_tracing(false);
    }
    if (tracer != nullptr) {
      const double trace_t1 = tracer->now();
      const obs::TraceAttr attr[] = {{k_block, false, rep}};
      const std::uint32_t span = tracer->record_span(
          worker, trace_id, trace_root, n_block,
          static_cast<std::uint16_t>(worker), trace_t0, trace_t1, attr);
      if (rep == 0) {
        lead_span = span;
        lead_ring = worker;
        lead_t0 = trace_t0;
        lead_t1 = trace_t1;
        if (want_trace_phases) {
          trace_phase_ends = trace_sink.phase_makespan;
          trace_sink.phase_makespan.clear();
        }
      }
    }
  };

  const auto start = std::chrono::steady_clock::now();
  // A FaultAbort is recorded against its repetition instead of failing the
  // pool, and the lowest aborting repetition's error -- the one a jobs=1
  // sweep reaches first -- is rethrown after the join, so the reported
  // abort is the same at any jobs count.  Repetitions above the lowest
  // abort seen so far are skipped: they can no longer change the outcome.
  std::mutex abort_mu;
  std::atomic<std::int64_t> abort_rep{options.reps};
  std::optional<FaultAbort> abort;
  runtime::ThreadPool pool(jobs);
  pool.parallel_for(
      options.reps,
      [&](std::int64_t rep, int worker) {
        try {
          run_rep(rep, worker);
        } catch (FaultAbort& e) {
          const std::lock_guard<std::mutex> lock(abort_mu);
          if (rep < abort_rep.load()) {
            abort_rep.store(rep);
            abort.emplace(std::move(e));
          }
        }
      },
      runtime::ThreadPool::TraceHook(), [&](std::int64_t rep) {
        return rep > abort_rep.load();
      });
  if (abort) {
    if (abort->strategy.empty()) {
      // Stamp the structured error with the plan it killed; everything else
      // (ranks, path class, attempt count) came from the engine.
      throw FaultAbort(abort->reason, plan.strategy_name, abort->src,
                       abort->dst, abort->path_id, abort->path,
                       abort->attempts);
    }
    throw std::move(*abort);
  }
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  result.reps_per_second =
      result.wall_seconds > 0.0 ? options.reps / result.wall_seconds : 0.0;

  // Repetition-0 engine phase spans, nested inside that repetition's
  // span.  The engine reports *simulated* phase-end clocks; the spans scale
  // them proportionally into the repetition's wall interval so the timeline
  // shows each phase's share of it, not wall truth.
  if (tracer != nullptr && lead_span != 0) {
    const double* ends = nullptr;
    std::size_t count = 0;
    if (want_trace_phases) {
      ends = trace_phase_ends.data();
      count = trace_phase_ends.size();
    } else if (options.collect_metrics && num_phases > 0) {
      ends = phase_ends.data();  // row 0 == repetition 0
      count = num_phases;
    }
    const double total = count > 0 ? ends[count - 1] : 0.0;
    if (total > 0.0) {
      const double scale = (lead_t1 - lead_t0) / total;
      double prev = 0.0;
      for (std::size_t p = 0; p < count; ++p) {
        const obs::TraceAttr attrs[] = {
            {k_phase, false, static_cast<std::int64_t>(p)},
            {k_sim, false, std::llround((ends[p] - prev) * 1e9)}};
        tracer->record_span(lead_ring, trace_id, lead_span, n_phase,
                            static_cast<std::uint16_t>(lead_ring),
                            lead_t0 + prev * scale, lead_t0 + ends[p] * scale,
                            attrs);
        prev = ends[p];
      }
    }
  }

  // Serial reduction in repetition order: bit-identical at any jobs count.
  RepFold fold = fold_repetitions(rep_clocks, num_ranks);
  for (const double makespan : fold.makespans) {
    result.makespan_mean += makespan;
    result.makespan_min = std::min(result.makespan_min, makespan);
    result.makespan_max = std::max(result.makespan_max, makespan);
  }
  result.makespan_mean *= 1.0 / options.reps;
  result.per_rank_mean = std::move(fold.per_rank_mean);
  result.max_avg = fold.max_avg;
  result.trace = std::move(last_trace);

  if (options.collect_metrics) {
    // Counter merges are commutative integer adds and histogram merges are
    // commutative bin adds, so folding per-worker sinks in worker order
    // yields the same aggregate however repetitions were partitioned.
    obs::EngineMetrics aggregate;
    for (const obs::EngineMetrics& wm : worker_metrics) aggregate.merge(wm);

    obs::RunReport report;
    report.engine = to_string(options.engine);
    report.reps = options.reps;
    report.jobs = jobs;
    report.seed = options.seed;
    report.noise_sigma = options.noise_sigma;
    report.ranks = topo.num_ranks();
    report.nodes = topo.num_nodes();
    report.makespan = obs::summarize(fold.makespans);
    report.max_avg = result.max_avg;
    report.wall_seconds = result.wall_seconds;
    report.reps_per_second = result.reps_per_second;

    // Per-phase makespan contributions: delta between consecutive phase-end
    // clocks within each sampled repetition, summarized across the sampled
    // repetitions (phase-end clocks ride the sampled tier).
    std::vector<double> deltas(static_cast<std::size_t>(sampled_reps));
    double share_total = 0.0;
    for (std::size_t p = 0; p < num_phases; ++p) {
      for (int s = 0; s < sampled_reps; ++s) {
        const std::int64_t rep = static_cast<std::int64_t>(s) * sample_stride;
        const std::size_t base =
            static_cast<std::size_t>(rep) * num_phases;
        const double prev = p == 0 ? 0.0 : phase_ends[base + p - 1];
        deltas[static_cast<std::size_t>(s)] = phase_ends[base + p] - prev;
      }
      obs::PhaseStat stat;
      stat.phase = static_cast<int>(p);
      stat.makespan = obs::summarize(deltas);
      report.phases.push_back(std::move(stat));
      share_total += report.phases.back().makespan.mean;
    }
    if (share_total > 0.0) {
      for (obs::PhaseStat& stat : report.phases) {
        stat.share = stat.makespan.mean / share_total;
      }
    }

    obs::fill_from_engine_metrics(report, aggregate, options.reps,
                                  /*invariant_reps=*/1, sampled_reps);
    report.sampled_reps = sampled_reps;
    for (int w = 0; w < jobs; ++w) {
      if (worker_rep_count[static_cast<std::size_t>(w)] == 0) continue;
      report.workers.push_back(
          {w, worker_rep_count[static_cast<std::size_t>(w)],
           worker_busy_seconds[static_cast<std::size_t>(w)]});
    }
    result.metrics = std::move(report);
  }

  if (tracer != nullptr && own_root) {
    const obs::TraceAttr attrs[] = {
        {tracer->intern("reps"), false, options.reps},
        {tracer->intern("jobs"), false, jobs}};
    tracer->record_span(0, trace_id, 0, tracer->intern("measure"), 0, root_t0,
                        tracer->now(), attrs, trace_root);
  }
  return result;
}

}  // namespace hetcomm::core
