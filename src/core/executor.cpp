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

void post_phase(Engine& engine, const PlanPhase& phase,
                std::vector<int>& send_req) {
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
}

void run_plan(Engine& engine, const CommPlan& plan,
              std::span<double> clocks_out) {
  check_clock_span(engine, clocks_out);
  std::vector<int> send_req;  // phase-local op index -> isend request id
  for (const PlanPhase& phase : plan.phases) {
    post_phase(engine, phase, send_req);
    if (engine.has_pending()) engine.resolve();
    // One phase-end clock per phase, matching Engine::execute.
    if (engine.metrics() != nullptr) {
      engine.metrics()->on_phase_end(engine.max_clock());
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
  fold.makespans.resize(reps);
  fold.makespan_min = std::numeric_limits<double>::infinity();
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const double* row = clocks.data() + rep * num_ranks;
    for (std::size_t r = 0; r < num_ranks; ++r) {
      fold.per_rank_mean[r] += row[r];
    }
    const double makespan = max_nonnegative(row, num_ranks);
    fold.makespans[rep] = makespan;
    fold.makespan_mean += makespan;
    fold.makespan_min = std::min(fold.makespan_min, makespan);
    fold.makespan_max = std::max(fold.makespan_max, makespan);
  }
  const double inv = 1.0 / static_cast<double>(reps);
  for (double& mean : fold.per_rank_mean) mean *= inv;
  fold.makespan_mean *= inv;
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

  // One reusable engine per worker, constructed lazily on first use.
  std::vector<std::unique_ptr<Engine>> engines(static_cast<std::size_t>(jobs));

  // Repetition 0 alone records into `sink` (metrics, and the phase-end
  // clocks behind the engine.phase spans); every other repetition runs
  // with no sink, so it takes the engine's hook-free path.  Whichever
  // worker runs repetition 0 is the sink's only writer, and it is read
  // after the pool joins, so the report is the same at any jobs count.
  const bool observe_rep0 = options.collect_metrics || tracer != nullptr;
  obs::EngineMetrics sink;
  std::vector<std::int64_t> worker_rep_count;
  std::vector<double> worker_busy_seconds;
  if (options.collect_metrics) {
    worker_rep_count.assign(static_cast<std::size_t>(jobs), 0);
    worker_busy_seconds.assign(static_cast<std::size_t>(jobs), 0.0);
  }

  // Tracing scratch, written only by the worker that runs repetition 0
  // and read back serially after the pool joins.
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
    if (observe_rep0) slot->set_metrics(rep == 0 ? &sink : nullptr);
    Engine& engine = *slot;
    engine.reset(mix_seed(options.seed, static_cast<std::uint64_t>(rep)));
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
      ++worker_rep_count[static_cast<std::size_t>(worker)];
      worker_busy_seconds[static_cast<std::size_t>(worker)] +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        rep_start)
              .count();
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
  const std::vector<double>& ends = sink.phase_makespan;
  if (tracer != nullptr && lead_span != 0 && !ends.empty() &&
      ends.back() > 0.0) {
    const double scale = (lead_t1 - lead_t0) / ends.back();
    double prev = 0.0;
    for (std::size_t p = 0; p < ends.size(); ++p) {
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

  // Serial reduction in repetition order: bit-identical at any jobs count.
  RepFold fold = fold_repetitions(rep_clocks, num_ranks);
  result.makespan_mean = fold.makespan_mean;
  result.makespan_min = fold.makespan_min;
  result.makespan_max = fold.makespan_max;
  result.per_rank_mean = std::move(fold.per_rank_mean);
  result.max_avg = fold.max_avg;

  if (options.collect_metrics) {
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

    obs::fill_from_engine_metrics(report, sink);
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
