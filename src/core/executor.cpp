#include "core/executor.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <initializer_list>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>

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

namespace {

using Clock = std::chrono::steady_clock;

/// A job's state while its repetitions run.
struct LiveJob {
  std::once_flag allocated;
  std::vector<double> clocks;  ///< reps x ranks, first claim to fold
  std::atomic<int> stop{0};  ///< the lowest failed repetition, or reps
  /// Repetitions not yet run or skipped, on its own cache line.
  alignas(64) std::atomic<int> pending{0};
};

/// Repetition 0's engine observations as children of its block span
/// `span`, [t0, t1] on `worker`: the sink's phase ends as `engine.phase`
/// spans, and the engine's trace as `engine.msg` / `engine.copy` spans on
/// engine-rank tracks.  Simulated times are scaled into [t0, t1], so the
/// timeline shows each part's share of the repetition.
void record_rep0(obs::Tracer& tracer, std::uint64_t trace_id,
                 std::uint32_t span, int worker, double t0, double t1,
                 const obs::EngineMetrics* sink, const Trace* events) {
  const auto record = [&](std::uint16_t name, int track, double scale,
                          double a, double b,
                          std::initializer_list<obs::TraceAttr> attrs) {
    tracer.record_span(worker, trace_id, span, name,
                       static_cast<std::uint16_t>(track), t0 + a * scale,
                       t0 + b * scale, {attrs.begin(), attrs.size()});
  };
  if (sink != nullptr && !sink->phase_makespan.empty() &&
      sink->phase_makespan.back() > 0.0) {
    const std::vector<double>& ends = sink->phase_makespan;
    const std::uint16_t name = tracer.intern("engine.phase");
    const std::uint16_t k_phase = tracer.intern("phase");
    const std::uint16_t k_sim = tracer.intern("sim_ns");
    for (std::size_t p = 0; p < ends.size(); ++p) {
      const double prev = p == 0 ? 0.0 : ends[p - 1];
      record(name, worker, (t1 - t0) / ends.back(), prev, ends[p],
             {{k_phase, false, static_cast<std::int64_t>(p)},
              {k_sim, false, std::llround((ends[p] - prev) * 1e9)}});
    }
  }
  if (events == nullptr) return;
  double sim_total = 0.0;
  for (const MessageTrace& m : events->messages) {
    sim_total = std::max(sim_total, m.completion);
  }
  for (const CopyTrace& c : events->copies) {
    sim_total = std::max(sim_total, c.completion);
  }
  if (sim_total <= 0.0 || t1 <= t0) return;
  std::size_t budget = 256;  // bound the conversion cost
  const auto emit = [&](int rank, std::uint16_t name, double a, double b,
                        std::initializer_list<obs::TraceAttr> attrs) {
    const int track = static_cast<int>(obs::kEngineTrackBase) + rank;
    if (budget == 0 || rank < 0 || track > 0xffff) return;
    --budget;
    tracer.name_track(static_cast<std::uint16_t>(track),
                      "engine rank " + std::to_string(rank));
    record(name, track, (t1 - t0) / sim_total, a, b, attrs);
  };
  const std::uint16_t k_bytes = tracer.intern("bytes");
  const std::uint16_t msg = tracer.intern("engine.msg");
  const std::uint16_t k_src = tracer.intern("src");
  const std::uint16_t k_dst = tracer.intern("dst");
  const std::uint16_t k_path = tracer.intern("path");
  for (const MessageTrace& m : events->messages) {
    emit(m.src, msg, m.start, m.completion,
         {{k_src, false, m.src}, {k_dst, false, m.dst},
          {k_bytes, false, m.bytes},
          {k_path, false, static_cast<std::int64_t>(m.path)}});
  }
  const std::uint16_t copy = tracer.intern("engine.copy");
  const std::uint16_t k_rank = tracer.intern("rank");
  const std::uint16_t k_gpu = tracer.intern("gpu");
  const std::uint16_t k_dir = tracer.intern("dir");
  for (const CopyTrace& c : events->copies) {
    emit(c.rank, copy, c.start, c.completion,
         {{k_rank, false, c.rank}, {k_gpu, false, c.gpu},
          {k_bytes, false, c.bytes},
          {k_dir, false, static_cast<std::int64_t>(c.dir)}});
  }
}

}  // namespace

RepBatch RepRunner::run(std::span<const RepJob> jobs,
                        runtime::ThreadPool& pool, const BatchTrace& trace) {
  const auto workers = static_cast<std::size_t>(pool.num_threads());
  if (engines_.size() < workers) engines_.resize(workers);
  RepBatch batch;
  batch.jobs.resize(jobs.size());
  batch.workers.resize(workers);
  // Task t is repetition t - first[k] of the last job k with first[k] <= t.
  std::vector<std::int64_t> first(jobs.size());
  std::vector<LiveJob> live(jobs.size());
  std::int64_t tasks = 0;
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    if (jobs[k].reps < 1) {
      throw std::invalid_argument("RepRunner: a job needs reps >= 1");
    }
    first[k] = tasks;
    tasks += jobs[k].reps;
    live[k].stop.store(jobs[k].reps);
    live[k].pending.store(jobs[k].reps);
  }
  obs::Tracer* const tracer = trace.tracer;
  const bool timed = trace.timed || tracer != nullptr;
  const bool spans = tracer != nullptr && trace.trace_id != 0;
  const std::uint16_t n_block = spans ? tracer->intern(trace.block) : 0;
  const std::uint16_t k_rep = spans ? tracer->intern("first_rep") : 0;
  const std::uint16_t k_job = spans ? tracer->intern(trace.job_key) : 0;

  // `mu` guards the outcomes.  A job keeps only its lowest failure, the
  // repetition a serial loop stops at, so it is the same at any pool size.
  std::mutex mu;
  const auto fail = [&](std::size_t k, int rep, std::exception_ptr error) {
    if (rep >= live[k].stop.load()) return;
    live[k].stop.store(rep);
    batch.jobs[k].failed_rep = rep;
    batch.jobs[k].error = std::move(error);
  };
  // A job's last repetition to finish, run or skipped, folds its clocks in
  // repetition order and frees them.
  const auto finish = [&](std::size_t k) {
    LiveJob& job = live[k];
    if (job.pending.fetch_sub(1) != 1) return;
    if (job.stop.load() == jobs[k].reps) {
      batch.jobs[k].fold = fold_repetitions(
          job.clocks, static_cast<std::size_t>(jobs[k].topo->num_ranks()));
    }
    std::vector<double>().swap(job.clocks);
  };
  const auto run_rep = [&](std::int64_t t, int worker) {
    const auto k = static_cast<std::size_t>(
        std::upper_bound(first.begin(), first.end(), t) - first.begin() - 1);
    const RepJob& job = jobs[k];
    const int rep = static_cast<int>(t - first[k]);
    // Skip a repetition above a failure; fail one claimed past the deadline.
    const bool above = rep > live[k].stop.load();
    if (above || (job.deadline && Clock::now() >= *job.deadline)) {
      if (!above) {
        const std::lock_guard<std::mutex> lock(mu);
        fail(k, rep, nullptr);
      }
      finish(k);
      return;
    }
    const auto ranks = static_cast<std::size_t>(job.topo->num_ranks());
    // A clock read costs tens of ns, a repetition a few µs: read only
    // when the batch is timed.
    const auto start = timed ? Clock::now() : Clock::time_point{};
    const double t0 = tracer != nullptr ? tracer->now() : 0.0;
    std::unique_ptr<Engine>& engine =
        engines_[static_cast<std::size_t>(worker)][job.engine_key];
    std::exception_ptr error;
    try {
      if (!engine) {
        engine = std::make_unique<Engine>(*job.topo, *job.params,
                                          NoiseModel(0, job.noise_sigma));
        if (job.fabric != nullptr) engine->set_fabric(*job.fabric);
      }
      std::call_once(live[k].allocated, [&] {
        live[k].clocks.resize(static_cast<std::size_t>(job.reps) * ranks);
      });
      if (engine->faults() != job.faults) engine->set_faults(job.faults);
      engine->set_metrics(rep == 0 ? job.rep0_metrics : nullptr);
      engine->set_tracing(spans && rep == 0 && job.trace_rep0);
      engine->reset(mix_seed(job.seed, static_cast<std::uint64_t>(rep)));
      const std::span<double> out(
          live[k].clocks.data() + static_cast<std::size_t>(rep) * ranks,
          ranks);
      if (job.compiled != nullptr) {
        run_plan(*engine, *job.compiled, out);
      } else {
        run_plan(*engine, *job.plan, out);
      }
    } catch (...) {
      error = std::current_exception();
    }
    const double seconds =
        timed ? std::chrono::duration<double>(Clock::now() - start).count()
              : 0.0;
    const double t1 = tracer != nullptr ? tracer->now() : 0.0;
    if (spans) {
      const obs::TraceAttr attrs[] = {{k_rep, false, rep},
                                      {k_job, false, job.tag}};
      const std::uint32_t span = tracer->record_span(
          worker, trace.trace_id, trace.parent, n_block,
          static_cast<std::uint16_t>(worker), t0, t1, attrs);
      if (rep == 0 && !error) {
        record_rep0(*tracer, trace.trace_id, span, worker, t0, t1,
                    job.rep0_metrics,
                    job.trace_rep0 ? &engine->trace() : nullptr);
      }
    }
    if (error || timed) {
      const std::lock_guard<std::mutex> lock(mu);
      if (error) fail(k, rep, error);
      RepOutcome& out = batch.jobs[k];
      out.trace_t0 = out.reps_run == 0 ? t0 : std::min(out.trace_t0, t0);
      out.trace_t1 = std::max(out.trace_t1, t1);
      out.reps_run += 1;
      out.busy_seconds += seconds;
      obs::WorkerStat& load = batch.workers[static_cast<std::size_t>(worker)];
      load.worker = worker;
      load.reps += 1;
      load.busy_seconds += seconds;
    }
    finish(k);
  };

  pool.parallel_for(tasks, run_rep,
                    runtime::ThreadPool::TraceHook(
                        trace.pool_spans && spans ? tracer : nullptr,
                        trace.trace_id, trace.parent));
  return batch;
}

RepJob measure_job(const CommPlan& plan, const CompiledPlan* compiled,
                   const Topology& topo, const ParamSet& params,
                   const MeasureOptions& options) {
  RepJob job;
  job.compiled = compiled;
  job.plan = &plan;
  job.topo = &topo;
  job.params = &params;
  job.reps = options.reps;
  job.seed = options.seed;
  job.noise_sigma = options.noise_sigma;
  job.fabric = options.fabric ? &*options.fabric : nullptr;
  job.faults = options.faults;
  return job;
}

void rethrow(const RepOutcome& outcome, const std::string& strategy) {
  if (!outcome.error) throw std::runtime_error("deadline exceeded");
  try {
    std::rethrow_exception(outcome.error);
  } catch (const FaultAbort& e) {
    if (!e.strategy.empty()) throw;
    // Stamp the structured error with the plan it killed; everything else
    // (ranks, path class, attempt count) came from the engine.
    throw FaultAbort(e.reason, strategy, e.src, e.dst, e.path_id, e.path,
                     e.attempts);
  }
}

MeasureTrace::MeasureTrace(const MeasureOptions& options)
    : BatchTrace{options.tracer, options.trace_id, options.trace_parent} {
  timed = options.collect_metrics;
  if (tracer != nullptr && trace_id == 0) trace_id = tracer->begin_trace();
  if (tracer != nullptr && !tracer->sampled(trace_id)) tracer = nullptr;
  if (tracer != nullptr && parent == 0) {
    own_root = true;
    parent = tracer->new_span_id();
    t0 = tracer->now();
  }
}

void MeasureTrace::close(int reps, int jobs) const {
  if (!own_root) return;
  const obs::TraceAttr attrs[] = {{tracer->intern("reps"), false, reps},
                                  {tracer->intern("jobs"), false, jobs}};
  tracer->record_span(0, trace_id, 0, tracer->intern("measure"), 0, t0,
                      tracer->now(), attrs, parent);
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
  const MeasureTrace trace(options);

  // Compile the rep-invariant work once; the immutable CompiledPlan is
  // shared by const reference across every worker thread.  A caller-owned
  // precompiled plan skips even that.
  std::optional<CompiledPlan> compiled_local;
  const CompiledPlan* compiled = options.precompiled;
  if (options.engine == ExecMode::Interpreted) {
    compiled = nullptr;
  } else if (compiled == nullptr) {
    const obs::ScopedSpan compile_span(
        obs::TraceContext{trace.tracer, 0, trace.trace_id, trace.parent, 0},
        trace.tracer != nullptr ? trace.tracer->intern("measure.compile") : 0);
    compiled = &compiled_local.emplace(plan, topo, params);
  }

  // Repetition 0 alone records into `sink` (metrics, and the phase ends
  // behind engine.phase spans), so the report is the same at any jobs.
  obs::EngineMetrics sink;
  RepJob job = measure_job(plan, compiled, topo, params, options);
  job.rep0_metrics =
      options.collect_metrics || trace.tracer != nullptr ? &sink : nullptr;
  runtime::ThreadPool pool(jobs);
  const auto start = Clock::now();
  RepBatch batch = RepRunner().run({&job, 1}, pool, trace);
  RepOutcome& outcome = batch.jobs.front();
  if (outcome.failed()) rethrow(outcome, plan.strategy_name);
  result.wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  result.reps_per_second =
      result.wall_seconds > 0.0 ? options.reps / result.wall_seconds : 0.0;

  RepFold& fold = outcome.fold;
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
    for (const obs::WorkerStat& w : batch.workers) {
      if (w.reps > 0) report.workers.push_back(w);
    }
    result.metrics = std::move(report);
  }

  trace.close(options.reps, jobs);
  return result;
}

}  // namespace hetcomm::core
