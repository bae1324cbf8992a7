#include "serve/service.hpp"

#include <algorithm>
#include <istream>
#include <memory>
#include <ostream>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/advisor.hpp"
#include "core/compiled_plan.hpp"
#include "core/comm_pattern.hpp"
#include "core/executor.hpp"
#include "core/pattern_io.hpp"
#include "core/plan.hpp"
#include "core/strategy.hpp"
#include "fault/fault_json.hpp"
#include "fault/plan.hpp"
#include "hetsim/faults.hpp"
#include "hetsim/noise.hpp"
#include "machine/machine_json.hpp"
#include "obs/run_report.hpp"
#include "obs/trace.hpp"
#include "runtime/plan_cache.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/intake.hpp"
#include "serve/protocol.hpp"

#ifdef __unix__
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

namespace hetcomm::serve {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

std::uint64_t fnv1a_bytes(std::string_view text,
                          std::uint64_t h = kFnvOffset) noexcept {
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  return h;
}

/// Pattern registry entries (patterns addressable by {"ref": hash}), and
/// resolved {"random": ...} specs.  Only the serial resolve phase touches
/// either cache, so each is one LRU: shards would buy no concurrency, and a
/// shard that drew more than its share of the keys would thrash.
constexpr std::size_t kPatternCapacity = 1024;

bool blank(const std::string& line) {
  return line.find_first_not_of(" \t\r") == std::string::npos;
}

}  // namespace

struct Service::Impl {
  explicit Impl(ServiceOptions opts)
      : options(std::move(opts)),
        pool(options.jobs),
        plans(options.cache_shards, options.cache_capacity),
        patterns(1, kPatternCapacity),
        sources(1, kPatternCapacity) {
    if (options.window < 1) {
      throw std::invalid_argument("serve: window must be >= 1");
    }
    if (options.trace) {
      obs::Tracer::Options topts;
      topts.rings = pool.num_threads();
      topts.ring_capacity = std::max<std::size_t>(1, options.trace_ring_capacity);
      topts.sample_period = std::max<std::uint64_t>(1, options.trace_sample);
      tracer = std::make_unique<obs::Tracer>(topts);
      for (int w = 0; w < pool.num_threads(); ++w) {
        tracer->name_track(static_cast<std::uint16_t>(w),
                           "serve worker " + std::to_string(w));
      }
      tn.request = tracer->intern("request");
      tn.parse = tracer->intern("parse");
      tn.queue_wait = tracer->intern("queue_wait");
      tn.execute = tracer->intern("execute");
      tn.error = tracer->intern("request.error");
      tn.shed = tracer->intern("request.shed");
      tn.degraded = tracer->intern("request.degraded");
      tn.deadline = tracer->intern("request.deadline");
      tn.window = tracer->intern("window");
      tn.render = tracer->intern("window.render");
      tn.k_pattern = tracer->intern("pattern");
      tn.k_machine = tracer->intern("machine");
      tn.k_strategy = tracer->intern("strategy");
      tn.k_cache = tracer->intern("cache");
      tn.k_hit = tracer->intern("hit");
      tn.k_miss = tracer->intern("miss");
      tn.k_reps = tracer->intern("reps");
      tn.k_nodes = tracer->intern("nodes");
      tn.k_error = tracer->intern("error");
      tn.k_requests = tracer->intern("requests");
    }
  }

  ServiceOptions options;
  runtime::ThreadPool pool;
  /// Compiled plans keyed by mix_seed(pattern, machine, nodes, strategy):
  /// everything a repeated query needs that does not depend on reps/seed.
  runtime::ShardedLruCache<core::CompiledPlan> plans;
  runtime::ShardedLruCache<core::CommPattern> patterns;
  /// What a {"random": ...} spec resolves to on one (machine, nodes): its
  /// pattern's hash and the statistics the advisor ranks from.  The
  /// pattern itself lives only in the registry, which may evict it first;
  /// the spec regenerates it then.
  struct ResolvedSpec {
    std::uint64_t pattern_fp = 0;
    core::PatternStats stats;
  };
  /// Keyed by mix_seed over (engine_key, msgs_per_gpu, bytes, seed).
  runtime::ShardedLruCache<ResolvedSpec> sources;

  // Serial-phase caches (touched only by the window-driving thread).
  std::unordered_map<std::string, MachineEntry> machines;
  /// By engine_key: the (machine, nodes) topology and the advisor that
  /// ranks on it.
  std::unordered_map<std::uint64_t, core::Advisor> advisors;
  std::unordered_map<std::string, std::shared_ptr<const FaultModel>> faults;

  /// One reusable Engine per pool worker per engine_key (machine, nodes).
  core::RepRunner runner;

  bool shutdown = false;

  // -- tracing -----------------------------------------------------------
  /// Null = tracing off; every site below is a single pointer test.
  std::unique_ptr<obs::Tracer> tracer;
  /// Name/attr-key slots interned once at construction, so the hot path
  /// never touches the intern table.
  struct TraceNames {
    std::uint16_t request = 0, parse = 0, queue_wait = 0, execute = 0,
                  error = 0, shed = 0, degraded = 0, deadline = 0, window = 0,
                  render = 0;
    std::uint16_t k_pattern = 0, k_machine = 0, k_strategy = 0, k_cache = 0,
                  k_hit = 0, k_miss = 0, k_reps = 0, k_nodes = 0, k_error = 0,
                  k_requests = 0;
  } tn;

  // -- accounting (window-driving thread only) ---------------------------
  std::int64_t requests_total = 0;
  std::int64_t control_requests = 0;
  std::int64_t errors = 0;
  std::int64_t errors_by_code[kNumErrorCodes] = {};
  std::int64_t predict_only = 0;
  std::int64_t degraded_requests = 0;
  std::int64_t shed_overloaded = 0;  ///< lines admitted over the queue bound
  std::int64_t shed_shutdown = 0;    ///< lines shed by the shutdown drain
  std::int64_t deadline_partials = 0;
  std::int64_t cancelled_requests = 0;  ///< deadline hit mid-execution
  std::int64_t queue_depth = 0;       ///< pending depth behind this window
  std::int64_t queue_depth_peak = 0;
  /// EWMA of requests retired per busy second, the denominator behind
  /// every retry_after_ms hint.  0 until the first window completes.
  double drain_rate_rps = 0.0;
  std::int64_t measured_requests = 0;
  std::int64_t measured_cache_hits = 0;
  std::int64_t windows = 0;
  std::int64_t window_max = 0;
  double compile_seconds_total = 0.0;
  double execute_seconds_total = 0.0;
  double busy_seconds = 0.0;
  // Fixed memory however long the server runs.
  obs::LogLinearHistogram latency_summary;
  obs::LogLinearHistogram queue_summary;
  obs::LogLinearHistogram compile_summary;
  obs::LogLinearHistogram execute_summary;

  void note_queue_depth(std::size_t depth) {
    queue_depth = static_cast<std::int64_t>(depth);
    queue_depth_peak = std::max(queue_depth_peak, queue_depth);
  }

  /// Backoff hint for overloaded / deadline_exceeded / shutting_down
  /// replies: the time the observed drain rate needs to clear the queue
  /// standing behind this window, clamped to [1ms, 60s].  Before the first
  /// window completes there is no rate yet; assume a fast server (1ms/req)
  /// rather than telling the first-ever shed client to stay away a minute.
  [[nodiscard]] std::int64_t retry_after_ms() const {
    const double rate = drain_rate_rps > 0.0 ? drain_rate_rps : 1000.0;
    const double ms =
        (static_cast<double>(queue_depth) + 1.0) / rate * 1000.0;
    return std::clamp<std::int64_t>(static_cast<std::int64_t>(ms) + 1,
                                    1, 60000);
  }

  const MachineEntry& resolve_machine(const std::string& arg) {
    auto it = machines.find(arg);
    if (it != machines.end()) return it->second;
    MachineEntry entry;
    entry.model = machine::resolve_machine(arg);
    entry.fingerprint =
        fnv1a_bytes(machine::to_json(entry.model).dump_string(0));
    return machines.emplace(arg, std::move(entry)).first->second;
  }

  const core::Advisor& advisor_for(const Request& req) {
    auto it = advisors.find(req.engine_key);
    if (it != advisors.end()) return it->second;
    return advisors
        .try_emplace(req.engine_key, req.machine->model.topology(req.nodes),
                     req.machine->model.params)
        .first->second;
  }

  // ---------------------------------------------------------------------
  // Phase A: resolve a parsed data request (serial).
  // ---------------------------------------------------------------------

  void resolve(Request& req) {
    req.machine = &resolve_machine(req.machine_name);
    req.engine_key =
        mix_seed(req.machine->fingerprint,
                 static_cast<std::uint64_t>(req.nodes));
    const core::Advisor& advisor = advisor_for(req);
    const Topology& topo = advisor.topology();
    const std::shared_ptr<const ResolvedSpec> spec = resolve_pattern(req, topo);

    if (req.faults_path) {
      // Fault models compile against a concrete machine; key the cache by
      // (path, machine, nodes).  The file is read once per key -- edits to
      // a fault file are not observed by a running server.
      const std::string key =
          *req.faults_path + "\x1f" + hash_hex(req.engine_key);
      auto it = faults.find(key);
      if (it == faults.end()) {
        const fault::FaultPlan plan = fault::load_fault_file(*req.faults_path);
        auto model = std::make_shared<FaultModel>(
            plan.compile(topo, req.machine->model.params));
        it = faults.emplace(key, std::move(model)).first;
      }
      req.faults = it->second;
    }

    // Model ranking: same Advisor call the `advise` subcommand makes, so a
    // serve response ranks bit-identically to one-shot `hetcomm advise`.
    // A request with an explicit strategy and "rank": false skips the sweep
    // -- the advisor's O(strategies) predictions are pure response garnish
    // once the client has picked its strategy.
    if (req.want_ranking || !req.has_strategy) {
      core::AdvisorOptions aopts;
      aopts.staged_only = req.staged_only;
      req.ranking = spec != nullptr ? advisor.rank(spec->stats, aopts)
                                    : advisor.rank(*req.pattern, aopts);
      if (!req.has_strategy) req.strategy = req.ranking.front().config;
    }

    req.plan_key = mix_seed(
        mix_seed(req.pattern_fp, req.engine_key),
        fnv1a_bytes(req.strategy.name()));

    if (req.degraded) {
      // The degraded answer is the model ranking; its confidence is the
      // model's top-2 separation -- 0 when the two best strategies predict
      // identically (a coin toss), approaching 1 when the winner is far
      // ahead.  Deterministic, so clients (and the chaos harness) can
      // gate on it.
      if (req.ranking.size() >= 2) {
        const double p1 = req.ranking[0].predicted_seconds;
        const double p2 = req.ranking[1].predicted_seconds;
        req.confidence =
            p2 > 0.0 ? std::clamp((p2 - p1) / p2, 0.0, 1.0) : 0.0;
      } else {
        req.confidence = 1.0;  // only one candidate: nothing to confuse
      }
      // Cache peek (no compile, no engine): tells the client whether the
      // full answer would have been hot had the server not been shedding.
      req.plan_cached = plans.find(req.plan_key) != nullptr;
    }
  }

  /// Sets req.pattern and req.pattern_fp; for a {"random": ...} spec also
  /// returns its resolved entry (null for every other source).
  std::shared_ptr<const ResolvedSpec> resolve_pattern(Request& req,
                                                      const Topology& topo) {
    PatternSource& src = req.source;
    switch (src.kind) {
      case PatternSource::Kind::File:
        register_pattern(core::read_pattern_file(src.path), topo, req);
        return nullptr;
      case PatternSource::Kind::Ref: {
        std::shared_ptr<const core::CommPattern> found = patterns.find(src.ref);
        if (found == nullptr) {
          throw std::invalid_argument("unknown pattern ref " +
                                      hash_hex(src.ref) +
                                      " (the server has not seen it)");
        }
        check_pattern(*found, topo, "pattern ref");
        req.pattern = std::move(found);
        req.pattern_fp = src.ref;
        return nullptr;
      }
      case PatternSource::Kind::Random:
        return resolve_random(req, topo);
      case PatternSource::Kind::Inline:
        register_pattern(std::move(*src.pattern), topo, req);
        return nullptr;
    }
    return nullptr;
  }

  /// A spec seen before on this (machine, nodes) skips generating, hashing
  /// and summarizing its pattern: the registry hands the pattern back, or
  /// the spec regenerates it if the registry evicted it.  A new spec
  /// generates, checks and registers its pattern like any other source.
  std::shared_ptr<const ResolvedSpec> resolve_random(Request& req,
                                                     const Topology& topo) {
    const PatternSource& src = req.source;
    const std::int64_t messages =
        std::int64_t{topo.num_gpus()} * src.msgs_per_gpu;
    if (messages > kMaxPatternSize) {
      throw std::invalid_argument(
          "random pattern would generate " + std::to_string(messages) +
          " messages (gpus x msgs_per_gpu); the limit is " +
          std::to_string(kMaxPatternSize));
    }
    const auto generate = [&] {
      return core::random_pattern(topo, src.msgs_per_gpu, src.bytes, src.seed);
    };
    const std::uint64_t key = mix_seed(
        mix_seed(mix_seed(req.engine_key,
                          static_cast<std::uint64_t>(src.msgs_per_gpu)),
                 static_cast<std::uint64_t>(src.bytes)),
        src.seed);
    std::shared_ptr<const ResolvedSpec> spec = sources.get_or_create(key, [&] {
      register_pattern(generate(), topo, req);
      return std::make_shared<const ResolvedSpec>(ResolvedSpec{
          req.pattern_fp, core::compute_stats(*req.pattern, topo)});
    });
    if (req.pattern == nullptr) {  // a hit: the lambda above did not run
      req.pattern_fp = spec->pattern_fp;
      req.pattern = patterns.get_or_create(req.pattern_fp, [&] {
        return std::make_shared<const core::CommPattern>(generate());
      });
    }
    return spec;
  }

  /// Where a pattern meets the request's machine: its GPU count must match
  /// and its dedup annotations must fit the machine's nodes and payloads.
  static void check_pattern(const core::CommPattern& pattern,
                            const Topology& topo, const char* what) {
    if (pattern.num_gpus() != topo.num_gpus()) {
      throw std::invalid_argument(std::string(what) + " GPU count (" +
                                  std::to_string(pattern.num_gpus()) +
                                  ") does not match the machine (" +
                                  std::to_string(topo.num_gpus()) + ")");
    }
    core::check_dedup(pattern, topo);
  }

  void register_pattern(core::CommPattern pattern, const Topology& topo,
                        Request& req) {
    check_pattern(pattern, topo, "pattern");
    req.pattern_fp = core::pattern_hash(pattern);
    // Park the pattern in the registry so later requests can say
    // {"ref": "<hash>"} and skip re-sending (and re-parsing) the body.
    req.pattern = patterns.get_or_create(req.pattern_fp, [&] {
      return std::make_shared<const core::CommPattern>(std::move(pattern));
    });
  }

  // ---------------------------------------------------------------------
  // Phases B+C: compile unique plans, then run one repetition batch.
  // ---------------------------------------------------------------------

  /// A request that reaches the engine: valid, measured, not shed.
  static bool measured(const Request& req) {
    return !req.control && req.error.empty() && req.reps > 0 &&
           !req.degraded;
  }

  void execute_window(std::vector<Request>& reqs, std::uint64_t wtrace,
                      std::uint32_t wspan) {
    // Unique plan keys of this window's measured requests: one cache
    // lookup per distinct key, so N identical queries arriving together
    // cost one compile even on a cold cache.
    std::unordered_map<std::uint64_t, std::size_t> first;  // key -> request
    std::vector<std::size_t> unique;  // representative request indices
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      if (!measured(reqs[i])) continue;
      if (first.emplace(reqs[i].plan_key, i).second) unique.push_back(i);
    }

    // Queue/run spans for both fan-outs land in the *window* trace; the
    // compile (cache.lookup / cache.build) spans land in the requesting
    // request's trace, on the worker that ran the lookup.
    const runtime::ThreadPool::TraceHook whook(
        wtrace != 0 ? tracer.get() : nullptr, wtrace, wspan);

    pool.parallel_for(
        static_cast<std::int64_t>(unique.size()),
        [&](std::int64_t u, int worker) {
          Request& req = reqs[unique[static_cast<std::size_t>(u)]];
          const obs::TraceContext ctx{
              req.trace_id != 0 ? tracer.get() : nullptr, worker,
              req.trace_id, req.trace_root,
              static_cast<std::uint16_t>(worker)};
          try {
            req.plan = plans.get_or_create(
                req.plan_key,
                [&] {
                  const auto t0 = Clock::now();
                  const Topology& topo = advisors.at(req.engine_key).topology();
                  const ParamSet& params = req.machine->model.params;
                  auto built = std::make_shared<core::CompiledPlan>(
                      core::build_plan(*req.pattern, topo, params,
                                       req.strategy),
                      topo, params);
                  req.compile_seconds = seconds_between(t0, Clock::now());
                  req.compiled_here = true;
                  return built;
                },
                &ctx);
            req.cache_hit = !req.compiled_here;
          } catch (const std::exception& e) {
            // Plan construction rejects the *input* (strategy/pattern
            // combination the builder cannot lower), so it classifies as
            // the client's error, not the server's.
            req.error = e.what();
            req.code = ErrorCode::BadRequest;
          }
        },
        whook);
    // Duplicates adopt the representative's plan: within-window reuse is a
    // cache hit from the requester's point of view.
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      Request& req = reqs[i];
      if (!measured(req)) continue;
      const std::size_t r = first.at(req.plan_key);
      if (r == i) continue;
      if (!reqs[r].error.empty()) {
        req.error = reqs[r].error;
        req.code = reqs[r].code;
        continue;
      }
      req.plan = reqs[r].plan;
      req.cache_hit = true;
    }

    // One runner batch: a job per measured request, in input order, so a
    // single large-reps request spreads over every worker.  A traced window
    // shows its first job's repetition-0 engine events.
    std::vector<core::RepJob> jobs;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      const Request& req = reqs[i];
      if (!measured(req)) continue;
      core::RepJob& job = jobs.emplace_back();
      job.compiled = req.plan.get();
      job.topo = &advisors.at(req.engine_key).topology();
      job.params = &req.machine->model.params;
      job.engine_key = req.engine_key;
      job.reps = req.reps;
      job.seed = req.seed;
      // Measurement noise matches the CLI's measure default.
      job.noise_sigma = core::MeasureOptions{}.noise_sigma;
      job.faults = req.faults.get();
      job.deadline = req.deadline;
      job.trace_rep0 = jobs.size() == 1;
      job.tag = static_cast<std::int64_t>(i);
    }
    const core::RepBatch batch = runner.run(
        jobs, pool,
        {tracer.get(), wtrace, wspan, "serve.block", "request", true, true});

    // Per request: its execute time is the summed wall time of the
    // repetitions that ran, and its `execute` span covers them.  Its reply
    // is the lowest failed repetition's error, or else the folded clocks,
    // bit-identical to a one-shot measurement of the same query.
    for (std::size_t k = 0; k < jobs.size(); ++k) {
      Request& req = reqs[static_cast<std::size_t>(jobs[k].tag)];
      const core::RepOutcome& outcome = batch.jobs[k];
      req.execute_seconds = outcome.busy_seconds;
      execute_seconds_total += req.execute_seconds;
      execute_summary.observe(req.execute_seconds);
      if (outcome.failed()) {
        fail(req, outcome);
      } else {
        req.max_avg = outcome.fold.max_avg;
        req.makespan = obs::summarize(outcome.fold.makespans);
      }
      if (tracer != nullptr && req.trace_id != 0 && outcome.reps_run > 0) {
        const obs::TraceAttr attr[] = {{tn.k_reps, false, req.reps}};
        tracer->record_span(0, req.trace_id, req.trace_root, tn.execute, 0,
                            outcome.trace_t0, outcome.trace_t1, attr);
      }
    }
  }

  /// A failed request's reply: its deadline, a structured FaultAbort (the
  /// engine leaves the strategy empty) or an internal error.
  void fail(Request& req, const core::RepOutcome& outcome) {
    if (!outcome.error) {
      req.code = ErrorCode::DeadlineExceeded;
      req.error =
          "deadline exceeded during execution (remaining repetitions "
          "cancelled)";
      cancelled_requests += 1;
      return;
    }
    req.code = ErrorCode::Internal;
    req.error = "execution failed";
    try {
      std::rethrow_exception(outcome.error);
    } catch (const FaultAbort& e) {
      req.code = ErrorCode::FaultAborted;
      req.fault = e;
      req.fault->strategy = req.strategy.name();
      req.error = e.what();
    } catch (const std::exception& e) {
      if (*e.what() != '\0') req.error = e.what();
    } catch (...) {
    }
  }

  // ---------------------------------------------------------------------
  // Accounting, and one window from lines to replies.
  // ---------------------------------------------------------------------

  void account(const Request& req, Clock::time_point done) {
    requests_total += 1;
    // Admission tallies are outcome-independent for data requests: a shed
    // line counts here whether it ended up rejected or degraded.  Control
    // lines are exempt -- they answer normally regardless of admission, so
    // counting them would make shed_overloaded exceed the shed outcomes.
    if (!req.control) {
      if (req.admission == Admission::ShedOverload) shed_overloaded += 1;
      if (req.admission == Admission::ShedShutdown) shed_shutdown += 1;
      latency_summary.observe(seconds_between(req.enqueued, done));
      queue_summary.observe(req.queue_wait_seconds);
    }
    // Exactly one bucket per request: error beats control (a malformed
    // cmd line is an error, full stop -- counting it in both buckets
    // broke the control+errors+...== total invariant the stats contract
    // promises), then control / degraded / predict-only / measured.
    if (!req.error.empty()) {
      errors += 1;
      const ErrorCode code =
          req.code == ErrorCode::None ? ErrorCode::BadRequest : req.code;
      errors_by_code[static_cast<std::size_t>(code)] += 1;
      if (code == ErrorCode::DeadlineExceeded && !req.ranking.empty()) {
        deadline_partials += 1;
      }
      return;
    }
    if (req.control) {
      control_requests += 1;
      return;
    }
    if (req.degraded) {
      degraded_requests += 1;
      return;
    }
    if (req.reps == 0) {
      predict_only += 1;
      return;
    }
    measured_requests += 1;
    if (req.cache_hit) measured_cache_hits += 1;
    if (req.compiled_here) {
      compile_seconds_total += req.compile_seconds;
      compile_summary.observe(req.compile_seconds);
    }
  }

  /// What a control line returns: the live stats or the span trace.
  [[nodiscard]] obs::JsonValue control_body(const Request& req) const {
    if (!req.control || !req.error.empty()) return {};
    if (req.cmd == "stats") return metrics();
    if (req.cmd == "trace" && tracer != nullptr) return tracer->to_json();
    return {};
  }

  /// Answer one window; adds the data requests it admitted (lines that
  /// parse as data requests and were not shed) to `data_requests`.
  std::vector<std::string> process(std::vector<TimedLine> lines,
                                   std::int64_t& data_requests) {
    const auto window_start = Clock::now();
    // Window trace (pool queue/run spans, request tasks, engine events)
    // and per-request traces draw ids from the same dense sequence, so one
    // --trace-sample period governs both.  0 = not sampled.
    const auto sampled_trace = [this]() -> std::uint64_t {
      if (tracer == nullptr) return 0;
      const std::uint64_t id = tracer->begin_trace();
      return tracer->sampled(id) ? id : 0;
    };
    const std::uint64_t wtrace = sampled_trace();
    const std::uint32_t wspan = wtrace != 0 ? tracer->new_span_id() : 0;
    std::vector<Request> reqs(lines.size());
    for (std::size_t i = 0; i < lines.size(); ++i) {
      Request& req = reqs[i];
      req.enqueued = lines[i].enqueued;
      req.admission = lines[i].admission;
      req.trace_id = sampled_trace();
      if (req.trace_id != 0) req.trace_root = tracer->new_span_id();
      const double parse_t0 = tracer != nullptr ? tracer->now() : 0.0;
      try {
        parse_request(lines[i].text, options, req);
        if (!req.control) {
          if (req.admission == Admission::Normal) ++data_requests;
          resolve(req);
        }
      } catch (const ServeError& e) {
        req.error = e.what();
        req.code = e.code;
      } catch (const std::exception& e) {
        req.error = e.what();
        if (req.error.empty()) req.error = "bad request";
        req.code = ErrorCode::BadRequest;
      }
      if (req.trace_id != 0) {
        tracer->record_span(0, req.trace_id, req.trace_root, tn.parse, 0,
                            parse_t0, tracer->now());
      }
      if (req.control && req.error.empty() && req.cmd == "shutdown") {
        shutdown = true;
      }
    }

    const auto exec_start = Clock::now();
    for (Request& req : reqs) {
      // Deadline checkpoint 1 of 2 (checkpoint 2 runs between repetitions,
      // in execute_window): a request whose budget ran out while queued or
      // parsing never reaches the engine.  Parsing already computed the
      // model ranking, so the reply still carries it as "partial".
      if (!req.control && req.error.empty() && req.deadline &&
          exec_start >= *req.deadline) {
        req.error = "deadline exceeded before execution";
        req.code = ErrorCode::DeadlineExceeded;
      }
      req.queue_wait_seconds = seconds_between(
          req.enqueued,
          req.reps > 0 && !req.degraded ? exec_start : window_start);
      if (req.trace_id != 0 && !req.control) {
        // Exactly the interval the response's timing.queue_wait_seconds
        // reports.
        const double t0 = tracer->seconds_since_epoch(req.enqueued);
        tracer->record_span(0, req.trace_id, req.trace_root, tn.queue_wait,
                            0, t0, t0 + req.queue_wait_seconds);
      }
    }
    execute_window(reqs, wtrace, wspan);

    std::vector<std::string> out;
    out.reserve(reqs.size());
    const auto done = Clock::now();
    const double render_t0 = wtrace != 0 ? tracer->now() : 0.0;
    for (Request& req : reqs) {
      account(req, done);
      out.push_back(render(req, done, retry_after_ms(), control_body(req)));
    }
    if (wtrace != 0) {
      tracer->record_span(0, wtrace, wspan, tn.render, 0, render_t0,
                          tracer->now());
    }
    if (tracer != nullptr) {
      const double done_s = tracer->seconds_since_epoch(done);
      for (Request& req : reqs) {
        if (req.trace_id == 0) continue;
        // Zero-width markers under the request root: error (with the
        // message interned), plus the resilience outcomes -- shed by
        // admission, answered degraded, expired on deadline.
        const auto marker = [&](std::uint16_t name,
                                std::span<const obs::TraceAttr> attrs = {}) {
          tracer->record_span(0, req.trace_id, req.trace_root, name, 0,
                              done_s, done_s, attrs);
        };
        if (!req.error.empty()) {
          const obs::TraceAttr attr[] = {
              {tn.k_error, true, tracer->intern(req.error.substr(0, 64))}};
          marker(tn.error, attr);
        }
        if (req.admission != Admission::Normal && !req.control) {
          const obs::TraceAttr attr[] = {
              {tn.k_error, true,
               tracer->intern(error_code_name(
                   req.admission == Admission::ShedShutdown
                       ? ErrorCode::ShuttingDown
                       : ErrorCode::Overloaded))}};
          marker(tn.shed, attr);
        }
        if (req.degraded && req.error.empty()) marker(tn.degraded);
        if (req.code == ErrorCode::DeadlineExceeded) marker(tn.deadline);
        // Root span [enqueued, done]: its duration IS the reply's
        // latency_seconds, by construction.
        obs::TraceAttr attrs[obs::SpanRecord::kMaxAttrs];
        std::size_t n = 0;
        if (req.pattern) {
          attrs[n++] = {tn.k_pattern, false,
                        static_cast<std::int64_t>(req.pattern_fp)};
        }
        if (req.machine != nullptr) {
          attrs[n++] = {tn.k_machine, true,
                        tracer->intern(req.machine->model.name)};
        }
        if (!req.control && req.error.empty() && req.reps > 0) {
          attrs[n++] = {tn.k_strategy, true,
                        tracer->intern(req.strategy.name())};
          attrs[n++] = {tn.k_cache, true,
                        req.cache_hit ? tn.k_hit : tn.k_miss};
        }
        attrs[n++] = {tn.k_reps, false, req.reps};
        attrs[n++] = {tn.k_nodes, false, req.nodes};
        tracer->record_span(0, req.trace_id, 0, tn.request, 0,
                            tracer->seconds_since_epoch(req.enqueued), done_s,
                            {attrs, n}, req.trace_root);
      }
      if (wtrace != 0) {
        const obs::TraceAttr attr[] = {
            {tn.k_requests, false, static_cast<std::int64_t>(reqs.size())}};
        tracer->record_span(0, wtrace, 0, tn.window, 0,
                            tracer->seconds_since_epoch(window_start),
                            tracer->now(), attr, wspan);
      }
    }
    windows += 1;
    // Only normally-admitted lines count against the window bound: shed
    // lines ride along for their (cheap) structured replies and may push
    // a window's raw line count past options.window.
    std::int64_t normal_lines = 0;
    for (const Request& req : reqs) {
      if (req.admission == Admission::Normal) normal_lines += 1;
    }
    window_max = std::max(window_max, normal_lines);
    const double wall = seconds_between(window_start, done);
    busy_seconds += wall;
    // Drain-rate EWMA feeding retry_after_ms: how many requests (of any
    // kind) this window retired per busy second.  Smoothing factor 0.3 --
    // reactive enough to track a storm, steady enough not to thrash the
    // hint between windows.
    if (wall > 0.0 && !reqs.empty()) {
      const double rate = static_cast<double>(reqs.size()) / wall;
      drain_rate_rps =
          drain_rate_rps == 0.0 ? rate : 0.7 * drain_rate_rps + 0.3 * rate;
    }
    return out;
  }

  // ---------------------------------------------------------------------
  // The serve loop, shared by run() and run_socket().
  // ---------------------------------------------------------------------

  /// Shutdown requested, or `served` data requests reached max_requests.
  [[nodiscard]] bool stopping(std::int64_t served) const {
    return shutdown ||
           (options.max_requests > 0 && served >= options.max_requests);
  }

  /// Serve one request stream until it ends or stopping(); `served`
  /// counts its data requests and is checked between windows.
  /// `read(lines, block)` appends the non-blank lines that arrived
  /// (waiting for input first when `block`) and is false once the stream
  /// ended; `write(replies)` is false once the peer is gone.  Admission
  /// control lives at this boundary: lines past `max_queue` are stamped
  /// ShedOverload and answered in the next window (they never wait in the
  /// queue -- that is the point), so a reply may precede the reply of an
  /// earlier admitted line.  Clients correlate by id (docs/serve.md
  /// "Resilience").
  template <typename Read, typename Write>
  void serve(Read&& read, Write&& write, std::int64_t& served) {
    Intake intake{options.max_queue, {}, {}};
    const auto window = static_cast<std::size_t>(options.window);
    std::vector<std::string> lines;
    bool alive = true;
    while (alive && !stopping(served)) {
      // Block only when nothing is queued: a client that bursts more than
      // one window of lines and then waits for its replies must not
      // deadlock on the server also waiting.
      lines.clear();
      if (!read(lines, intake.pending.empty() && intake.shed.empty())) break;
      for (std::string& line : lines) intake.admit(std::move(line), shutdown);
      note_queue_depth(intake.pending.size());
      std::vector<TimedLine> batch = intake.take(window);
      if (!batch.empty()) alive = write(process(std::move(batch), served));
    }
    if (!shutdown || !alive) return;
    // Bounded shutdown drain: everything still queued or readable without
    // blocking gets a structured `shutting_down` reply -- no request ends
    // the session unanswered (the chaos harness asserts exactly this).
    lines.clear();
    read(lines, false);
    for (std::string& line : lines) intake.admit(std::move(line), true);
    std::vector<TimedLine> leftovers = intake.take(intake.pending.size());
    for (TimedLine& line : leftovers) line.admission = Admission::ShedShutdown;
    if (!leftovers.empty()) write(process(std::move(leftovers), served));
  }

  [[nodiscard]] obs::JsonValue metrics() const {
    obs::JsonValue serve = obs::JsonValue::object();
    serve.set("jobs", pool.num_threads());
    serve.set("window", options.window);

    obs::JsonValue counts = obs::JsonValue::object();
    counts.set("total", requests_total);
    counts.set("control", control_requests);
    counts.set("errors", errors);
    counts.set("predict_only", predict_only);
    counts.set("degraded", degraded_requests);
    counts.set("measured", measured_requests);
    obs::JsonValue by_code = obs::JsonValue::object();
    for (std::size_t c = 1; c < kNumErrorCodes; ++c) {
      by_code.set(error_code_name(static_cast<ErrorCode>(c)),
                  errors_by_code[c]);
    }
    counts.set("errors_by_code", std::move(by_code));
    serve.set("requests", std::move(counts));

    const auto cache_json = [](const runtime::CacheStats& s,
                               int shards, std::int64_t capacity) {
      obs::JsonValue c = obs::JsonValue::object();
      c.set("shards", shards);
      c.set("capacity", capacity);
      c.set("entries", s.entries);
      c.set("hits", s.hits);
      c.set("misses", s.misses);
      c.set("evictions", s.evictions);
      c.set("hit_rate", s.hit_rate());
      return c;
    };
    obs::JsonValue cache = obs::JsonValue::object();
    obs::JsonValue plan_cache = cache_json(
        plans.stats(), plans.num_shards(),
        static_cast<std::int64_t>(plans.capacity()));
    // Request-level hit rate: the fraction of measured requests that never
    // waited on a compile (shared-cache hits plus within-window reuse).
    // This is the number the serve_load bench gates on.
    plan_cache.set("request_hits", measured_cache_hits);
    plan_cache.set("request_hit_rate",
                   measured_requests == 0
                       ? 0.0
                       : static_cast<double>(measured_cache_hits) /
                             static_cast<double>(measured_requests));
    cache.set("plan", std::move(plan_cache));
    cache.set("pattern",
              cache_json(patterns.stats(), patterns.num_shards(),
                         static_cast<std::int64_t>(patterns.capacity())));
    cache.set("source",
              cache_json(sources.stats(), sources.num_shards(),
                         static_cast<std::int64_t>(sources.capacity())));
    serve.set("cache", std::move(cache));

    obs::JsonValue batching = obs::JsonValue::object();
    batching.set("windows", windows);
    batching.set("max_window_requests", window_max);
    serve.set("batching", std::move(batching));

    obs::JsonValue timing = obs::JsonValue::object();
    obs::JsonValue compile = obs::JsonValue::object();
    compile.set("total_seconds", compile_seconds_total);
    compile.set("per_compile", compile_summary.summary().to_json());
    timing.set("compile", std::move(compile));
    obs::JsonValue execute = obs::JsonValue::object();
    execute.set("total_seconds", execute_seconds_total);
    execute.set("per_request", execute_summary.summary().to_json());
    timing.set("execute", std::move(execute));
    timing.set("latency", latency_summary.summary().to_json());
    timing.set("queue_wait", queue_summary.summary().to_json());
    serve.set("timing", std::move(timing));

    obs::JsonValue resilience = obs::JsonValue::object();
    resilience.set("max_queue", static_cast<std::int64_t>(options.max_queue));
    resilience.set("shed_policy",
                   options.shed_policy == ShedPolicy::Reject ? "reject"
                                                             : "degrade");
    resilience.set("default_deadline_ms", options.default_deadline_ms);
    resilience.set("shed_overloaded", shed_overloaded);
    resilience.set("shed_shutdown", shed_shutdown);
    resilience.set("degraded", degraded_requests);
    resilience.set("deadline_exceeded",
                   errors_by_code[static_cast<std::size_t>(
                       ErrorCode::DeadlineExceeded)]);
    resilience.set("deadline_partials", deadline_partials);
    resilience.set(
        "fault_aborts",
        errors_by_code[static_cast<std::size_t>(ErrorCode::FaultAborted)]);
    resilience.set("cancelled_requests", cancelled_requests);
    resilience.set("queue_depth_peak", queue_depth_peak);
    resilience.set("drain_rate_rps", drain_rate_rps);
    resilience.set("retry_after_ms_hint", retry_after_ms());
    serve.set("resilience", std::move(resilience));

    serve.set("busy_seconds", busy_seconds);
    serve.set("requests_per_second",
              busy_seconds > 0.0
                  ? static_cast<double>(requests_total) / busy_seconds
                  : 0.0);

    obs::JsonValue doc = obs::JsonValue::object();
    doc.set("schema", obs::kMetricsSchema);
    doc.set("serve", std::move(serve));
    return doc;
  }
};

Service::Service(ServiceOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

Service::~Service() = default;

std::string Service::handle_line(const std::string& line) {
  return handle_window({line}).front();
}

std::vector<std::string> Service::handle_window(
    const std::vector<std::string>& lines) {
  // Synchronous callers get the same admission contract as run(): lines
  // beyond max_queue are shed (per shed_policy), and after a shutdown
  // request only control lines still answer normally.  All of them form
  // one window, in input order.
  Intake intake{impl_->options.max_queue, {}, {}};
  for (const std::string& line : lines) intake.admit(line, impl_->shutdown);
  impl_->note_queue_depth(intake.pending.size());
  std::int64_t data_requests = 0;
  return impl_->process(intake.take(lines.size()), data_requests);
}

bool Service::shutdown_requested() const noexcept { return impl_->shutdown; }

obs::JsonValue Service::metrics_json() const { return impl_->metrics(); }

bool Service::tracing_enabled() const noexcept {
  return impl_->tracer != nullptr;
}

obs::JsonValue Service::trace_json() const {
  if (impl_->tracer == nullptr) {
    throw std::logic_error(
        "serve: tracing is disabled (enable ServiceOptions::trace)");
  }
  return impl_->tracer->to_json();
}

void Service::run(std::istream& in, std::ostream& out) {
  // A non-blocking read takes the lines already buffered (in_avail), so a
  // bursty producer forms a batch while an interactive one stays per-line.
  const auto read = [&in](std::vector<std::string>& lines, bool block) {
    std::string line;
    if (block) {
      if (!std::getline(in, line)) return false;
      if (!blank(line)) lines.push_back(std::move(line));
    }
    while (in.rdbuf()->in_avail() > 0 && std::getline(in, line)) {
      if (!blank(line)) lines.push_back(std::move(line));
    }
    return true;
  };
  const auto write = [&out](const std::vector<std::string>& replies) {
    for (const std::string& reply : replies) out << reply << "\n";
    out.flush();
    return true;
  };
  std::int64_t served = 0;
  impl_->serve(read, write, served);
}

#ifdef __unix__

void Service::run_socket(const std::string& path) {
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) {
    throw std::runtime_error("serve: cannot create unix socket");
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(listener);
    throw std::runtime_error("serve: socket path too long: " + path);
  }
  std::copy(path.begin(), path.end(), addr.sun_path);
  ::unlink(path.c_str());
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listener, 4) != 0) {
    ::close(listener);
    throw std::runtime_error("serve: cannot bind/listen on " + path);
  }

  const std::size_t max_line = impl_->options.max_line_bytes;
  std::int64_t served = 0;
  while (!impl_->stopping(served)) {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) break;
    // Only a blocking read reads: lines already queued are served without
    // more input.  A partial line longer than max_line_bytes is handed on
    // as one line -- the parse-side length guard turns it into one
    // accounted `bad_request` reply -- and the rest of it, up to its
    // newline, is dropped.
    std::string buffer;
    bool skipping_oversize = false;
    const auto read = [&](std::vector<std::string>& lines, bool block) {
      if (!block) return true;
      char chunk[4096];
      const ssize_t n = ::read(fd, chunk, sizeof chunk);
      if (n <= 0) return false;
      buffer.append(chunk, static_cast<std::size_t>(n));
      std::size_t pos = 0;
      for (std::size_t nl = buffer.find('\n'); nl != std::string::npos;
           nl = buffer.find('\n', pos)) {
        std::string one = buffer.substr(pos, nl - pos);
        pos = nl + 1;
        if (skipping_oversize) {
          skipping_oversize = false;  // tail of the answered line; drop it
        } else if (!blank(one)) {
          lines.push_back(std::move(one));
        }
      }
      buffer.erase(0, pos);
      if (skipping_oversize) {
        buffer.clear();  // still inside the oversized line
      } else if (max_line > 0 && buffer.size() > max_line) {
        if (!blank(buffer)) lines.push_back(std::move(buffer));
        buffer.clear();
        skipping_oversize = true;
      }
      return true;
    };
    const auto write = [fd](const std::vector<std::string>& replies) {
      std::string out;
      for (const std::string& reply : replies) {
        out += reply;
        out += '\n';
      }
      std::size_t written = 0;
      while (written < out.size()) {
        const ssize_t w =
            ::write(fd, out.data() + written, out.size() - written);
        if (w <= 0) return false;
        written += static_cast<std::size_t>(w);
      }
      return true;
    };
    impl_->serve(read, write, served);
    ::close(fd);
  }
  ::close(listener);
  ::unlink(path.c_str());
}

#else

void Service::run_socket(const std::string&) {
  throw std::runtime_error("serve: --socket requires a unix platform");
}

#endif

}  // namespace hetcomm::serve
