#include "serve/service.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <istream>
#include <memory>
#include <ostream>
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
#include "hetsim/engine.hpp"
#include "hetsim/faults.hpp"
#include "hetsim/noise.hpp"
#include "machine/machine_json.hpp"
#include "obs/run_report.hpp"
#include "obs/trace.hpp"
#include "runtime/plan_cache.hpp"
#include "runtime/thread_pool.hpp"

#ifdef __unix__
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

namespace hetcomm::serve {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Machine-readable error taxonomy: every error reply carries exactly one
/// of these as "error_code" (docs/serve.md "Resilience").  None is the
/// internal "no error yet" state and renders as bad_request if a message
/// ever reaches a reply without a classified code.
enum class ErrorCode : std::uint8_t {
  None = 0,
  BadRequest,        ///< malformed line / invalid field / unbuildable plan
  Overloaded,        ///< shed by admission control (ShedPolicy::Reject)
  DeadlineExceeded,  ///< request ran out of deadline budget
  ShuttingDown,      ///< shed by the shutdown drain
  FaultAborted,      ///< engine FaultAbort (see the "fault" reply object)
  Internal,          ///< unexpected execution failure
};
constexpr std::size_t kNumErrorCodes = 7;

const char* error_code_name(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::Overloaded:
      return "overloaded";
    case ErrorCode::DeadlineExceeded:
      return "deadline_exceeded";
    case ErrorCode::ShuttingDown:
      return "shutting_down";
    case ErrorCode::FaultAborted:
      return "fault_abort";
    case ErrorCode::Internal:
      return "internal";
    case ErrorCode::None:
    case ErrorCode::BadRequest:
      break;
  }
  return "bad_request";
}

/// Whether a reply with this code should tell the client when to retry.
bool carries_retry_hint(ErrorCode code) noexcept {
  return code == ErrorCode::Overloaded ||
         code == ErrorCode::DeadlineExceeded ||
         code == ErrorCode::ShuttingDown;
}

/// Parse-phase failure that already knows its error code (shed lines,
/// shutdown drain).  Plain std::exception failures classify as BadRequest.
struct ServeError : std::runtime_error {
  ServeError(ErrorCode code_in, const std::string& what)
      : std::runtime_error(what), code(code_in) {}
  ErrorCode code;
};

/// Admission verdict stamped on a line when it enters the service, before
/// anything is parsed.  Control lines ignore it (stats/shutdown are never
/// shed); data lines shed per the service's ShedPolicy.
enum class Admission : std::uint8_t {
  Normal,        ///< inside the pending-queue bound
  ShedOverload,  ///< arrived with the pending queue at max_queue
  ShedShutdown,  ///< arrived after a shutdown request (bounded drain)
};

/// Structured payload of a fault_abort reply, copied off the engine's
/// FaultAbort exception on the worker that caught it.
struct FaultDetail {
  std::string reason;
  std::string strategy;
  int src = -1;
  int dst = -1;
  int path_id = -1;
  std::string path;
  int attempts = 0;
};

const char* abort_reason_name(FaultAbort::Reason reason) noexcept {
  switch (reason) {
    case FaultAbort::Reason::RetriesExhausted:
      return "retries_exhausted";
    case FaultAbort::Reason::NicUnavailable:
      return "nic_unavailable";
  }
  return "unknown";
}

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

std::string hash_hex(std::uint64_t h) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(h));
  return std::string(buf);
}

/// Render a document as one NDJSON line (dump() appends a newline; the
/// protocol frames lines itself).
std::string to_line(const obs::JsonValue& doc) {
  std::string text = doc.dump_string(0);
  while (!text.empty() && (text.back() == '\n' || text.back() == '\r')) {
    text.pop_back();
  }
  return text;
}

/// Strict hex fingerprint parse ("0x" prefix optional); rejects partial
/// consumption, so a typoed ref errors instead of aliasing another hash.
std::uint64_t parse_hash(const std::string& text) {
  std::size_t pos = 0;
  std::uint64_t h = 0;
  try {
    h = std::stoull(text, &pos, 16);
  } catch (const std::exception&) {
    throw std::invalid_argument("bad pattern ref '" + text + "'");
  }
  if (pos != text.size()) {
    throw std::invalid_argument("bad pattern ref '" + text + "'");
  }
  return h;
}

/// One resolved --machine argument, reused across requests.  The
/// fingerprint hashes the exact serialized model (hetcomm.machine.v1 dumps
/// doubles with max_digits10), so two machine files describing the same
/// calibration share cache entries and two differing in any parameter
/// never collide on purpose.
struct MachineEntry {
  machine::MachineModel model;
  std::uint64_t fingerprint = 0;
};

/// Cached value of the compiled-plan cache: everything a repeated query
/// needs that does not depend on reps/seed.
struct CachedPlan {
  CachedPlan(const core::CommPattern& pattern, const Topology& topo,
             const ParamSet& params, const core::StrategyConfig& config)
      : plan(core::build_plan(pattern, topo, params, config)),
        compiled(plan, topo, params),
        summary(plan.summarize(topo)) {}

  core::CommPlan plan;
  core::CompiledPlan compiled;
  core::PlanSummary summary;
  double compile_seconds = 0.0;  ///< wall time build_plan + compile took
};

/// A parsed request plus everything computed for its response.
struct Request {
  // -- inputs ------------------------------------------------------------
  obs::JsonValue id;  ///< echoed verbatim (null when absent)
  bool control = false;
  std::string cmd;  ///< "stats" or "shutdown" when control
  const MachineEntry* machine = nullptr;
  int nodes = 8;
  std::shared_ptr<const core::CommPattern> pattern;
  std::uint64_t pattern_fp = 0;
  bool pattern_was_ref = false;
  bool has_strategy = false;
  core::StrategyConfig strategy;
  std::shared_ptr<const FaultModel> faults;
  int reps = 0;  ///< 0 = predict-only
  std::uint64_t seed = 0x5eedULL;
  bool staged_only = false;
  /// "rank": false skips the Advisor sweep and omits recommended/ranking
  /// from the response -- the hot-path shape for clients that already know
  /// their strategy and only want measurements.  Needs an explicit
  /// strategy (the default strategy *is* the ranking winner).
  bool want_ranking = true;

  // -- resilience --------------------------------------------------------
  Admission admission = Admission::Normal;
  bool degraded = false;    ///< answered from the model layer, no engine
  double confidence = 0.0;  ///< degraded replies: model top-2 separation
  bool plan_cached = false; ///< degraded replies: plan was cache-resident
  bool has_deadline = false;
  Clock::time_point deadline;  ///< meaningful only when has_deadline
  bool partial = false;  ///< deadline_exceeded reply can attach the ranking

  // -- outcome -----------------------------------------------------------
  std::string error;  ///< nonempty = error response
  ErrorCode code = ErrorCode::None;
  std::shared_ptr<FaultDetail> fault;  ///< fault_abort replies only
  std::vector<core::Recommendation> ranking;
  std::shared_ptr<const CachedPlan> plan;
  std::uint64_t plan_key = 0;
  std::uint64_t engine_key = 0;
  bool cache_hit = false;       ///< measured request served without a compile
  bool compiled_here = false;   ///< this request ran the builder
  // per-request measured reduction
  double max_avg = 0.0;
  obs::Summary makespan;

  // -- timing ------------------------------------------------------------
  Clock::time_point enqueued;
  double queue_wait_seconds = 0.0;
  double execute_seconds = 0.0;  ///< wall time of its repetitions

  // -- tracing (0 = this request is not sampled) -------------------------
  std::uint64_t trace_id = 0;
  std::uint32_t trace_root = 0;  ///< preallocated root `request` span id
};

struct TimedLine {
  std::string text;
  Clock::time_point enqueued;
  Admission admission = Admission::Normal;
};

}  // namespace

struct Service::Impl {
  explicit Impl(ServiceOptions opts)
      : options(std::move(opts)),
        pool(options.jobs),
        plans(options.cache_shards, options.cache_capacity),
        patterns(std::max(1, options.cache_shards / 2),
                 options.pattern_capacity),
        engines(static_cast<std::size_t>(pool.num_threads())) {
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
      tn.block = tracer->intern("serve.block");
      tn.engine_msg = tracer->intern("engine.msg");
      tn.engine_copy = tracer->intern("engine.copy");
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
      tn.k_request = tracer->intern("request");
      tn.k_src = tracer->intern("src");
      tn.k_dst = tracer->intern("dst");
      tn.k_bytes = tracer->intern("bytes");
      tn.k_path = tracer->intern("path");
      tn.k_rank = tracer->intern("rank");
      tn.k_gpu = tracer->intern("gpu");
      tn.k_dir = tracer->intern("dir");
    }
  }

  ServiceOptions options;
  runtime::ThreadPool pool;
  runtime::ShardedLruCache<CachedPlan> plans;
  runtime::ShardedLruCache<core::CommPattern> patterns;

  // Serial-phase caches (touched only by the window-driving thread).
  std::unordered_map<std::string, MachineEntry> machines;
  std::unordered_map<std::uint64_t, Topology> topos;  ///< by engine_key
  std::unordered_map<std::string, std::shared_ptr<const FaultModel>> faults;

  /// engines[worker][engine_key]: one reusable Engine per worker per
  /// (machine, nodes); workers only ever touch their own map.
  std::vector<std::unordered_map<std::uint64_t, std::unique_ptr<Engine>>>
      engines;

  bool shutdown = false;

  // -- tracing -----------------------------------------------------------
  /// Null = tracing off; every site below is a single pointer test.
  std::unique_ptr<obs::Tracer> tracer;
  /// Name/attr-key slots interned once at construction, so the hot path
  /// never touches the intern table.
  struct TraceNames {
    std::uint16_t request = 0, parse = 0, queue_wait = 0, execute = 0,
                  error = 0, shed = 0, degraded = 0, deadline = 0, window = 0,
                  render = 0, block = 0, engine_msg = 0, engine_copy = 0;
    std::uint16_t k_pattern = 0, k_machine = 0, k_strategy = 0, k_cache = 0,
                  k_hit = 0, k_miss = 0, k_reps = 0, k_nodes = 0, k_error = 0,
                  k_requests = 0, k_request = 0, k_src = 0, k_dst = 0,
                  k_bytes = 0, k_path = 0, k_rank = 0, k_gpu = 0, k_dir = 0;
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
  std::int64_t compiles = 0;
  std::int64_t windows = 0;
  std::int64_t window_max = 0;
  double compile_seconds_total = 0.0;
  double execute_seconds_total = 0.0;
  double busy_seconds = 0.0;
  static constexpr std::size_t kMaxSamples = 1u << 20;
  std::vector<double> latency_samples;
  std::vector<double> queue_samples;
  std::vector<double> compile_samples;
  std::vector<double> execute_samples;

  void add_sample(std::vector<double>& v, double s) {
    if (v.size() < kMaxSamples) v.push_back(s);
  }

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

  const Topology& topology_for(const Request& req) {
    auto it = topos.find(req.engine_key);
    if (it != topos.end()) return it->second;
    return topos
        .emplace(req.engine_key, req.machine->model.topology(req.nodes))
        .first->second;
  }

  // ---------------------------------------------------------------------
  // Phase A: parse one line into a Request (serial).
  // ---------------------------------------------------------------------

  void parse_request(const std::string& line, Request& req) {
    // Length guard before the JSON parse: run_socket feeds an oversized
    // partial buffer through here so the abusive client gets one bounded
    // `bad_request` reply instead of growing the server's memory.
    if (options.max_line_bytes > 0 && line.size() > options.max_line_bytes) {
      throw ServeError(ErrorCode::BadRequest,
                       "request line is " + std::to_string(line.size()) +
                           " bytes (max_line_bytes is " +
                           std::to_string(options.max_line_bytes) + ")");
    }
    const obs::JsonValue doc = obs::JsonValue::parse(line);
    if (!doc.is_object()) {
      throw std::invalid_argument("request must be a JSON object");
    }
    if (const obs::JsonValue* id = doc.find("id")) req.id = *id;

    if (const obs::JsonValue* cmd = doc.find("cmd")) {
      req.control = true;
      req.cmd = cmd->as_string();
      if (req.cmd != "stats" && req.cmd != "trace" && req.cmd != "shutdown") {
        throw std::invalid_argument("unknown cmd '" + req.cmd +
                                    "' (stats|trace|shutdown)");
      }
      for (const auto& member : doc.members()) {
        if (member.first != "cmd" && member.first != "id") {
          throw std::invalid_argument("cmd lines accept only 'cmd' and 'id'");
        }
      }
      return;
    }

    for (const auto& member : doc.members()) {
      const std::string& key = member.first;
      if (key != "id" && key != "machine" && key != "nodes" &&
          key != "pattern" && key != "strategy" && key != "faults" &&
          key != "reps" && key != "seed" && key != "staged_only" &&
          key != "rank" && key != "deadline_ms") {
        throw std::invalid_argument("unknown request key '" + key + "'");
      }
    }

    // Admission verdicts bite here, after the control check above (control
    // lines are never shed) but before any expensive work.
    if (req.admission == Admission::ShedShutdown) {
      throw ServeError(ErrorCode::ShuttingDown,
                       "server is shutting down; request was shed from the "
                       "queue unprocessed");
    }
    if (req.admission == Admission::ShedOverload &&
        options.shed_policy == ShedPolicy::Reject) {
      throw ServeError(ErrorCode::Overloaded,
                       "server overloaded: pending queue is at max_queue (" +
                           std::to_string(options.max_queue) + ")");
    }

    std::string machine_arg = options.default_machine;
    if (const obs::JsonValue* m = doc.find("machine")) {
      machine_arg = m->as_string();
    }
    req.machine = &resolve_machine(machine_arg);

    if (const obs::JsonValue* n = doc.find("nodes")) {
      req.nodes = static_cast<int>(n->as_int());
      if (req.nodes < 1 || req.nodes > 65536) {
        throw std::invalid_argument("nodes must be in [1, 65536]");
      }
    }
    req.engine_key =
        mix_seed(req.machine->fingerprint,
                 static_cast<std::uint64_t>(req.nodes));
    const Topology& topo = topology_for(req);

    if (const obs::JsonValue* r = doc.find("reps")) {
      req.reps = static_cast<int>(r->as_int());
      if (req.reps < 0 || req.reps > 100000) {
        throw std::invalid_argument("reps must be in [0, 100000]");
      }
    }
    if (const obs::JsonValue* s = doc.find("seed")) {
      req.seed = static_cast<std::uint64_t>(s->as_int());
    }
    if (const obs::JsonValue* so = doc.find("staged_only")) {
      req.staged_only = so->as_bool();
    }
    if (const obs::JsonValue* rk = doc.find("rank")) {
      req.want_ranking = rk->as_bool();
    }

    // Deadline budget: an explicit "deadline_ms" wins (0 = expire as soon
    // as the window reaches execution -- the deterministic shape the
    // deadline tests use); otherwise the service default applies.
    std::int64_t deadline_ms = -1;
    if (const obs::JsonValue* d = doc.find("deadline_ms")) {
      deadline_ms = d->as_int();
      if (deadline_ms < 0 || deadline_ms > 86400000) {
        throw std::invalid_argument("deadline_ms must be in [0, 86400000]");
      }
    } else if (options.default_deadline_ms > 0) {
      deadline_ms = options.default_deadline_ms;
    }
    if (deadline_ms >= 0) {
      req.has_deadline = true;
      req.deadline = req.enqueued + std::chrono::milliseconds(deadline_ms);
    }

    // Overloaded + Degrade: measured requests fall back to the model-only
    // answer.  The ranking *is* that answer, so it is always computed for
    // degraded requests, even for "rank": false clients.  Predict-only
    // requests are already engine-free and answer normally.
    if (req.admission == Admission::ShedOverload && req.reps > 0) {
      req.degraded = true;
      req.want_ranking = true;
    }

    parse_pattern(doc.find("pattern"), topo, req);

    if (const obs::JsonValue* strat = doc.find("strategy")) {
      req.has_strategy = true;
      req.strategy = core::parse_strategy(strat->as_string());
    }

    if (const obs::JsonValue* f = doc.find("faults")) {
      const std::string path = f->as_string();
      // Fault models compile against a concrete machine; key the cache by
      // (path, machine, nodes).  The file is read once per key -- edits to
      // a fault file are not observed by a running server.
      const std::string key = path + "\x1f" + hash_hex(req.engine_key);
      auto it = faults.find(key);
      if (it == faults.end()) {
        const fault::FaultPlan plan = fault::load_fault_file(path);
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
      const core::Advisor advisor(topo, req.machine->model.params);
      core::AdvisorOptions aopts;
      aopts.staged_only = req.staged_only;
      req.ranking = advisor.rank(*req.pattern, aopts);
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

  void parse_pattern(const obs::JsonValue* spec, const Topology& topo,
                     Request& req) {
    if (spec == nullptr) {
      throw std::invalid_argument(
          "request needs a pattern (inline object, file path, {\"random\": "
          "...} or {\"ref\": hash})");
    }
    if (spec->is_string()) {
      register_pattern(core::read_pattern_file(spec->as_string()), topo, req);
      return;
    }
    if (!spec->is_object()) {
      throw std::invalid_argument("pattern must be a string or an object");
    }
    if (const obs::JsonValue* ref = spec->find("ref")) {
      if (spec->size() != 1) {
        throw std::invalid_argument("a pattern ref carries no other keys");
      }
      std::uint64_t h = 0;
      if (ref->is_string()) {
        h = parse_hash(ref->as_string());
      } else {
        h = static_cast<std::uint64_t>(ref->as_int());
      }
      std::shared_ptr<const core::CommPattern> found = patterns.find(h);
      if (found == nullptr) {
        throw std::invalid_argument("unknown pattern ref " + hash_hex(h) +
                                    " (the server has not seen it)");
      }
      if (found->num_gpus() != topo.num_gpus()) {
        throw std::invalid_argument("pattern ref GPU count (" +
                                    std::to_string(found->num_gpus()) +
                                    ") does not match the machine (" +
                                    std::to_string(topo.num_gpus()) + ")");
      }
      req.pattern = std::move(found);
      req.pattern_fp = h;
      req.pattern_was_ref = true;
      return;
    }
    if (const obs::JsonValue* rnd = spec->find("random")) {
      if (spec->size() != 1 || !rnd->is_object()) {
        throw std::invalid_argument(
            "random pattern spec: {\"random\": {\"msgs_per_gpu\": M, "
            "\"bytes\": B, \"seed\": S}}");
      }
      int msgs = 16;
      std::int64_t bytes = 4096;
      std::uint64_t seed = 1;
      for (const auto& [key, value] : rnd->members()) {
        if (key == "msgs_per_gpu") {
          msgs = static_cast<int>(value.as_int());
        } else if (key == "bytes") {
          bytes = value.as_int();
        } else if (key == "seed") {
          seed = static_cast<std::uint64_t>(value.as_int());
        } else {
          throw std::invalid_argument("unknown random-pattern key '" + key +
                                      "'");
        }
      }
      if (msgs < 1 || bytes < 1) {
        throw std::invalid_argument(
            "random pattern needs msgs_per_gpu >= 1 and bytes >= 1");
      }
      register_pattern(core::random_pattern(topo, msgs, bytes, seed), topo,
                       req);
      return;
    }
    // Inline pattern: {"gpus": N, "msgs": [[src, dst, bytes], ...],
    // "dedup": [[src_gpu, dst_node, bytes], ...]}.
    const obs::JsonValue* gpus = spec->find("gpus");
    const obs::JsonValue* msgs = spec->find("msgs");
    if (gpus == nullptr || msgs == nullptr) {
      throw std::invalid_argument(
          "inline pattern needs 'gpus' and 'msgs' ([[src, dst, bytes], ...])");
    }
    for (const auto& member : spec->members()) {
      if (member.first != "gpus" && member.first != "msgs" &&
          member.first != "dedup") {
        throw std::invalid_argument("unknown pattern key '" + member.first +
                                    "'");
      }
    }
    core::CommPattern pattern(static_cast<int>(gpus->as_int()));
    for (const obs::JsonValue& triple : msgs->items()) {
      if (!triple.is_array() || triple.size() != 3) {
        throw std::invalid_argument("msgs entries are [src, dst, bytes]");
      }
      pattern.add(static_cast<int>(triple.at(0).as_int()),
                  static_cast<int>(triple.at(1).as_int()),
                  triple.at(2).as_int());
    }
    if (const obs::JsonValue* dedup = spec->find("dedup")) {
      for (const obs::JsonValue& triple : dedup->items()) {
        if (!triple.is_array() || triple.size() != 3) {
          throw std::invalid_argument(
              "dedup entries are [src_gpu, dst_node, bytes]");
        }
        pattern.set_node_dedup(static_cast<int>(triple.at(0).as_int()),
                               static_cast<int>(triple.at(1).as_int()),
                               triple.at(2).as_int());
      }
    }
    register_pattern(std::move(pattern), topo, req);
  }

  void register_pattern(core::CommPattern pattern, const Topology& topo,
                        Request& req) {
    if (pattern.num_gpus() != topo.num_gpus()) {
      throw std::invalid_argument("pattern GPU count (" +
                                  std::to_string(pattern.num_gpus()) +
                                  ") does not match the machine (" +
                                  std::to_string(topo.num_gpus()) + ")");
    }
    req.pattern_fp = core::pattern_hash(pattern);
    // Park the pattern in the registry so later requests can say
    // {"ref": "<hash>"} and skip re-sending (and re-parsing) the body.
    req.pattern = patterns.get_or_create(req.pattern_fp, [&] {
      return std::make_shared<const core::CommPattern>(std::move(pattern));
    });
  }

  // ---------------------------------------------------------------------
  // Phases B+C: compile unique plans, then execute one task per repetition.
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
    std::vector<std::size_t> unique;  // representative request indices
    {
      std::unordered_map<std::uint64_t, std::size_t> first;
      for (std::size_t i = 0; i < reqs.size(); ++i) {
        if (!measured(reqs[i])) continue;
        if (first.emplace(reqs[i].plan_key, i).second) unique.push_back(i);
      }
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
                  auto built = std::make_shared<CachedPlan>(
                      *req.pattern, topos.at(req.engine_key),
                      req.machine->model.params, req.strategy);
                  built->compile_seconds = seconds_between(t0, Clock::now());
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
    {
      std::unordered_map<std::uint64_t, std::size_t> rep;
      for (const std::size_t i : unique) rep.emplace(reqs[i].plan_key, i);
      for (std::size_t i = 0; i < reqs.size(); ++i) {
        Request& req = reqs[i];
        if (!measured(req)) continue;
        const std::size_t r = rep.at(req.plan_key);
        if (r == i) continue;
        if (!reqs[r].error.empty()) {
          req.error = reqs[r].error;
          req.code = reqs[r].code;
          continue;
        }
        req.plan = reqs[r].plan;
        req.cache_hit = true;
      }
    }

    // One pool task per (measured request, repetition) pair, requests in
    // input order, so a single large-reps request spreads over every
    // worker.  Task t is repetition t - first_task[k] of range k, the last
    // range starting at or before t.  A task writes its rank clocks into
    // its request's reps x ranks buffer, folded after the join.
    struct RepSlot {
      bool ran = false;
      double seconds = 0.0;  ///< wall time of the repetition
      double t0 = 0.0;       ///< tracer interval (tracing only)
      double t1 = 0.0;
    };
    struct RepRange {
      std::size_t request = 0;  ///< index into reqs
      std::size_t num_ranks = 0;
      std::vector<double> clocks;  ///< reps x ranks, row = repetition
      std::vector<RepSlot> slots;  ///< one per repetition
      // The lowest failed repetition's outcome (written under fail_mu).
      ErrorCode code = ErrorCode::None;
      std::string error;
      std::shared_ptr<FaultDetail> fault;
    };
    std::vector<RepRange> ranges;
    std::vector<std::int64_t> first_task;
    std::int64_t num_tasks = 0;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      if (!measured(reqs[i])) continue;
      RepRange& range = ranges.emplace_back();
      range.request = i;
      range.num_ranks =
          static_cast<std::size_t>(topos.at(reqs[i].engine_key).num_ranks());
      range.clocks.resize(static_cast<std::size_t>(reqs[i].reps) *
                          range.num_ranks);
      range.slots.resize(static_cast<std::size_t>(reqs[i].reps));
      first_task.push_back(num_tasks);
      num_tasks += reqs[i].reps;
    }
    const auto range_of = [&first_task](std::int64_t t) {
      return static_cast<std::size_t>(
          std::upper_bound(first_task.begin(), first_task.end(), t) -
          first_task.begin() - 1);
    };

    // A request's reply is its lowest failed repetition -- a FaultAbort, an
    // engine error, or a deadline found expired when the repetition was
    // claimed -- the one a serial loop stops at, so the reply is the same
    // at any jobs count (as in core::measure).  stop_rep[k] holds that
    // repetition (reps while none failed); repetitions above it are
    // skipped unrun.
    std::mutex fail_mu;
    std::vector<std::atomic<int>> stop_rep(ranges.size());
    for (std::size_t k = 0; k < ranges.size(); ++k) {
      stop_rep[k].store(reqs[ranges[k].request].reps);
    }
    const auto fail = [&](std::size_t k, int rep, ErrorCode code,
                          std::string error,
                          std::shared_ptr<FaultDetail> fault) {
      const std::lock_guard<std::mutex> lock(fail_mu);
      if (rep >= stop_rep[k].load()) return;
      stop_rep[k].store(rep);
      ranges[k].code = code;
      ranges[k].error = std::move(error);
      ranges[k].fault = std::move(fault);
    };
    const auto cancel = [&](std::int64_t t) {
      const std::size_t k = range_of(t);
      const int rep = static_cast<int>(t - first_task[k]);
      if (rep > stop_rep[k].load()) return true;
      const Request& req = reqs[ranges[k].request];
      if (req.has_deadline && Clock::now() >= req.deadline) {
        fail(k, rep, ErrorCode::DeadlineExceeded,
             "deadline exceeded during execution (remaining repetitions "
             "cancelled)",
             nullptr);
        return true;
      }
      return false;
    };

    // Engine-event merge: task 0 (the first request's repetition 0) records
    // the engine's message/copy events, converted below onto engine-rank
    // tracks of the window trace.  One repetition per window bounds the
    // cost; set_tracing never perturbs clocks, so replies stay
    // bit-identical.  Only task 0 writes engine_trace / lead_*.
    Trace engine_trace;
    const bool merge_engine = wtrace != 0 && num_tasks > 0;
    double lead_t0 = 0.0;
    double lead_t1 = 0.0;
    std::uint32_t lead_span = 0;

    pool.parallel_for(
        num_tasks,
        [&](std::int64_t t, int worker) {
          const std::size_t k = range_of(t);
          RepRange& range = ranges[k];
          const Request& req = reqs[range.request];
          const int rep = static_cast<int>(t - first_task[k]);
          RepSlot& slot = range.slots[static_cast<std::size_t>(rep)];
          const auto t0 = Clock::now();
          const double tt0 = tracer != nullptr ? tracer->now() : 0.0;
          try {
            std::unique_ptr<Engine>& engine =
                engines[static_cast<std::size_t>(worker)][req.engine_key];
            if (!engine) {
              engine = std::make_unique<Engine>(
                  topos.at(req.engine_key), req.machine->model.params,
                  NoiseModel(0, options.noise_sigma));
            }
            engine->set_faults(req.faults.get());
            const bool traced = merge_engine && t == 0;
            engine->reset(mix_seed(req.seed, static_cast<std::uint64_t>(rep)));
            engine->set_tracing(traced);
            engine->execute(req.plan->compiled);
            if (traced) {
              engine_trace = engine->trace();
              engine->set_tracing(false);
            }
            const std::vector<double>& clocks = engine->clocks();
            std::copy(clocks.begin(), clocks.end(),
                      range.clocks.data() +
                          static_cast<std::size_t>(rep) * range.num_ranks);
          } catch (const FaultAbort& e) {
            // Structured abort: the reply carries the fault's coordinates;
            // the strategy is filled in after the join (the engine throws
            // with it empty).
            auto detail = std::make_shared<FaultDetail>();
            detail->reason = abort_reason_name(e.reason);
            detail->src = e.src;
            detail->dst = e.dst;
            detail->path_id = e.path_id;
            detail->path = e.path;
            detail->attempts = e.attempts;
            fail(k, rep, ErrorCode::FaultAborted, e.what(), std::move(detail));
          } catch (const std::exception& e) {
            std::string error = e.what();
            if (error.empty()) error = "execution failed";
            fail(k, rep, ErrorCode::Internal, std::move(error), nullptr);
          }
          slot.ran = true;
          slot.seconds = seconds_between(t0, Clock::now());
          if (tracer == nullptr) return;
          slot.t0 = tt0;
          slot.t1 = tracer->now();
          if (wtrace == 0) return;
          obs::SpanRecord s;
          s.trace_id = wtrace;
          s.span_id = tracer->new_span_id();
          s.parent = wspan;
          s.name = tn.block;
          s.track = static_cast<std::uint16_t>(worker);
          s.t_start = slot.t0;
          s.t_end = slot.t1;
          s.add_attr(tn.k_request, static_cast<std::int64_t>(range.request));
          tracer->record(worker, s);
          if (t == 0) {
            lead_t0 = slot.t0;
            lead_t1 = slot.t1;
            lead_span = s.span_id;
          }
        },
        whook, cancel);

    // Per request: its execute time is the summed wall time of the
    // repetitions that ran and its `execute` span covers them.  Its reply
    // is the lowest failed repetition's error, or else the clocks folded in
    // repetition order as core::measure folds them, so the numbers are
    // bit-identical to a one-shot measurement of the same query.
    for (RepRange& range : ranges) {
      Request& req = reqs[range.request];
      double span_t0 = 0.0;
      double span_t1 = 0.0;
      bool any = false;
      for (const RepSlot& slot : range.slots) {
        if (!slot.ran) continue;
        req.execute_seconds += slot.seconds;
        span_t0 = any ? std::min(span_t0, slot.t0) : slot.t0;
        span_t1 = any ? std::max(span_t1, slot.t1) : slot.t1;
        any = true;
      }
      execute_seconds_total += req.execute_seconds;
      add_sample(execute_samples, req.execute_seconds);
      if (range.code != ErrorCode::None) {
        req.error = std::move(range.error);
        req.code = range.code;
        if (range.fault) {
          range.fault->strategy = req.strategy.name();
          req.fault = std::move(range.fault);
        }
        if (req.code == ErrorCode::DeadlineExceeded) {
          req.partial = !req.ranking.empty();
          cancelled_requests += 1;
        }
      } else {
        std::vector<double> per_rank_mean(range.num_ranks, 0.0);
        std::vector<double> makespans;
        makespans.reserve(range.slots.size());
        for (std::size_t rep = 0; rep < range.slots.size(); ++rep) {
          const double* row = range.clocks.data() + rep * range.num_ranks;
          double makespan = 0.0;
          for (std::size_t r = 0; r < range.num_ranks; ++r) {
            per_rank_mean[r] += row[r];
            makespan = std::max(makespan, row[r]);
          }
          makespans.push_back(makespan);
        }
        const double inv = 1.0 / req.reps;
        for (double& mean : per_rank_mean) mean *= inv;
        req.max_avg =
            *std::max_element(per_rank_mean.begin(), per_rank_mean.end());
        req.makespan = obs::summarize(makespans);
      }
      if (tracer != nullptr && req.trace_id != 0 && any) {
        obs::SpanRecord s;
        s.trace_id = req.trace_id;
        s.span_id = tracer->new_span_id();
        s.parent = req.trace_root;
        s.name = tn.execute;
        s.t_start = span_t0;
        s.t_end = span_t1;
        s.add_attr(tn.k_reps, req.reps);
        tracer->record(0, s);
      }
    }

    // Convert the captured engine events onto engine-rank tracks, nested
    // inside the first task's span and scaled proportionally from
    // simulated time into that task's wall interval (the engine reports
    // simulated clocks; the timeline shows their *shares* of the task).
    if (merge_engine && lead_span != 0 &&
        (!engine_trace.messages.empty() || !engine_trace.copies.empty())) {
      double sim_total = 0.0;
      for (const MessageTrace& m : engine_trace.messages) {
        sim_total = std::max(sim_total, m.completion);
      }
      for (const CopyTrace& c : engine_trace.copies) {
        sim_total = std::max(sim_total, c.completion);
      }
      if (sim_total > 0.0 && lead_t1 > lead_t0) {
        const double scale = (lead_t1 - lead_t0) / sim_total;
        const auto rank_track = [&](int rank) -> std::uint16_t {
          const int t = static_cast<int>(obs::kEngineTrackBase) + rank;
          if (rank < 0 || t > 0xffff) return 0;  // off the display range
          tracer->name_track(static_cast<std::uint16_t>(t),
                             "engine rank " + std::to_string(rank));
          return static_cast<std::uint16_t>(t);
        };
        std::size_t budget = 256;  // bound the per-window conversion cost
        for (const MessageTrace& m : engine_trace.messages) {
          if (budget == 0) break;
          const std::uint16_t track = rank_track(m.src);
          if (track == 0) continue;
          --budget;
          obs::SpanRecord s;
          s.trace_id = wtrace;
          s.span_id = tracer->new_span_id();
          s.parent = lead_span;
          s.name = tn.engine_msg;
          s.track = track;
          s.t_start = lead_t0 + m.start * scale;
          s.t_end = lead_t0 + m.completion * scale;
          s.add_attr(tn.k_src, m.src);
          s.add_attr(tn.k_dst, m.dst);
          s.add_attr(tn.k_bytes, m.bytes);
          s.add_attr(tn.k_path, static_cast<std::int64_t>(m.path));
          tracer->record(0, s);
        }
        for (const CopyTrace& c : engine_trace.copies) {
          if (budget == 0) break;
          const std::uint16_t track = rank_track(c.rank);
          if (track == 0) continue;
          --budget;
          obs::SpanRecord s;
          s.trace_id = wtrace;
          s.span_id = tracer->new_span_id();
          s.parent = lead_span;
          s.name = tn.engine_copy;
          s.track = track;
          s.t_start = lead_t0 + c.start * scale;
          s.t_end = lead_t0 + c.completion * scale;
          s.add_attr(tn.k_rank, c.rank);
          s.add_attr(tn.k_gpu, c.gpu);
          s.add_attr(tn.k_bytes, c.bytes);
          s.add_attr(tn.k_dir, static_cast<std::int64_t>(c.dir));
          tracer->record(0, s);
        }
      }
    }
  }

  // ---------------------------------------------------------------------
  // Response rendering + accounting.
  // ---------------------------------------------------------------------

  static obs::JsonValue ranking_json(const Request& req) {
    obs::JsonValue ranking = obs::JsonValue::array();
    for (const core::Recommendation& r : req.ranking) {
      obs::JsonValue row = obs::JsonValue::object();
      row.set("strategy", r.config.name());
      row.set("predicted_seconds", r.predicted_seconds);
      row.set("relative", r.relative);
      ranking.push_back(std::move(row));
    }
    return ranking;
  }

  std::string render(const Request& req, Clock::time_point done) {
    obs::JsonValue doc = obs::JsonValue::object();
    doc.set("id", req.id);
    // Every reply -- data, control or error -- reports its own latency so
    // clients never need to time the wire themselves.
    doc.set("latency_seconds", seconds_between(req.enqueued, done));
    if (!req.error.empty()) {
      const ErrorCode code =
          req.code == ErrorCode::None ? ErrorCode::BadRequest : req.code;
      doc.set("ok", false);
      doc.set("error", req.error);
      doc.set("error_code", error_code_name(code));
      if (carries_retry_hint(code)) {
        doc.set("retry_after_ms", retry_after_ms());
      }
      if (req.fault != nullptr) {
        obs::JsonValue fault = obs::JsonValue::object();
        fault.set("reason", req.fault->reason);
        fault.set("strategy", req.fault->strategy);
        fault.set("src", req.fault->src);
        fault.set("dst", req.fault->dst);
        fault.set("path_id", req.fault->path_id);
        fault.set("path", req.fault->path);
        fault.set("attempts", req.fault->attempts);
        doc.set("fault", std::move(fault));
      }
      if (code == ErrorCode::DeadlineExceeded && req.partial &&
          !req.ranking.empty()) {
        // The model ranking was already computed when the deadline fired;
        // hand it over rather than discarding mid-flight work.
        obs::JsonValue partial = obs::JsonValue::object();
        partial.set("recommended", req.ranking.front().config.name());
        partial.set("ranking", ranking_json(req));
        doc.set("partial", std::move(partial));
      }
      return to_line(doc);
    }
    doc.set("ok", true);
    if (req.control) {
      if (req.cmd == "stats") {
        doc.set("stats", metrics());
      } else if (req.cmd == "trace") {
        if (tracer == nullptr) {
          doc.set("ok", false);
          doc.set("error",
                  "tracing is disabled (start the server with --trace)");
        } else {
          doc.set("trace", tracer->to_json());
        }
      } else {
        doc.set("shutdown", true);
      }
      return to_line(doc);
    }

    doc.set("machine", req.machine->model.name);
    doc.set("nodes", req.nodes);
    doc.set("gpus", req.pattern->num_gpus());
    doc.set("pattern_hash", hash_hex(req.pattern_fp));
    if (!req.ranking.empty()) {
      doc.set("recommended", req.ranking.front().config.name());
      doc.set("ranking", ranking_json(req));
    }

    if (req.degraded) {
      // Model-only answer under load shedding: no engine work ran, so
      // there is no "measured" section; the ranking above *is* the reply.
      doc.set("degraded", true);
      doc.set("confidence", req.confidence);
      doc.set("cache", req.plan_cached ? "hit" : "miss");
    } else if (req.reps > 0) {
      obs::JsonValue measured = obs::JsonValue::object();
      measured.set("strategy", req.strategy.name());
      measured.set("reps", req.reps);
      measured.set("seed", static_cast<std::int64_t>(req.seed));
      measured.set("max_avg", req.max_avg);
      measured.set("makespan", req.makespan.to_json());
      doc.set("measured", std::move(measured));
      doc.set("cache", req.cache_hit ? "hit" : "miss");
      if (req.compiled_here) {
        doc.set("compile_seconds", req.plan->compile_seconds);
      }
    }

    obs::JsonValue timing = obs::JsonValue::object();
    timing.set("queue_wait_seconds", req.queue_wait_seconds);
    timing.set("compile_seconds",
               req.compiled_here ? req.plan->compile_seconds : 0.0);
    timing.set("execute_seconds", req.execute_seconds);
    timing.set("latency_seconds", seconds_between(req.enqueued, done));
    doc.set("timing", std::move(timing));
    return to_line(doc);
  }

  void account(const Request& req, Clock::time_point done) {
    requests_total += 1;
    // Admission tallies are outcome-independent for data requests: a shed
    // line counts here whether it ended up rejected or degraded.  Control
    // lines are exempt -- they answer normally regardless of admission, so
    // counting them would make shed_overloaded exceed the shed outcomes.
    if (!req.control) {
      if (req.admission == Admission::ShedOverload) shed_overloaded += 1;
      if (req.admission == Admission::ShedShutdown) shed_shutdown += 1;
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
      if (code == ErrorCode::DeadlineExceeded && req.partial) {
        deadline_partials += 1;
      }
      if (!req.control) {
        add_sample(latency_samples, seconds_between(req.enqueued, done));
        add_sample(queue_samples, req.queue_wait_seconds);
      }
      return;
    }
    if (req.control) {
      control_requests += 1;
      return;
    }
    add_sample(latency_samples, seconds_between(req.enqueued, done));
    add_sample(queue_samples, req.queue_wait_seconds);
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
      compiles += 1;
      compile_seconds_total += req.plan->compile_seconds;
      add_sample(compile_samples, req.plan->compile_seconds);
    }
  }

  std::vector<std::string> process(std::vector<TimedLine> lines) {
    const auto window_start = Clock::now();
    // Window trace (pool queue/run spans, request tasks, engine events)
    // and per-request traces draw ids from the same dense sequence, so one
    // --trace-sample period governs both.
    std::uint64_t wtrace = 0;
    std::uint32_t wspan = 0;
    if (tracer != nullptr) {
      wtrace = tracer->begin_trace();
      if (tracer->sampled(wtrace)) {
        wspan = tracer->new_span_id();
      } else {
        wtrace = 0;
      }
    }
    std::vector<Request> reqs(lines.size());
    for (std::size_t i = 0; i < lines.size(); ++i) {
      reqs[i].enqueued = lines[i].enqueued;
      reqs[i].admission = lines[i].admission;
      if (tracer != nullptr) {
        const std::uint64_t id = tracer->begin_trace();
        if (tracer->sampled(id)) {
          reqs[i].trace_id = id;
          reqs[i].trace_root = tracer->new_span_id();
        }
      }
      const double parse_t0 = tracer != nullptr ? tracer->now() : 0.0;
      try {
        parse_request(lines[i].text, reqs[i]);
      } catch (const ServeError& e) {
        reqs[i].error = e.what();
        reqs[i].code = e.code;
      } catch (const std::exception& e) {
        reqs[i].error = e.what();
        if (reqs[i].error.empty()) reqs[i].error = "bad request";
        reqs[i].code = ErrorCode::BadRequest;
      }
      if (reqs[i].trace_id != 0) {
        obs::SpanRecord s;
        s.trace_id = reqs[i].trace_id;
        s.span_id = tracer->new_span_id();
        s.parent = reqs[i].trace_root;
        s.name = tn.parse;
        s.t_start = parse_t0;
        s.t_end = tracer->now();
        tracer->record(0, s);
      }
      if (reqs[i].control && reqs[i].error.empty() &&
          reqs[i].cmd == "shutdown") {
        shutdown = true;
      }
    }

    const auto exec_start = Clock::now();
    for (Request& req : reqs) {
      // Deadline checkpoint 1 of 2 (checkpoint 2 runs between repetitions,
      // in run_request): a request whose budget ran out while queued or parsing
      // never reaches the engine.  Parsing already computed the model
      // ranking, so the reply still carries it as "partial".
      if (!req.control && req.error.empty() && req.has_deadline &&
          exec_start >= req.deadline) {
        req.error = "deadline exceeded before execution";
        req.code = ErrorCode::DeadlineExceeded;
        req.partial = !req.ranking.empty();
      }
      req.queue_wait_seconds = seconds_between(
          req.enqueued,
          req.reps > 0 && !req.degraded ? exec_start : window_start);
      if (req.trace_id != 0 && !req.control) {
        // Exactly the interval the response's timing.queue_wait_seconds
        // reports.
        obs::SpanRecord s;
        s.trace_id = req.trace_id;
        s.span_id = tracer->new_span_id();
        s.parent = req.trace_root;
        s.name = tn.queue_wait;
        s.t_start = tracer->seconds_since_epoch(req.enqueued);
        s.t_end = s.t_start + req.queue_wait_seconds;
        tracer->record(0, s);
      }
    }
    execute_window(reqs, wtrace, wspan);

    std::vector<std::string> out;
    out.reserve(reqs.size());
    const auto done = Clock::now();
    const double render_t0 = wtrace != 0 ? tracer->now() : 0.0;
    for (Request& req : reqs) {
      account(req, done);
      out.push_back(render(req, done));
    }
    if (wtrace != 0) {
      obs::SpanRecord s;
      s.trace_id = wtrace;
      s.span_id = tracer->new_span_id();
      s.parent = wspan;
      s.name = tn.render;
      s.t_start = render_t0;
      s.t_end = tracer->now();
      tracer->record(0, s);
    }
    if (tracer != nullptr) {
      const double done_s = tracer->seconds_since_epoch(done);
      for (Request& req : reqs) {
        if (req.trace_id == 0) continue;
        // Zero-width markers under the request root: error (with the
        // message interned), plus the resilience outcomes -- shed by
        // admission, answered degraded, expired on deadline.
        const auto marker = [&](std::uint16_t name) {
          obs::SpanRecord m;
          m.trace_id = req.trace_id;
          m.span_id = tracer->new_span_id();
          m.parent = req.trace_root;
          m.name = name;
          m.t_start = done_s;
          m.t_end = done_s;
          return m;
        };
        if (!req.error.empty()) {
          obs::SpanRecord e = marker(tn.error);
          e.add_attr_slot(tn.k_error,
                          tracer->intern(req.error.substr(0, 64)));
          tracer->record(0, e);
        }
        if (req.admission != Admission::Normal && !req.control) {
          obs::SpanRecord s = marker(tn.shed);
          s.add_attr_slot(tn.k_error,
                          tracer->intern(error_code_name(
                              req.admission == Admission::ShedShutdown
                                  ? ErrorCode::ShuttingDown
                                  : ErrorCode::Overloaded)));
          tracer->record(0, s);
        }
        if (req.degraded && req.error.empty()) {
          tracer->record(0, marker(tn.degraded));
        }
        if (req.code == ErrorCode::DeadlineExceeded) {
          tracer->record(0, marker(tn.deadline));
        }
        // Root span [enqueued, done]: its duration IS the reply's
        // latency_seconds, by construction.
        obs::SpanRecord s;
        s.trace_id = req.trace_id;
        s.span_id = req.trace_root;
        s.parent = 0;
        s.name = tn.request;
        s.t_start = tracer->seconds_since_epoch(req.enqueued);
        s.t_end = done_s;
        if (req.pattern) {
          s.add_attr(tn.k_pattern, static_cast<std::int64_t>(req.pattern_fp));
        }
        if (req.machine != nullptr) {
          s.add_attr_slot(tn.k_machine,
                          tracer->intern(req.machine->model.name));
        }
        if (!req.control && req.error.empty() && req.reps > 0) {
          s.add_attr_slot(tn.k_strategy, tracer->intern(req.strategy.name()));
          s.add_attr_slot(tn.k_cache, req.cache_hit ? tn.k_hit : tn.k_miss);
        }
        s.add_attr(tn.k_reps, req.reps);
        s.add_attr(tn.k_nodes, req.nodes);
        tracer->record(0, s);
      }
      if (wtrace != 0) {
        obs::SpanRecord s;
        s.trace_id = wtrace;
        s.span_id = wspan;
        s.parent = 0;
        s.name = tn.window;
        s.t_start = tracer->seconds_since_epoch(window_start);
        s.t_end = tracer->now();
        s.add_attr(tn.k_requests, static_cast<std::int64_t>(lines.size()));
        tracer->record(0, s);
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
    serve.set("cache", std::move(cache));

    obs::JsonValue batching = obs::JsonValue::object();
    batching.set("windows", windows);
    batching.set("max_window_requests", window_max);
    serve.set("batching", std::move(batching));

    obs::JsonValue timing = obs::JsonValue::object();
    obs::JsonValue compile = obs::JsonValue::object();
    compile.set("total_seconds", compile_seconds_total);
    compile.set("per_compile", obs::summarize(compile_samples).to_json());
    timing.set("compile", std::move(compile));
    obs::JsonValue execute = obs::JsonValue::object();
    execute.set("total_seconds", execute_seconds_total);
    execute.set("per_request", obs::summarize(execute_samples).to_json());
    timing.set("execute", std::move(execute));
    timing.set("latency", obs::summarize(latency_samples).to_json());
    timing.set("queue_wait", obs::summarize(queue_samples).to_json());
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
  std::vector<TimedLine> timed;
  timed.reserve(lines.size());
  const auto now = Clock::now();
  // Synchronous callers get the same admission contract as run(): lines
  // beyond max_queue are shed (per shed_policy), and after a shutdown
  // request only control lines still answer normally.
  const std::size_t limit = impl_->options.max_queue;
  std::size_t admitted = 0;
  for (const std::string& line : lines) {
    Admission a = Admission::Normal;
    if (impl_->shutdown) {
      a = Admission::ShedShutdown;
    } else if (limit > 0 && admitted >= limit) {
      a = Admission::ShedOverload;
    } else {
      ++admitted;
    }
    timed.push_back({line, now, a});
  }
  impl_->note_queue_depth(admitted);
  return impl_->process(std::move(timed));
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

namespace {

bool blank(const std::string& line) {
  return line.find_first_not_of(" \t\r") == std::string::npos;
}

}  // namespace

void Service::run(std::istream& in, std::ostream& out) {
  std::int64_t served = 0;
  // Admission control lives at this boundary: lines past `max_queue` are
  // stamped ShedOverload and answered in the same flush as the window they
  // overflowed (they never wait in the queue -- that is the point), so a
  // reply may precede the reply of an earlier admitted line.  Clients
  // correlate by id (docs/serve.md "Resilience").
  std::deque<TimedLine> pending;
  std::vector<TimedLine> shed;
  const std::size_t limit = impl_->options.max_queue;
  const auto admit = [&](std::string text) {
    if (blank(text)) return;
    TimedLine tl{std::move(text), Clock::now()};
    if (limit > 0 && pending.size() >= limit) {
      tl.admission = Admission::ShedOverload;
      shed.push_back(std::move(tl));
    } else {
      pending.push_back(std::move(tl));
    }
  };
  std::string line;
  while (!impl_->shutdown &&
         (impl_->options.max_requests == 0 ||
          served < impl_->options.max_requests)) {
    if (pending.empty() && shed.empty()) {
      if (!std::getline(in, line)) break;
      admit(std::move(line));
    }
    // Drain whatever is already buffered (never blocking on more input):
    // a bursty producer forms a batch, an interactive one stays per-line.
    while (in.rdbuf()->in_avail() > 0 && std::getline(in, line)) {
      admit(std::move(line));
    }
    impl_->note_queue_depth(pending.size());
    std::vector<TimedLine> window;
    window.reserve(std::min<std::size_t>(
        pending.size() + shed.size(),
        static_cast<std::size_t>(impl_->options.window) + shed.size()));
    while (static_cast<int>(window.size()) < impl_->options.window &&
           !pending.empty()) {
      window.push_back(std::move(pending.front()));
      pending.pop_front();
    }
    for (TimedLine& tl : shed) window.push_back(std::move(tl));
    shed.clear();
    if (window.empty()) continue;
    served += static_cast<std::int64_t>(window.size());
    for (const std::string& response : impl_->process(std::move(window))) {
      out << response << "\n";
    }
    out.flush();
  }
  // Bounded shutdown drain: everything still queued or readable without
  // blocking gets a structured `shutting_down` reply -- no request ends
  // the session unanswered (the chaos harness asserts exactly this).
  if (impl_->shutdown) {
    while (in.rdbuf()->in_avail() > 0 && std::getline(in, line)) {
      if (!blank(line)) pending.push_back({std::move(line), Clock::now()});
    }
    for (TimedLine& tl : shed) pending.push_back(std::move(tl));
    shed.clear();
    if (!pending.empty()) {
      std::vector<TimedLine> leftovers;
      leftovers.reserve(pending.size());
      for (TimedLine& tl : pending) {
        tl.admission = Admission::ShedShutdown;
        leftovers.push_back(std::move(tl));
      }
      pending.clear();
      for (const std::string& response :
           impl_->process(std::move(leftovers))) {
        out << response << "\n";
      }
      out.flush();
    }
  }
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

  std::int64_t served = 0;
  while (!impl_->shutdown && (impl_->options.max_requests == 0 ||
                              served < impl_->options.max_requests)) {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) break;
    std::string buffer;
    char chunk[4096];
    std::deque<TimedLine> pending;
    std::vector<TimedLine> shed;
    const std::size_t limit = impl_->options.max_queue;
    // After an oversized partial line is answered, the remainder of that
    // line (bytes up to the next newline) is discarded, not re-parsed.
    bool skipping_oversize = false;
    const auto admit = [&](std::string text) {
      if (blank(text)) return;
      TimedLine tl{std::move(text), Clock::now()};
      if (limit > 0 && pending.size() >= limit) {
        tl.admission = Admission::ShedOverload;
        shed.push_back(std::move(tl));
      } else {
        pending.push_back(std::move(tl));
      }
    };
    const auto write_all = [&](const std::string& reply) {
      std::size_t written = 0;
      while (written < reply.size()) {
        const ssize_t w =
            ::write(fd, reply.data() + written, reply.size() - written);
        if (w <= 0) return false;
        written += static_cast<std::size_t>(w);
      }
      return true;
    };
    const auto respond = [&](std::vector<TimedLine> window) {
      std::string reply;
      for (const std::string& response : impl_->process(std::move(window))) {
        reply += response;
        reply += '\n';
      }
      return write_all(reply);
    };
    bool alive = true;
    while (alive && !impl_->shutdown) {
      // Block on read() only when nothing actionable is buffered: a client
      // that bursts more than one window of lines and then waits for its
      // replies must not deadlock on the server also waiting.
      if (pending.empty() && shed.empty()) {
        const ssize_t n = ::read(fd, chunk, sizeof chunk);
        if (n <= 0) break;
        buffer.append(chunk, static_cast<std::size_t>(n));
        std::size_t pos = 0;
        for (std::size_t nl = buffer.find('\n'); nl != std::string::npos;
             nl = buffer.find('\n', pos)) {
          std::string one = buffer.substr(pos, nl - pos);
          pos = nl + 1;
          if (skipping_oversize) {
            skipping_oversize = false;  // tail of the answered line; drop it
          } else {
            admit(std::move(one));
          }
        }
        buffer.erase(0, pos);
        if (skipping_oversize) {
          buffer.clear();  // still inside the oversized line
        } else if (buffer.size() > impl_->options.max_line_bytes &&
                   impl_->options.max_line_bytes > 0) {
          // Feed the oversized partial through the normal pipeline: the
          // parse-side length guard turns it into one accounted
          // `bad_request` reply, and we skip until its newline arrives.
          admit(std::move(buffer));
          buffer.clear();
          skipping_oversize = true;
        }
        if (pending.empty() && shed.empty()) continue;
      }
      impl_->note_queue_depth(pending.size());
      std::vector<TimedLine> window;
      while (static_cast<int>(window.size()) < impl_->options.window &&
             !pending.empty()) {
        window.push_back(std::move(pending.front()));
        pending.pop_front();
      }
      for (TimedLine& tl : shed) window.push_back(std::move(tl));
      shed.clear();
      served += static_cast<std::int64_t>(window.size());
      alive = respond(std::move(window));
    }
    // Bounded shutdown drain: answer everything this client already sent
    // (queued lines plus any complete buffered ones) with structured
    // `shutting_down` errors before closing.
    if (impl_->shutdown && alive) {
      std::size_t pos = 0;
      for (std::size_t nl = buffer.find('\n'); nl != std::string::npos;
           nl = buffer.find('\n', pos)) {
        std::string one = buffer.substr(pos, nl - pos);
        pos = nl + 1;
        if (skipping_oversize) {
          skipping_oversize = false;
        } else if (!blank(one)) {
          pending.push_back({std::move(one), Clock::now()});
        }
      }
      for (TimedLine& tl : shed) pending.push_back(std::move(tl));
      shed.clear();
      if (!pending.empty()) {
        std::vector<TimedLine> leftovers;
        leftovers.reserve(pending.size());
        for (TimedLine& tl : pending) {
          tl.admission = Admission::ShedShutdown;
          leftovers.push_back(std::move(tl));
        }
        pending.clear();
        (void)respond(std::move(leftovers));
      }
    }
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
