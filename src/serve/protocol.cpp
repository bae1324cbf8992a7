#include "serve/protocol.hpp"

#include <string_view>
#include <utility>

#include "core/pattern_io.hpp"

namespace hetcomm::serve {

namespace {

/// Whether a reply with this code should tell the client when to retry.
bool carries_retry_hint(ErrorCode code) noexcept {
  return code == ErrorCode::Overloaded ||
         code == ErrorCode::DeadlineExceeded ||
         code == ErrorCode::ShuttingDown;
}

const char* abort_reason_name(FaultAbort::Reason reason) noexcept {
  switch (reason) {
    case FaultAbort::Reason::RetriesExhausted:
      return "retries_exhausted";
    case FaultAbort::Reason::NicUnavailable:
      return "nic_unavailable";
  }
  return "unknown";
}

/// `h` as replies echo fingerprints: "0x" + 16 lowercase hex digits.
std::string_view format_hash(char (&buf)[18], std::uint64_t h) {
  static constexpr char kHex[] = "0123456789abcdef";
  buf[0] = '0';
  buf[1] = 'x';
  for (int i = 17; i >= 2; --i, h >>= 4) buf[i] = kHex[h & 15];
  return {buf, sizeof buf};
}

/// The "recommended" and "ranking" members: the fastest strategy, then one
/// row {strategy, predicted_seconds, relative} per strategy, fastest first.
void write_ranking(obs::JsonWriter& w,
                   const std::vector<core::Recommendation>& ranking) {
  w.field("recommended", ranking.front().config.name());
  w.key("ranking").begin_array();
  for (const core::Recommendation& r : ranking) {
    w.begin_object()
        .field("strategy", r.config.name())
        .field("predicted_seconds", r.predicted_seconds)
        .field("relative", r.relative)
        .end_object();
  }
  w.end_array();
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

/// `value` as an int, checked against [lo, hi] while still 64-bit so an
/// out-of-range request can never narrow into range.
int int_in(const obs::JsonValue& value, std::int64_t lo, std::int64_t hi,
           const char* what) {
  const std::int64_t v = value.as_int();
  if (v < lo || v > hi) {
    throw std::invalid_argument(std::string(what) + " must be in [" +
                                std::to_string(lo) + ", " +
                                std::to_string(hi) + "]");
  }
  return static_cast<int>(v);
}

PatternSource parse_pattern(const obs::JsonValue* spec) {
  if (spec == nullptr) {
    throw std::invalid_argument(
        "request needs a pattern (inline object, file path, {\"random\": "
        "...} or {\"ref\": hash})");
  }
  PatternSource src;
  if (spec->is_string()) {
    src.kind = PatternSource::Kind::File;
    src.path = spec->as_string();
    return src;
  }
  if (!spec->is_object()) {
    throw std::invalid_argument("pattern must be a string or an object");
  }
  if (const obs::JsonValue* ref = spec->find("ref")) {
    if (spec->size() != 1) {
      throw std::invalid_argument("a pattern ref carries no other keys");
    }
    src.kind = PatternSource::Kind::Ref;
    src.ref = ref->is_string() ? parse_hash(ref->as_string())
                               : static_cast<std::uint64_t>(ref->as_int());
    return src;
  }
  if (const obs::JsonValue* rnd = spec->find("random")) {
    if (spec->size() != 1 || !rnd->is_object()) {
      throw std::invalid_argument(
          "random pattern spec: {\"random\": {\"msgs_per_gpu\": M, "
          "\"bytes\": B, \"seed\": S}}");
    }
    std::int64_t msgs = src.msgs_per_gpu;
    for (const auto& [key, value] : rnd->members()) {
      if (key == "msgs_per_gpu") {
        msgs = value.as_int();
      } else if (key == "bytes") {
        src.bytes = value.as_int();
      } else if (key == "seed") {
        src.seed = static_cast<std::uint64_t>(value.as_int());
      } else {
        throw std::invalid_argument("unknown random-pattern key '" + key +
                                    "'");
      }
    }
    if (msgs < 1 || src.bytes < 1) {
      throw std::invalid_argument(
          "random pattern needs msgs_per_gpu >= 1 and bytes >= 1");
    }
    if (msgs > kMaxPatternSize) {
      throw std::invalid_argument(
          "random pattern msgs_per_gpu must be at most " +
          std::to_string(kMaxPatternSize));
    }
    src.kind = PatternSource::Kind::Random;
    src.msgs_per_gpu = static_cast<int>(msgs);
    return src;
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
  const int num_gpus = int_in(*gpus, 1, kMaxPatternSize, "pattern gpus");
  core::CommPattern& pattern = src.pattern.emplace(num_gpus);
  for (const obs::JsonValue& triple : msgs->items()) {
    if (!triple.is_array() || triple.size() != 3) {
      throw std::invalid_argument("msgs entries are [src, dst, bytes]");
    }
    pattern.add(int_in(triple.at(0), 0, num_gpus - 1, "msgs GPU ids"),
                int_in(triple.at(1), 0, num_gpus - 1, "msgs GPU ids"),
                triple.at(2).as_int());
  }
  if (const obs::JsonValue* dedup = spec->find("dedup")) {
    for (const obs::JsonValue& triple : dedup->items()) {
      if (!triple.is_array() || triple.size() != 3) {
        throw std::invalid_argument(
            "dedup entries are [src_gpu, dst_node, bytes]");
      }
      pattern.set_node_dedup(
          int_in(triple.at(0), 0, num_gpus - 1, "dedup GPU ids"),
          int_in(triple.at(1), 0, 65535, "dedup node ids"),
          triple.at(2).as_int());
    }
  }
  return src;
}

}  // namespace

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

std::string hash_hex(std::uint64_t h) {
  char buf[18];
  return std::string(format_hash(buf, h));
}

void parse_request(const std::string& line, const ServiceOptions& options,
                   Request& req) {
  // Length guard before the JSON parse: the socket loop feeds an oversized
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

  const obs::JsonValue* m = doc.find("machine");
  req.machine_name = m != nullptr ? m->as_string() : options.default_machine;
  if (const obs::JsonValue* n = doc.find("nodes")) {
    req.nodes = int_in(*n, 1, 65536, "nodes");
  }
  if (const obs::JsonValue* r = doc.find("reps")) {
    req.reps = int_in(*r, 0, 100000, "reps");
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
    deadline_ms = int_in(*d, 0, 86400000, "deadline_ms");
  } else if (options.default_deadline_ms > 0) {
    deadline_ms = options.default_deadline_ms;
  }
  if (deadline_ms >= 0) {
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

  req.source = parse_pattern(doc.find("pattern"));

  if (const obs::JsonValue* strat = doc.find("strategy")) {
    req.has_strategy = true;
    req.strategy = core::parse_strategy(strat->as_string());
  }
  if (const obs::JsonValue* f = doc.find("faults")) {
    req.faults_path = f->as_string();
  }
}

std::string render(const Request& req, Clock::time_point done,
                   std::int64_t retry_after_ms,
                   const obs::JsonValue& control_body) {
  std::string line;
  obs::JsonWriter w(line);
  w.begin_object().field("id", req.id);
  // Every reply -- data, control or error -- reports its own latency so
  // clients never need to time the wire themselves.
  const double latency = seconds_between(req.enqueued, done);
  w.field("latency_seconds", latency);
  if (!req.error.empty()) {
    const ErrorCode code =
        req.code == ErrorCode::None ? ErrorCode::BadRequest : req.code;
    w.field("ok", false)
        .field("error", req.error)
        .field("error_code", error_code_name(code));
    if (carries_retry_hint(code)) w.field("retry_after_ms", retry_after_ms);
    if (req.fault) {
      w.key("fault")
          .begin_object()
          .field("reason", abort_reason_name(req.fault->reason))
          .field("strategy", req.fault->strategy)
          .field("src", req.fault->src)
          .field("dst", req.fault->dst)
          .field("path_id", req.fault->path_id)
          .field("path", req.fault->path)
          .field("attempts", req.fault->attempts)
          .end_object();
    }
    if (code == ErrorCode::DeadlineExceeded && !req.ranking.empty()) {
      // The model ranking was already computed when the deadline fired;
      // hand it over rather than discarding mid-flight work.
      w.key("partial").begin_object();
      write_ranking(w, req.ranking);
      w.end_object();
    }
    w.end_object();
    return line;
  }
  if (req.control) {
    if (req.cmd == "stats") {
      w.field("ok", true).field("stats", control_body);
    } else if (req.cmd == "trace") {
      if (control_body.is_null()) {
        w.field("ok", false)
            .field("error",
                   "tracing is disabled (start the server with --trace)");
      } else {
        w.field("ok", true).field("trace", control_body);
      }
    } else {
      w.field("ok", true).field("shutdown", true);
    }
    w.end_object();
    return line;
  }

  char hash[18];
  w.field("ok", true)
      .field("machine", req.machine->model.name)
      .field("nodes", req.nodes)
      .field("gpus", req.pattern->num_gpus())
      .field("pattern_hash", format_hash(hash, req.pattern_fp));
  if (!req.ranking.empty()) write_ranking(w, req.ranking);

  if (req.degraded) {
    // Model-only answer under load shedding: no engine work ran, so
    // there is no "measured" section; the ranking above *is* the reply.
    w.field("degraded", true)
        .field("confidence", req.confidence)
        .field("cache", req.plan_cached ? "hit" : "miss");
  } else if (req.reps > 0) {
    w.key("measured")
        .begin_object()
        .field("strategy", req.strategy.name())
        .field("reps", req.reps)
        .field("seed", static_cast<std::int64_t>(req.seed))
        .field("max_avg", req.max_avg)
        .key("makespan")
        .begin_object();
    req.makespan.for_each_field(
        [&w](const char* name, auto v) { w.field(name, v); });
    w.end_object().end_object();  // makespan, measured
    w.field("cache", req.cache_hit ? "hit" : "miss");
    if (req.compiled_here) w.field("compile_seconds", req.compile_seconds);
  }

  w.key("timing")
      .begin_object()
      .field("queue_wait_seconds", req.queue_wait_seconds)
      .field("compile_seconds", req.compiled_here ? req.compile_seconds : 0.0)
      .field("execute_seconds", req.execute_seconds)
      .field("latency_seconds", latency)
      .end_object()
      .end_object();
  return line;
}

}  // namespace hetcomm::serve
