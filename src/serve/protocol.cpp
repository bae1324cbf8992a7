#include "serve/protocol.hpp"

#include <cstdio>
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

/// Render a document as one NDJSON line (dump() appends a newline; the
/// transport frames lines itself).
std::string to_line(const obs::JsonValue& doc) {
  std::string text = doc.dump_string(0);
  text.pop_back();
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
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(h));
  return std::string(buf);
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

obs::JsonValue ranking_json(const std::vector<core::Recommendation>& ranking) {
  obs::JsonValue rows = obs::JsonValue::array();
  for (const core::Recommendation& r : ranking) {
    obs::JsonValue row = obs::JsonValue::object();
    row.set("strategy", r.config.name());
    row.set("predicted_seconds", r.predicted_seconds);
    row.set("relative", r.relative);
    rows.push_back(std::move(row));
  }
  return rows;
}

std::string render(const Request& req, Clock::time_point done,
                   std::int64_t retry_after_ms, obs::JsonValue control_body) {
  obs::JsonValue doc = obs::JsonValue::object();
  doc.set("id", req.id);
  // Every reply -- data, control or error -- reports its own latency so
  // clients never need to time the wire themselves.
  const double latency = seconds_between(req.enqueued, done);
  doc.set("latency_seconds", latency);
  if (!req.error.empty()) {
    const ErrorCode code =
        req.code == ErrorCode::None ? ErrorCode::BadRequest : req.code;
    doc.set("ok", false);
    doc.set("error", req.error);
    doc.set("error_code", error_code_name(code));
    if (carries_retry_hint(code)) doc.set("retry_after_ms", retry_after_ms);
    if (req.fault) {
      obs::JsonValue fault = obs::JsonValue::object();
      fault.set("reason", abort_reason_name(req.fault->reason));
      fault.set("strategy", req.fault->strategy);
      fault.set("src", req.fault->src);
      fault.set("dst", req.fault->dst);
      fault.set("path_id", req.fault->path_id);
      fault.set("path", req.fault->path);
      fault.set("attempts", req.fault->attempts);
      doc.set("fault", std::move(fault));
    }
    if (code == ErrorCode::DeadlineExceeded && !req.ranking.empty()) {
      // The model ranking was already computed when the deadline fired;
      // hand it over rather than discarding mid-flight work.
      obs::JsonValue partial = obs::JsonValue::object();
      partial.set("recommended", req.ranking.front().config.name());
      partial.set("ranking", ranking_json(req.ranking));
      doc.set("partial", std::move(partial));
    }
    return to_line(doc);
  }
  doc.set("ok", true);
  if (req.control) {
    if (req.cmd == "stats") {
      doc.set("stats", std::move(control_body));
    } else if (req.cmd == "trace") {
      if (control_body.is_null()) {
        doc.set("ok", false);
        doc.set("error",
                "tracing is disabled (start the server with --trace)");
      } else {
        doc.set("trace", std::move(control_body));
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
    doc.set("ranking", ranking_json(req.ranking));
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
    if (req.compiled_here) doc.set("compile_seconds", req.compile_seconds);
  }

  obs::JsonValue timing = obs::JsonValue::object();
  timing.set("queue_wait_seconds", req.queue_wait_seconds);
  timing.set("compile_seconds", req.compiled_here ? req.compile_seconds : 0.0);
  timing.set("execute_seconds", req.execute_seconds);
  timing.set("latency_seconds", latency);
  doc.set("timing", std::move(timing));
  return to_line(doc);
}

}  // namespace hetcomm::serve
