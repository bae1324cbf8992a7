#pragma once
// The serve wire protocol (docs/serve.md): parse_request() turns one NDJSON
// line into typed request fields and runs every syntax, type and range
// check, once, in one place; render() turns an answered Request into its
// reply line.  Both are pure functions of their arguments.  Resolving what
// a request names -- machine, topology, pattern registry, fault model,
// ranking, plan key -- is the Service's job (service.cpp).

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/advisor.hpp"
#include "core/comm_pattern.hpp"
#include "core/compiled_plan.hpp"
#include "core/strategy.hpp"
#include "hetsim/faults.hpp"
#include "machine/machine.hpp"
#include "obs/json.hpp"
#include "obs/run_report.hpp"
#include "serve/service.hpp"

namespace hetcomm::serve {

using Clock = std::chrono::steady_clock;

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
inline constexpr std::size_t kNumErrorCodes = 7;

[[nodiscard]] const char* error_code_name(ErrorCode code) noexcept;

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

/// Largest pattern a request may describe: the GPUs of an inline pattern,
/// and the messages a {"random": ...} spec generates (gpus x msgs_per_gpu).
inline constexpr std::int64_t kMaxPatternSize = std::int64_t{1} << 20;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// A pattern fingerprint as replies echo it ("0x" + 16 hex digits).
[[nodiscard]] std::string hash_hex(std::uint64_t h);

/// One resolved --machine argument, reused across requests.  The
/// fingerprint hashes the exact serialized model (hetcomm.machine.v1 dumps
/// doubles with max_digits10), so two machine files describing the same
/// calibration share cache entries and two differing in any parameter
/// never collide on purpose.
struct MachineEntry {
  machine::MachineModel model;
  std::uint64_t fingerprint = 0;
};

/// A data request's "pattern" field, parsed but not yet resolved.
struct PatternSource {
  enum class Kind : std::uint8_t { File, Ref, Random, Inline };
  Kind kind = Kind::Inline;
  std::string path;        ///< File
  std::uint64_t ref = 0;   ///< Ref: a fingerprint the registry may hold
  int msgs_per_gpu = 16;   ///< Random
  std::int64_t bytes = 4096;
  std::uint64_t seed = 1;
  /// Inline: built here once, then moved into the pattern registry.
  std::optional<core::CommPattern> pattern;
};

/// A request line: its parsed fields, what the Service resolved and
/// measured for it, and its reply timing.
struct Request {
  // -- parsed (parse_request) ---------------------------------------------
  obs::JsonValue id;  ///< echoed verbatim (null when absent)
  bool control = false;
  std::string cmd;           ///< "stats", "trace" or "shutdown" when control
  std::string machine_name;  ///< the "machine" field or the default
  int nodes = 8;
  PatternSource source;
  bool has_strategy = false;
  core::StrategyConfig strategy;
  std::optional<std::string> faults_path;  ///< the "faults" file, if any
  int reps = 0;  ///< 0 = predict-only
  std::uint64_t seed = 0x5eedULL;
  bool staged_only = false;
  /// "rank": false skips the Advisor sweep and omits recommended/ranking
  /// from the response -- the hot-path shape for clients that already know
  /// their strategy and only want measurements.  Needs an explicit
  /// strategy (the default strategy *is* the ranking winner).
  bool want_ranking = true;

  // -- resolved (Service) ---------------------------------------------------
  const MachineEntry* machine = nullptr;
  std::uint64_t engine_key = 0;  ///< (machine, nodes)
  std::shared_ptr<const core::CommPattern> pattern;
  std::uint64_t pattern_fp = 0;
  std::shared_ptr<const FaultModel> faults;
  std::uint64_t plan_key = 0;

  // -- resilience ------------------------------------------------------------
  Admission admission = Admission::Normal;
  bool degraded = false;    ///< answered from the model layer, no engine
  double confidence = 0.0;  ///< degraded replies: model top-2 separation
  bool plan_cached = false; ///< degraded replies: plan was cache-resident
  std::optional<Clock::time_point> deadline;

  // -- outcome ----------------------------------------------------------------
  std::string error;  ///< nonempty = error response
  ErrorCode code = ErrorCode::None;
  /// fault_abort replies: the engine's abort, strategy filled in.
  std::optional<FaultAbort> fault;
  std::vector<core::Recommendation> ranking;
  std::shared_ptr<const core::CompiledPlan> plan;
  bool cache_hit = false;      ///< measured request served without a compile
  bool compiled_here = false;  ///< this request ran the builder
  double compile_seconds = 0.0;  ///< its build_plan + compile wall time
  // per-request measured reduction
  double max_avg = 0.0;
  obs::Summary makespan;

  // -- timing -----------------------------------------------------------------
  Clock::time_point enqueued;
  double queue_wait_seconds = 0.0;
  double execute_seconds = 0.0;  ///< wall time of its repetitions

  // -- tracing (0 = this request is not sampled) ------------------------------
  std::uint64_t trace_id = 0;
  std::uint32_t trace_root = 0;  ///< preallocated root `request` span id
};

/// Parse `line` into `req`'s parsed fields (and its deadline, counted from
/// `req.enqueued`).  Reads `req.admission`: a shed data line throws its
/// ServeError here, after the line proved to be a data request and before
/// any expensive work.  Throws ServeError or std::exception on bad input.
void parse_request(const std::string& line, const ServiceOptions& options,
                   Request& req);

/// The reply line (no newline) for an answered request.  `retry_after_ms`
/// is the hint overloaded / deadline_exceeded / shutting_down replies
/// carry; `control_body` is what a stats or trace line returns (null for
/// trace when tracing is off).
[[nodiscard]] std::string render(const Request& req, Clock::time_point done,
                                 std::int64_t retry_after_ms,
                                 obs::JsonValue control_body);

/// Ranking rows {strategy, predicted_seconds, relative}, fastest first.
[[nodiscard]] obs::JsonValue ranking_json(
    const std::vector<core::Recommendation>& ranking);

}  // namespace hetcomm::serve
