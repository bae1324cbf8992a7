#pragma once
// hetcomm serve: the strategy advisor as a long-running service.
//
// A Service answers newline-delimited JSON requests -- "which strategy for
// this pattern on this machine, and how fast is it?" -- the way a
// production placement service would: persistent process, plan reuse, and
// windowed execution instead of one cold simulation per query.
//
// The performance core, in request order:
//
//   1. **Sharded compiled-plan cache** (runtime::ShardedLruCache keyed by
//      mix_seed over core::pattern_hash, the machine fingerprint, the node
//      count and the strategy name): a repeated query skips build_plan +
//      CompiledPlan construction entirely and goes straight to replay.  A
//      repeated {"random": ...} spec also skips generating, hashing and
//      summarizing its pattern: a bounded memo, sized like the pattern
//      registry, keeps each spec's pattern hash and statistics.
//   2. **Request windowing**: every request drained in one input window
//      shares one compile per distinct plan; its measured requests then
//      run as one core::RepRunner batch (the runner core::measure uses)
//      on the service's pool and engines: every repetition one pool task
//      seeded mix_seed(seed, k), each request folded in repetition order.
//      Responses are bit-identical to one-shot Advisor::rank +
//      core::measure for the same query at any --jobs / window size.
//   3. **Per-request accounting** reusing src/obs/: cache hits/misses,
//      queue wait, compile vs execute time and request latency p50/p99,
//      exported as the hetcomm.metrics.v1 serve artifact
//      (tools/validate_serve checks the shape in CI).
//
// Protocol (one JSON object per line; see docs/serve.md for the schema):
//
//   {"id": 7, "machine": "lassen", "nodes": 4,
//    "pattern": {"gpus": 16, "msgs": [[0, 5, 4096], ...]},
//    "strategy": "split+MD", "reps": 5, "seed": 1}
//
// Patterns may also be a file path, {"random": {...}} generator spec, or
// {"ref": "0x<hash>"} naming a pattern the service has already seen (every
// response echoes the pattern's fingerprint).  `reps: 0` answers with the
// model ranking only; `"rank": false` (with an explicit strategy) skips the
// advisor sweep and omits recommended/ranking -- the hot-path shape for
// measurement-only clients.  Control lines {"cmd": "stats"},
// {"cmd": "trace"} and {"cmd": "shutdown"} report live metrics / snapshot
// the span trace / stop the server.  Malformed requests produce
// {"ok": false, "error": ...} responses, never a dead server.
//
// Resilience (docs/serve.md "Resilience"): a bounded pending queue
// (`max_queue`) sheds excess load either with structured `overloaded`
// errors (ShedPolicy::Reject) or by answering from the Table-6 model layer
// alone -- no engine execution -- with `"degraded": true` plus a
// `"confidence"` score (ShedPolicy::Degrade).  Requests carry an optional
// `deadline_ms`; past-deadline work is cancelled between repetitions and
// answered `deadline_exceeded`, with
// the model ranking attached as `"partial"` when it was already computed.
// Every error reply names a machine-readable `error_code`
// (bad_request | overloaded | deadline_exceeded | shutting_down |
// fault_abort | internal), and overloaded / deadline_exceeded /
// shutting_down replies carry a `retry_after_ms` hint derived from the
// observed window drain rate.  {"cmd": "shutdown"} drains bounded: the
// shutdown's own window is answered normally, everything still queued or
// buffered gets a `shutting_down` error -- no request goes unanswered.
// An engine FaultAbort becomes a structured `fault_abort` error carrying
// the abort's strategy/src/dst/path/attempts; sibling requests in the
// same window are unaffected.  Control lines are never shed, so stats
// stay reachable under storm.  All of it is counted in the metrics
// artifact's `serve.resilience` section and exercised end-to-end by the
// chaos harness (serve/chaos.hpp, bench/serve_chaos.cpp).

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace hetcomm::serve {

/// What happens to data requests admitted beyond the pending-queue bound.
enum class ShedPolicy {
  /// Reply {"ok": false, "error_code": "overloaded", "retry_after_ms": N}.
  Reject,
  /// Answer from the strategy model + plan cache only (no engine work):
  /// {"ok": true, "degraded": true, "confidence": C, ...ranking...}.
  Degrade,
};

struct ServiceOptions {
  /// Worker threads executing measured requests (0 = hardware
  /// concurrency).
  int jobs = 0;
  /// Max requests drained into one batch window.  Input beyond the first
  /// line is taken only when already buffered, so an interactive client
  /// still gets per-request turnaround while a bursty producer batches.
  int window = 64;
  /// Compiled-plan cache geometry.  capacity 0 disables caching -- every
  /// query compiles; the serve_load bench uses that as the cold baseline.
  int cache_shards = 8;
  std::size_t cache_capacity = 256;
  /// Stop run() / run_socket() after this many data requests (0 =
  /// unlimited): lines that parse as data requests and were not shed.
  /// Control, malformed and shed lines do not count.  Checked between
  /// windows, so the window that crosses the limit is answered whole.  CI
  /// smoke uses this as a safety stop.
  std::int64_t max_requests = 0;
  /// Admission control: data requests pending beyond this bound are shed
  /// per `shed_policy` (0 = unbounded, the backward-compatible default).
  /// Control lines are never shed -- stats/shutdown work under storm.
  std::size_t max_queue = 0;
  /// What shedding does to over-bound requests (reject vs degrade).
  ShedPolicy shed_policy = ShedPolicy::Reject;
  /// Deadline applied to data requests that do not carry their own
  /// `deadline_ms` field (0 = none).  A request's explicit `deadline_ms: 0`
  /// expires immediately -- it parses and ranks, then answers
  /// `deadline_exceeded` with the ranking as `partial` (deterministic, the
  /// contract tests rely on it).
  std::int64_t default_deadline_ms = 0;
  /// Longest accepted socket request line in bytes; a client that streams
  /// more without a newline gets one `bad_request` error and its buffer
  /// dropped instead of growing the server's memory without bound.
  std::size_t max_line_bytes = 1u << 20;
  /// Machine used when a request names none.
  std::string default_machine = "lassen";
  /// Span tracing (hetcomm.trace.v1; see docs/tracing.md).  false = no
  /// tracer is constructed and every instrumentation site is one null
  /// check; true = record request/window span trees, sampled per request.
  bool trace = false;
  /// Keep every Nth request trace (1 = all).  Window-level traces sample
  /// on the same dense id sequence.
  std::uint64_t trace_sample = 1;
  /// Spans retained per worker ring before drop-oldest kicks in.
  std::size_t trace_ring_capacity = 8192;
};

class Service {
 public:
  explicit Service(ServiceOptions options = {});
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Answer one request line; returns the response line (no newline).
  /// Never throws on request errors -- they become error responses.
  [[nodiscard]] std::string handle_line(const std::string& line);

  /// Answer a window of request lines; responses come back in input
  /// order.  This is the windowing entry point: all measured requests in
  /// the window share compiles and run as one repetition batch.
  [[nodiscard]] std::vector<std::string> handle_window(
      const std::vector<std::string>& lines);

  /// NDJSON loop: drain up to `window` buffered lines per batch, write one
  /// response line each, flush per window.  Returns on EOF, on a shutdown
  /// request, or once max_requests data requests were answered.
  void run(std::istream& in, std::ostream& out);

  /// Serve the same protocol over a Unix-domain stream socket (one client
  /// at a time; returns when a client sends {"cmd": "shutdown"} or once
  /// max_requests data requests were answered).  Throws
  /// std::runtime_error when the socket cannot be created or bound.
  void run_socket(const std::string& path);

  [[nodiscard]] bool shutdown_requested() const noexcept;

  /// Live service metrics as the hetcomm.metrics.v1 serve artifact.
  [[nodiscard]] obs::JsonValue metrics_json() const;

  [[nodiscard]] bool tracing_enabled() const noexcept;

  /// Snapshot the span rings as the hetcomm.trace.v1 artifact (also
  /// reachable live via the {"cmd": "trace"} control line).  Throws
  /// std::logic_error when the service was built without tracing.
  [[nodiscard]] obs::JsonValue trace_json() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace hetcomm::serve
