#pragma once
// Request-scoped span tracing for the serving/measurement path.
//
// The metrics layer (obs/metrics.hpp) answers "how much, in aggregate";
// the tracer answers "where did *this* request's time go".  A Tracer owns
// a fixed set of fixed-capacity span rings -- one per writer (thread-pool
// worker index; the window-driving thread is worker 0) -- recording
// completed spans `{trace_id, span_id, parent, name, track, t_start,
// t_end, attrs}`.  Design constraints:
//
//   * allocation-free on the hot path: rings and attr storage are
//     preallocated; record() copies one POD record under the ring's own
//     (uncontended) mutex and never allocates.  Span/attr names are
//     interned up front into stable slots (intern() is the cold path).
//   * bounded: a full ring drops its *oldest* span and bumps an exact
//     dropped-span counter, so a long-running server keeps the recent
//     window of spans and tells you precisely what it lost.
//   * sampled: trace ids are dense (begin_trace()), and sampled() keeps
//     every `sample_period`-th trace -- unsampled requests skip every
//     record() call, so the steady-state cost scales with the sample rate.
//   * zero cost when disabled: callers hold a Tracer* that is null when
//     tracing is off; every instrumentation site is a single pointer test.
//
// Exports: the `hetcomm.trace.v1` JSON artifact (to_json / write_json;
// tools/validate_trace checks the shape in CI) and a Chrome/Perfetto
// trace-event conversion (write_chrome_trace_artifact) that puts service
// spans and engine rank tracks on one timeline.  See docs/tracing.md.

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "obs/json.hpp"

namespace hetcomm::obs {

inline constexpr const char* kTraceSchema = "hetcomm.trace.v1";

/// One span attribute: an interned key with either an integer value or an
/// interned-string value.  Fixed-size so SpanRecord stays POD.
struct TraceAttr {
  std::uint16_t key = 0;     ///< intern slot of the attribute name
  bool is_string = false;    ///< value is an intern slot, not an integer
  std::int64_t value = 0;
};

/// A completed span.  Times are seconds since the owning Tracer's epoch
/// (steady clock).  `parent` is another span id in the same trace, or 0
/// for a root span.  `track` is a display lane: worker threads use their
/// worker index, engine ranks use kEngineTrackBase + rank.
struct SpanRecord {
  static constexpr int kMaxAttrs = 6;

  std::uint64_t trace_id = 0;
  std::uint32_t span_id = 0;
  std::uint32_t parent = 0;
  std::uint16_t name = 0;  ///< intern slot
  std::uint16_t track = 0;
  double t_start = 0.0;
  double t_end = 0.0;
  std::uint8_t num_attrs = 0;
  TraceAttr attrs[kMaxAttrs];

  /// Append an integer attribute (silently ignored beyond kMaxAttrs --
  /// a span never fails to record because a caller was chatty).
  void add_attr(std::uint16_t key, std::int64_t value) noexcept {
    if (num_attrs >= kMaxAttrs) return;
    attrs[num_attrs++] = {key, false, value};
  }
  /// Append an interned-string attribute.
  void add_attr_slot(std::uint16_t key, std::uint16_t value_slot) noexcept {
    if (num_attrs >= kMaxAttrs) return;
    attrs[num_attrs++] = {key, true, static_cast<std::int64_t>(value_slot)};
  }
};

/// Display tracks >= this are engine ranks (track - base == rank).
inline constexpr std::uint16_t kEngineTrackBase = 4096;

class Tracer {
 public:
  struct Options {
    /// Writer slots; callers record under their thread-pool worker index.
    int rings = 1;
    /// Spans retained per ring before drop-oldest kicks in.
    std::size_t ring_capacity = 8192;
    /// Keep every Nth trace (1 = everything).  Must be >= 1.
    std::uint64_t sample_period = 1;
  };

  explicit Tracer(Options options);
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] int num_rings() const noexcept;
  [[nodiscard]] std::size_t ring_capacity() const noexcept;
  [[nodiscard]] std::uint64_t sample_period() const noexcept;

  /// Allocate the next dense trace id (1, 2, 3, ...).  Thread-safe.
  [[nodiscard]] std::uint64_t begin_trace() noexcept;
  /// True when `trace_id`'s spans should be recorded (every
  /// sample_period-th id; id 0 is never sampled).
  [[nodiscard]] bool sampled(std::uint64_t trace_id) const noexcept;
  /// Allocate a span id, unique across the tracer's lifetime (never 0).
  [[nodiscard]] std::uint32_t new_span_id() noexcept;

  /// Intern a span/attr name into a stable slot (cold path; takes a lock).
  /// The table is bounded: past 4096 distinct names everything maps to the
  /// "<interned-names-exhausted>" slot instead of growing without bound.
  [[nodiscard]] std::uint16_t intern(std::string_view name);

  /// Name a display track for exports ("worker 0", "engine rank 3", ...).
  void name_track(std::uint16_t track, std::string_view name);

  /// Seconds since the tracer's construction (steady clock).
  [[nodiscard]] double now() const noexcept;
  [[nodiscard]] double seconds_since_epoch(
      std::chrono::steady_clock::time_point t) const noexcept;

  /// Record one completed span into ring `ring` (clamped into range).
  /// Allocation-free; drops the ring's oldest span when full.
  void record(int ring, const SpanRecord& span) noexcept;

  /// Record the finished span [t0, t1] of trace `trace_id` under `parent`
  /// into ring `ring`, shown on display track `track`, and return its id:
  /// a fresh one, or `span_id` for a root its children already name.
  /// Attributes past SpanRecord::kMaxAttrs are dropped.
  std::uint32_t record_span(int ring, std::uint64_t trace_id,
                            std::uint32_t parent, std::uint16_t name,
                            std::uint16_t track, double t0, double t1,
                            std::span<const TraceAttr> attrs = {},
                            std::uint32_t span_id = 0) noexcept;

  [[nodiscard]] std::int64_t dropped() const noexcept;
  [[nodiscard]] std::int64_t recorded() const noexcept;

  /// Snapshot every ring as the hetcomm.trace.v1 artifact.  Spans come out
  /// sorted by (trace_id, span_id) with names and attributes resolved.
  /// Safe to call while writers are active (each ring is locked in turn).
  [[nodiscard]] JsonValue to_json() const;
  void write_json(std::ostream& os) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// A tracer position: everything an instrumentation site needs to attach
/// spans to an in-flight trace.  A default-constructed (null-tracer)
/// context disables every helper, so call sites stay branch-only when
/// tracing is off.
struct TraceContext {
  Tracer* tracer = nullptr;
  int ring = 0;             ///< writer slot (worker index)
  std::uint64_t trace_id = 0;
  std::uint32_t parent = 0;
  std::uint16_t track = 0;  ///< display track for spans recorded here

  [[nodiscard]] explicit operator bool() const noexcept {
    return tracer != nullptr;
  }
  /// A child context parented under `span`.
  [[nodiscard]] TraceContext child(std::uint32_t span) const noexcept {
    TraceContext c = *this;
    c.parent = span;
    return c;
  }
};

/// RAII span: starts timing at construction, records at destruction.
/// Inactive (and free) when constructed from a null-tracer context.
class ScopedSpan {
 public:
  ScopedSpan() = default;
  ScopedSpan(const TraceContext& ctx, std::uint16_t name) noexcept;
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan();

  [[nodiscard]] bool active() const noexcept { return ctx_.tracer != nullptr; }
  /// This span's id (0 when inactive); use with TraceContext::child.
  [[nodiscard]] std::uint32_t id() const noexcept { return span_.span_id; }
  void add_attr(std::uint16_t key, std::int64_t value) noexcept {
    if (active()) span_.add_attr(key, value);
  }
  void add_attr_slot(std::uint16_t key, std::uint16_t slot) noexcept {
    if (active()) span_.add_attr_slot(key, slot);
  }

 private:
  TraceContext ctx_;
  SpanRecord span_;
};

/// Convert a parsed hetcomm.trace.v1 artifact into Chrome trace-event JSON
/// (load in Perfetto / chrome://tracing).  Tracks become threads of one
/// process; span attrs become event args.  Throws std::runtime_error on a
/// document that does not look like the trace artifact.
void write_chrome_trace_artifact(std::ostream& os, const JsonValue& artifact);

}  // namespace hetcomm::obs
