#pragma once
// Span helpers for the ladder's traced runs: recording spans around layer
// calls from the benchmark's own code, and reducing a hetcomm.trace.v1
// document into per-span-name count / busy / self time.

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace ladder {

/// A tracer whose rings are shared by the benchmark's threads: each thread
/// records into a ring picked once per thread, so pool workers rarely
/// contend on a ring lock.
class BenchTracer {
 public:
  explicit BenchTracer(int rings);

  [[nodiscard]] hetcomm::obs::Tracer& tracer() noexcept { return tracer_; }
  /// Context rooting a fresh trace on the calling thread's ring.
  [[nodiscard]] hetcomm::obs::TraceContext root();

 private:
  hetcomm::obs::Tracer tracer_;
};

/// `ctx` moved onto the calling thread's ring and track (a null context
/// stays null).
[[nodiscard]] hetcomm::obs::TraceContext on_this_thread(
    hetcomm::obs::TraceContext ctx);

/// Per-span-name reduction of a trace.  Spans named engine.* carry
/// simulated time scaled into a wall interval, not host time, and are
/// left out (neither counted nor subtracted as children).
struct SpanStat {
  std::int64_t count = 0;
  double busy_seconds = 0.0;  ///< summed durations
  double self_seconds = 0.0;  ///< summed duration minus covered by children
  std::vector<double> durations;
  std::vector<double> self_durations;
};

struct SpanAnalysis {
  std::map<std::string, SpanStat> by_name;
  std::int64_t spans = 0;
  std::int64_t dropped = 0;

  [[nodiscard]] const SpanStat& get(const std::string& name) const;
};

[[nodiscard]] SpanAnalysis analyze_spans(const hetcomm::obs::JsonValue& trace);

/// Write a hetcomm.trace.v1 document to `path` ("" writes nothing).
void write_trace_file(const std::string& path,
                      const hetcomm::obs::JsonValue& trace);

/// The module a span name belongs to; unprefixed names are the service's.
[[nodiscard]] std::string layer_of(const std::string& span_name);

/// Human-readable layer table: one row per span name with its layer,
/// count, busy and self time, and median duration with its sample count.
void print_layer_table(std::ostream& os, const SpanAnalysis& analysis);
[[nodiscard]] hetcomm::obs::JsonValue layer_table_json(
    const SpanAnalysis& analysis);

}  // namespace ladder
