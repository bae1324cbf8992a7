#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "ladder.hpp"

namespace ladder {

namespace {

using hetcomm::obs::JsonValue;
using hetcomm::obs::TraceContext;
using hetcomm::obs::Tracer;

constexpr int kMaxRings = 256;

int this_thread_index() {
  static std::atomic<int> next{0};
  thread_local const int index = next.fetch_add(1) % kMaxRings;
  return index;
}

Tracer::Options tracer_options(int rings) {
  Tracer::Options o;
  o.rings = std::clamp(rings, 1, kMaxRings);
  o.ring_capacity = std::size_t{1} << 16;
  o.sample_period = 1;
  return o;
}

bool simulated_time(const std::string& name) {
  return name.rfind("engine.", 0) == 0;
}

}  // namespace

BenchTracer::BenchTracer(int rings) : tracer_(tracer_options(rings)) {
  for (int r = 0; r < tracer_.num_rings(); ++r) {
    tracer_.name_track(static_cast<std::uint16_t>(r),
                       "ladder thread " + std::to_string(r));
  }
}

TraceContext BenchTracer::root() {
  TraceContext ctx;
  ctx.tracer = &tracer_;
  ctx.trace_id = tracer_.begin_trace();
  return on_this_thread(ctx);
}

TraceContext on_this_thread(TraceContext ctx) {
  if (!ctx) return ctx;
  const int ring = this_thread_index() % ctx.tracer->num_rings();
  ctx.ring = ring;
  ctx.track = static_cast<std::uint16_t>(ring);
  return ctx;
}

const SpanStat& SpanAnalysis::get(const std::string& name) const {
  static const SpanStat empty;
  const auto it = by_name.find(name);
  return it == by_name.end() ? empty : it->second;
}

SpanAnalysis analyze_spans(const JsonValue& trace) {
  SpanAnalysis out;
  out.dropped = trace.at("meta").at("dropped").as_int();
  const JsonValue& spans = trace.at("spans");

  struct Row {
    std::int64_t trace = 0;
    std::int64_t parent = 0;
    double t0 = 0.0;
    double t1 = 0.0;
    const std::string* name = nullptr;
    std::vector<std::pair<double, double>> children;
  };
  std::vector<Row> rows;
  rows.reserve(spans.size());
  std::map<std::pair<std::int64_t, std::int64_t>, std::size_t> by_id;
  for (const JsonValue& s : spans.items()) {
    const std::string& name = s.at("name").as_string();
    if (simulated_time(name)) continue;
    Row row;
    row.trace = s.at("trace").as_int();
    row.parent = s.at("parent").as_int();
    row.t0 = s.at("t_start").as_double();
    row.t1 = s.at("t_end").as_double();
    row.name = &name;
    by_id.emplace(std::make_pair(row.trace, s.at("span").as_int()),
                  rows.size());
    rows.push_back(std::move(row));
  }
  for (const Row& row : rows) {
    if (row.parent == 0) continue;
    const auto it = by_id.find({row.trace, row.parent});
    if (it != by_id.end()) {
      rows[it->second].children.emplace_back(row.t0, row.t1);
    }
  }
  for (Row& row : rows) {
    // Self time: the span's interval minus the union of its children's
    // intervals clipped to it.
    std::sort(row.children.begin(), row.children.end());
    double covered = 0.0;
    double reach = row.t0;
    for (auto [c0, c1] : row.children) {
      c0 = std::max(c0, reach);
      c1 = std::min(c1, row.t1);
      if (c1 > c0) {
        covered += c1 - c0;
        reach = c1;
      }
    }
    const double dur = std::max(0.0, row.t1 - row.t0);
    const double self = std::max(0.0, dur - covered);
    SpanStat& st = out.by_name[*row.name];
    st.count += 1;
    st.busy_seconds += dur;
    st.self_seconds += self;
    st.durations.push_back(dur);
    st.self_durations.push_back(self);
    out.spans += 1;
  }
  return out;
}

void write_trace_file(const std::string& path, const JsonValue& trace) {
  if (path.empty()) return;
  std::ofstream os(path);
  trace.dump(os);
  if (!os) throw std::runtime_error("cannot write " + path);
}

std::string layer_of(const std::string& name) {
  static const std::unordered_map<std::string, std::string> exact = {
      {"measure", "core"},         {"measure.compile", "core"},
      {"cache.build", "core"},     {"measure.block", "hetsim"},
      {"serve.block", "hetsim"},   {"cache.lookup", "runtime"},
      {"pool.wait", "runtime"},    {"pool.run", "runtime"},
  };
  if (const auto it = exact.find(name); it != exact.end()) return it->second;
  for (const char* layer : {"sparse", "core", "hetsim", "runtime", "fault",
                            "serve", "obs", "client"}) {
    const std::string prefix = std::string(layer) + ".";
    if (name.rfind(prefix, 0) == 0) return layer;
  }
  // The service's own request/window spans.
  return "serve";
}

void print_layer_table(std::ostream& os, const SpanAnalysis& analysis) {
  char line[200];
  std::snprintf(line, sizeof line, "%-8s %-22s %9s %11s %11s %12s %8s\n",
                "layer", "span", "count", "busy_s", "self_s", "p50_us", "n");
  os << line;
  for (const auto& [name, st] : analysis.by_name) {
    const Timing t = summarize(st.durations);
    std::snprintf(line, sizeof line,
                  "%-8s %-22s %9lld %11.6f %11.6f %12.3f %8lld\n",
                  layer_of(name).c_str(), name.c_str(),
                  static_cast<long long>(st.count), st.busy_seconds,
                  st.self_seconds, t.median * 1e6,
                  static_cast<long long>(t.n));
    os << line;
  }
  os << "spans " << analysis.spans << ", dropped " << analysis.dropped
     << " (engine.* spans carry scaled simulated time and are excluded)\n";
}

JsonValue layer_table_json(const SpanAnalysis& analysis) {
  JsonValue rows = JsonValue::array();
  for (const auto& [name, st] : analysis.by_name) {
    JsonValue row = JsonValue::object();
    row.set("span", name);
    row.set("layer", layer_of(name));
    row.set("count", st.count);
    row.set("busy_s", st.busy_seconds);
    row.set("self_s", st.self_seconds);
    row.set("duration", to_json(summarize(st.durations)));
    row.set("self", to_json(summarize(st.self_durations)));
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace ladder
