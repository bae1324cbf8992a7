#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <ostream>
#include <stdexcept>
#include <unordered_map>
#include <vector>

namespace hetcomm::obs {

namespace {

/// Intern table bound: a tracer is for span *kinds*, not payloads; a site
/// that interns unbounded strings (error messages) saturates into one
/// overflow slot instead of growing the table forever.
constexpr std::size_t kMaxInterned = 4096;

/// One drop-oldest span ring.  `head` is the oldest element once the ring
/// has wrapped; records land at (head + size) % capacity.
struct Ring {
  mutable std::mutex mu;
  std::vector<SpanRecord> slots;
  std::size_t head = 0;
  std::size_t size = 0;
  std::int64_t dropped = 0;
  std::int64_t recorded = 0;
};

}  // namespace

struct Tracer::Impl {
  Options options;
  std::chrono::steady_clock::time_point epoch;
  std::vector<std::unique_ptr<Ring>> rings;
  std::atomic<std::uint64_t> next_trace{1};
  std::atomic<std::uint32_t> next_span{1};

  mutable std::mutex names_mu;
  std::vector<std::string> names;  ///< slot -> name
  std::unordered_map<std::string, std::uint16_t> name_slots;
  std::unordered_map<std::uint16_t, std::string> track_names;
};

Tracer::Tracer(Options options) : impl_(std::make_unique<Impl>()) {
  if (options.rings < 1) {
    throw std::invalid_argument("Tracer: rings must be >= 1");
  }
  if (options.ring_capacity < 1) {
    throw std::invalid_argument("Tracer: ring_capacity must be >= 1");
  }
  if (options.sample_period < 1) {
    throw std::invalid_argument("Tracer: sample_period must be >= 1");
  }
  impl_->options = options;
  impl_->epoch = std::chrono::steady_clock::now();
  impl_->rings.reserve(static_cast<std::size_t>(options.rings));
  for (int r = 0; r < options.rings; ++r) {
    auto ring = std::make_unique<Ring>();
    ring->slots.resize(options.ring_capacity);
    impl_->rings.push_back(std::move(ring));
  }
  // Slot 0 is reserved (= "no name"); the overflow slot comes right after
  // so exports never index past the table.
  impl_->names.reserve(64);
  impl_->names.emplace_back("<unnamed>");
  impl_->names.emplace_back("<interned-names-exhausted>");
}

Tracer::~Tracer() = default;

int Tracer::num_rings() const noexcept {
  return static_cast<int>(impl_->rings.size());
}

std::size_t Tracer::ring_capacity() const noexcept {
  return impl_->options.ring_capacity;
}

std::uint64_t Tracer::sample_period() const noexcept {
  return impl_->options.sample_period;
}

std::uint64_t Tracer::begin_trace() noexcept {
  return impl_->next_trace.fetch_add(1, std::memory_order_relaxed);
}

bool Tracer::sampled(std::uint64_t trace_id) const noexcept {
  if (trace_id == 0) return false;
  return (trace_id - 1) % impl_->options.sample_period == 0;
}

std::uint32_t Tracer::new_span_id() noexcept {
  return impl_->next_span.fetch_add(1, std::memory_order_relaxed);
}

std::uint32_t Tracer::record_span(int ring, std::uint64_t trace_id,
                                  std::uint32_t parent, std::uint16_t name,
                                  std::uint16_t track, double t0, double t1,
                                  std::span<const TraceAttr> attrs,
                                  std::uint32_t span_id) noexcept {
  SpanRecord s;
  s.trace_id = trace_id;
  s.span_id = span_id != 0 ? span_id : new_span_id();
  s.parent = parent;
  s.name = name;
  s.track = track;
  s.t_start = t0;
  s.t_end = t1;
  for (const TraceAttr& a : attrs.first(
           std::min<std::size_t>(attrs.size(), SpanRecord::kMaxAttrs))) {
    s.attrs[s.num_attrs++] = a;
  }
  record(ring, s);
  return s.span_id;
}

std::uint16_t Tracer::intern(std::string_view name) {
  std::lock_guard<std::mutex> lock(impl_->names_mu);
  const std::string key(name);
  auto it = impl_->name_slots.find(key);
  if (it != impl_->name_slots.end()) return it->second;
  if (impl_->names.size() >= kMaxInterned) return 1;  // overflow slot
  const std::uint16_t slot = static_cast<std::uint16_t>(impl_->names.size());
  impl_->names.push_back(key);
  impl_->name_slots.emplace(key, slot);
  return slot;
}

void Tracer::name_track(std::uint16_t track, std::string_view name) {
  std::lock_guard<std::mutex> lock(impl_->names_mu);
  impl_->track_names[track] = std::string(name);
}

double Tracer::now() const noexcept {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       impl_->epoch)
      .count();
}

double Tracer::seconds_since_epoch(
    std::chrono::steady_clock::time_point t) const noexcept {
  return std::chrono::duration<double>(t - impl_->epoch).count();
}

void Tracer::record(int ring, const SpanRecord& span) noexcept {
  const std::size_t n = impl_->rings.size();
  Ring& r = *impl_->rings[static_cast<std::size_t>(ring) % n];
  std::lock_guard<std::mutex> lock(r.mu);
  ++r.recorded;
  if (r.size == r.slots.size()) {
    // Drop the oldest span: overwrite the head slot and advance.
    r.slots[r.head] = span;
    r.head = (r.head + 1) % r.slots.size();
    ++r.dropped;
    return;
  }
  r.slots[(r.head + r.size) % r.slots.size()] = span;
  ++r.size;
}

std::int64_t Tracer::dropped() const noexcept {
  std::int64_t total = 0;
  for (const auto& r : impl_->rings) {
    std::lock_guard<std::mutex> lock(r->mu);
    total += r->dropped;
  }
  return total;
}

std::int64_t Tracer::recorded() const noexcept {
  std::int64_t total = 0;
  for (const auto& r : impl_->rings) {
    std::lock_guard<std::mutex> lock(r->mu);
    total += r->recorded;
  }
  return total;
}

JsonValue Tracer::to_json() const {
  // Snapshot rings one at a time (writers on other rings keep going), then
  // resolve names under the intern lock.
  std::vector<SpanRecord> spans;
  std::int64_t total_dropped = 0;
  for (const auto& r : impl_->rings) {
    std::lock_guard<std::mutex> lock(r->mu);
    for (std::size_t i = 0; i < r->size; ++i) {
      spans.push_back(r->slots[(r->head + i) % r->slots.size()]);
    }
    total_dropped += r->dropped;
  }
  std::sort(spans.begin(), spans.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              if (a.trace_id != b.trace_id) return a.trace_id < b.trace_id;
              return a.span_id < b.span_id;
            });

  std::vector<std::string> names;
  std::vector<std::pair<std::uint16_t, std::string>> tracks;
  {
    std::lock_guard<std::mutex> lock(impl_->names_mu);
    names = impl_->names;
    tracks.assign(impl_->track_names.begin(), impl_->track_names.end());
  }
  std::sort(tracks.begin(), tracks.end());
  const auto name_of = [&](std::uint16_t slot) -> const std::string& {
    return names[slot < names.size() ? slot : 1];
  };

  JsonValue doc = JsonValue::object();
  doc.set("schema", kTraceSchema);
  JsonValue meta = JsonValue::object();
  meta.set("rings", static_cast<std::int64_t>(impl_->rings.size()));
  meta.set("ring_capacity",
           static_cast<std::int64_t>(impl_->options.ring_capacity));
  meta.set("sample_period",
           static_cast<std::int64_t>(impl_->options.sample_period));
  meta.set("spans", static_cast<std::int64_t>(spans.size()));
  meta.set("dropped", total_dropped);
  doc.set("meta", std::move(meta));

  JsonValue track_doc = JsonValue::object();
  for (const auto& [track, label] : tracks) {
    track_doc.set(std::to_string(track), label);
  }
  doc.set("tracks", std::move(track_doc));

  JsonValue out = JsonValue::array();
  for (const SpanRecord& s : spans) {
    JsonValue row = JsonValue::object();
    row.set("trace", static_cast<std::int64_t>(s.trace_id));
    row.set("span", static_cast<std::int64_t>(s.span_id));
    row.set("parent", static_cast<std::int64_t>(s.parent));
    row.set("name", name_of(s.name));
    row.set("track", static_cast<std::int64_t>(s.track));
    row.set("t_start", s.t_start);
    row.set("t_end", s.t_end);
    if (s.num_attrs > 0) {
      JsonValue attrs = JsonValue::object();
      for (int a = 0; a < s.num_attrs; ++a) {
        const TraceAttr& attr = s.attrs[a];
        if (attr.is_string) {
          attrs.set(name_of(attr.key),
                    name_of(static_cast<std::uint16_t>(attr.value)));
        } else {
          attrs.set(name_of(attr.key), attr.value);
        }
      }
      row.set("attrs", std::move(attrs));
    }
    out.push_back(std::move(row));
  }
  doc.set("spans", std::move(out));
  return doc;
}

void Tracer::write_json(std::ostream& os) const {
  to_json().dump(os);
  os << "\n";
}

ScopedSpan::ScopedSpan(const TraceContext& ctx, std::uint16_t name) noexcept {
  if (ctx.tracer == nullptr) return;
  ctx_ = ctx;
  span_.trace_id = ctx.trace_id;
  span_.span_id = ctx.tracer->new_span_id();
  span_.parent = ctx.parent;
  span_.name = name;
  span_.track = ctx.track;
  span_.t_start = ctx.tracer->now();
}

ScopedSpan::~ScopedSpan() {
  if (ctx_.tracer == nullptr) return;
  span_.t_end = ctx_.tracer->now();
  ctx_.tracer->record(ctx_.ring, span_);
}

void write_chrome_trace_artifact(std::ostream& os, const JsonValue& artifact) {
  const JsonValue* schema = artifact.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != kTraceSchema) {
    throw std::runtime_error(std::string("expected a ") + kTraceSchema +
                             " document");
  }
  const JsonValue& spans = artifact.at("spans");
  os << "{\"traceEvents\": [\n";
  bool first = true;
  const auto sep = [&] {
    if (!first) os << ",\n";
    first = false;
  };
  sep();
  os << "  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, "
        "\"tid\": 0, \"args\": {\"name\": \"hetcomm\"}}";
  if (const JsonValue* tracks = artifact.find("tracks")) {
    for (const auto& [track, label] : tracks->members()) {
      sep();
      os << "  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, "
         << "\"tid\": " << track << ", \"args\": {\"name\": \""
         << json_escape(label.as_string()) << "\"}}";
    }
  }
  for (const JsonValue& s : spans.items()) {
    const double t0 = s.at("t_start").as_double();
    const double t1 = s.at("t_end").as_double();
    sep();
    os << "  {\"name\": \"" << json_escape(s.at("name").as_string())
       << "\", \"cat\": \"span\", \"ph\": \"X\", \"pid\": 0, \"tid\": "
       << s.at("track").as_int() << ", \"ts\": " << t0 * 1e6
       << ", \"dur\": " << std::max(0.0, t1 - t0) * 1e6 << ", \"args\": {"
       << "\"trace\": " << s.at("trace").as_int()
       << ", \"span\": " << s.at("span").as_int()
       << ", \"parent\": " << s.at("parent").as_int();
    if (const JsonValue* attrs = s.find("attrs")) {
      for (const auto& [key, value] : attrs->members()) {
        os << ", \"" << json_escape(key) << "\": ";
        if (value.is_string()) {
          os << "\"" << json_escape(value.as_string()) << "\"";
        } else {
          os << value.dump_string(0);
        }
      }
    }
    os << "}}";
  }
  os << "\n]}\n";
}

}  // namespace hetcomm::obs
