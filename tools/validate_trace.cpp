// Validator for hetcomm.trace.v1 span artifacts (the file
// `hetcomm serve --trace FILE` / `hetcomm report --trace FILE` writes,
// Service::trace_json() / obs::Tracer::to_json()).
//
// Usage: validate_trace FILE...
//
// Parses each file with the strict obs JSON parser and checks the schema
// contract CI relies on: schema tag, meta block (ring geometry, sampling
// period, span/drop counters consistent with the span array), a track
// table every span's track id resolves into, and per-span invariants --
// positive ids, interned names, t_end >= t_start.  When the artifact is
// lossless (meta.dropped == 0) it additionally checks the tree structure:
// every parent id resolves within the same trace and children nest inside
// their parent's interval.  Exits non-zero with a one-line diagnostic on
// the first violation so a malformed trace artifact fails the pipeline
// instead of uploading.

#include <cstdint>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/trace.hpp"
#include "validate_common.hpp"

namespace hetcomm::validate {
namespace {

void validate_file(const std::string& file) {
  const JsonValue doc = read_json(file);

  const std::string schema =
      require(file, doc, "schema", JsonValue::Kind::String).as_string();
  if (schema != obs::kTraceSchema) {
    fail(file, "unexpected schema \"" + schema + "\"");
  }

  const JsonValue& meta = require(file, doc, "meta", JsonValue::Kind::Object);
  if (require_count(file, meta, "rings", "meta") < 1) {
    fail(file, "meta.rings must be >= 1");
  }
  if (require_count(file, meta, "ring_capacity", "meta") < 1) {
    fail(file, "meta.ring_capacity must be >= 1");
  }
  if (require_count(file, meta, "sample_period", "meta") < 1) {
    fail(file, "meta.sample_period must be >= 1");
  }
  const std::int64_t meta_spans = require_count(file, meta, "spans", "meta");
  const std::int64_t dropped = require_count(file, meta, "dropped", "meta");

  const JsonValue& tracks =
      require(file, doc, "tracks", JsonValue::Kind::Object);
  std::map<std::int64_t, std::string> track_labels;
  for (const auto& [key, label] : tracks.members()) {
    std::int64_t id = 0;
    try {
      std::size_t used = 0;
      id = std::stoll(key, &used);
      if (used != key.size()) throw std::invalid_argument(key);
    } catch (const std::exception&) {
      fail(file, "tracks key \"" + key + "\" is not an integer");
    }
    if (id < 0) fail(file, "tracks key \"" + key + "\" must be >= 0");
    if (label.kind() != JsonValue::Kind::String ||
        label.as_string().empty()) {
      fail(file, "track " + key + " needs a non-empty string label");
    }
    track_labels.emplace(id, label.as_string());
  }

  const JsonValue& spans =
      require(file, doc, "spans", JsonValue::Kind::Array);
  if (meta_spans != static_cast<std::int64_t>(spans.size())) {
    fail(file, "meta.spans disagrees with the span array length");
  }

  // First pass: per-span invariants, plus the (trace, span) -> index table
  // the tree checks need.
  std::map<std::pair<std::int64_t, std::int64_t>, std::size_t> by_id;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const JsonValue& s = spans.at(i);
    const std::string where = "spans[" + std::to_string(i) + "]";
    if (!s.is_object()) fail(file, where + " is not an object");
    const std::int64_t trace = require_count(file, s, "trace", where);
    const std::int64_t span = require_count(file, s, "span", where);
    if (trace < 1) fail(file, where + ".trace must be >= 1");
    if (span < 1) fail(file, where + ".span must be >= 1");
    require_count(file, s, "parent", where);
    const std::string name =
        require(file, s, "name", JsonValue::Kind::String).as_string();
    if (name.empty()) fail(file, where + ".name must be non-empty");
    const std::int64_t track = require_count(file, s, "track", where);
    if (track_labels.find(track) == track_labels.end()) {
      fail(file, where + ".track " + std::to_string(track) +
                     " has no entry in tracks");
    }
    const double t0 = require_number(file, s, "t_start").as_double();
    const double t1 = require_number(file, s, "t_end").as_double();
    if (t1 < t0) fail(file, where + " ends before it starts");
    if (const JsonValue* attrs = s.find("attrs");
        attrs != nullptr && !attrs->is_object()) {
      fail(file, where + ".attrs is not an object");
    }
    if (!by_id.emplace(std::make_pair(trace, span), i).second) {
      fail(file, where + " duplicates span id " + std::to_string(span) +
                     " in trace " + std::to_string(trace));
    }
  }

  // Second pass (lossless artifacts only -- drop-oldest rings may evict a
  // parent while its children survive): parents resolve and contain their
  // children.  The tolerance absorbs clock-read ordering at span edges.
  if (dropped == 0) {
    constexpr double kTol = 1e-6;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const JsonValue& s = spans.at(i);
      const std::int64_t parent = s.at("parent").as_int();
      if (parent == 0) continue;
      const std::string where = "spans[" + std::to_string(i) + "]";
      const auto it =
          by_id.find(std::make_pair(s.at("trace").as_int(), parent));
      if (it == by_id.end()) {
        fail(file, where + ".parent " + std::to_string(parent) +
                       " does not exist in trace " +
                       std::to_string(s.at("trace").as_int()));
      }
      const JsonValue& p = spans.at(it->second);
      if (s.at("t_start").as_double() < p.at("t_start").as_double() - kTol ||
          s.at("t_end").as_double() > p.at("t_end").as_double() + kTol) {
        fail(file, where + " (" + s.at("name").as_string() +
                       ") does not nest inside its parent (" +
                       p.at("name").as_string() + ")");
      }
    }
  }

  std::cout << file << ": OK (" << spans.size() << " span"
            << (spans.size() == 1 ? "" : "s") << ", " << track_labels.size()
            << " track" << (track_labels.size() == 1 ? "" : "s") << ", "
            << dropped << " dropped)\n";
}

}  // namespace
}  // namespace hetcomm::validate

int main(int argc, char** argv) {
  return hetcomm::validate::run("validate_trace", argc, argv,
                                hetcomm::validate::validate_file);
}
