#pragma once
// Minimal JSON document model and writer for the observability subsystem.
//
// The metrics run-report, the CI schema validator, and the trace-export
// tests all need to read and write small JSON documents without an external
// dependency.  JsonValue is an ordered DOM (object keys keep insertion
// order, so emitted reports are stable and diffable) with a strict
// recursive-descent parser: malformed input throws std::runtime_error with
// a line and column instead of yielding a half-parsed document.
//
// JsonWriter is the one JSON formatter in the program.  JsonValue::dump
// writes through it, and so do serve replies (serve/protocol.cpp), which
// stream their fields straight into the reply string without building a
// tree.  Every artifact and reply therefore formats numbers, strings and
// separators the same way.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hetcomm::obs {

class JsonValue {
 public:
  enum class Kind : std::uint8_t {
    Null,
    Bool,
    Int,     ///< exact 64-bit integer (counters, byte totals)
    Double,  ///< everything else numeric
    String,
    Array,
    Object,
  };

  JsonValue() noexcept : kind_(Kind::Null) {}
  JsonValue(std::nullptr_t) noexcept : kind_(Kind::Null) {}  // NOLINT
  JsonValue(bool b) noexcept : kind_(Kind::Bool), bool_(b) {}  // NOLINT
  JsonValue(int v) noexcept : kind_(Kind::Int), int_(v) {}  // NOLINT
  JsonValue(std::int64_t v) noexcept : kind_(Kind::Int), int_(v) {}  // NOLINT
  JsonValue(double v) noexcept : kind_(Kind::Double), double_(v) {}  // NOLINT
  JsonValue(std::string s) : kind_(Kind::String), string_(std::move(s)) {}  // NOLINT
  JsonValue(const char* s) : kind_(Kind::String), string_(s) {}  // NOLINT

  [[nodiscard]] static JsonValue array() {
    JsonValue v;
    v.kind_ = Kind::Array;
    return v;
  }
  [[nodiscard]] static JsonValue object() {
    JsonValue v;
    v.kind_ = Kind::Object;
    return v;
  }

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_null() const noexcept { return kind_ == Kind::Null; }
  [[nodiscard]] bool is_bool() const noexcept { return kind_ == Kind::Bool; }
  [[nodiscard]] bool is_number() const noexcept {
    return kind_ == Kind::Int || kind_ == Kind::Double;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return kind_ == Kind::String;
  }
  [[nodiscard]] bool is_array() const noexcept { return kind_ == Kind::Array; }
  [[nodiscard]] bool is_object() const noexcept {
    return kind_ == Kind::Object;
  }

  /// Typed accessors; throw std::runtime_error on a kind mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] std::int64_t as_int() const;
  [[nodiscard]] double as_double() const;  ///< Int promotes to double
  [[nodiscard]] const std::string& as_string() const;

  /// Array/object element count (0 for scalars).
  [[nodiscard]] std::size_t size() const noexcept;

  /// Array indexing; throws std::runtime_error when out of range.
  [[nodiscard]] const JsonValue& at(std::size_t index) const;
  [[nodiscard]] const std::vector<JsonValue>& items() const { return array_; }

  /// Object lookup: find() returns nullptr when absent, at() throws.
  [[nodiscard]] const JsonValue* find(std::string_view key) const noexcept;
  [[nodiscard]] const JsonValue& at(std::string_view key) const;
  [[nodiscard]] bool contains(std::string_view key) const noexcept {
    return find(key) != nullptr;
  }
  [[nodiscard]] const std::vector<std::pair<std::string, JsonValue>>& members()
      const {
    return object_;
  }

  /// Object mutation: sets (or overwrites) `key`, preserving first-insertion
  /// order.  Only valid on objects.
  JsonValue& set(std::string key, JsonValue value);
  /// Array mutation; only valid on arrays.
  JsonValue& push_back(JsonValue value);

  /// Serialize through JsonWriter, followed by a newline.  indent > 0
  /// pretty-prints with that many spaces per level; 0 emits a single line.
  void dump(std::ostream& os, int indent = 2) const;
  [[nodiscard]] std::string dump_string(int indent = 2) const;

  /// Strict parse of a complete JSON document (trailing garbage is an
  /// error).  Throws std::runtime_error with the line and column on bad
  /// input, including arrays and objects nested deeper than kMaxParseDepth.
  [[nodiscard]] static JsonValue parse(std::string_view text);

  /// Deepest nesting parse() accepts.  The deepest document the program
  /// reads or writes nests fewer than 10 levels; the bound keeps a hostile
  /// line of brackets from overflowing the parser's stack.
  static constexpr int kMaxParseDepth = 256;

 private:
  Kind kind_;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

/// Appends one JSON document to a string.  Scalars format as follows:
/// integers exactly; doubles by std::to_chars at max_digits10 in general
/// format (the bytes printf("%.17g") writes), so they round-trip;
/// non-finite doubles as null, which JSON has no other spelling for; strings
/// and keys escaped (quotes, backslashes, control characters), with the
/// unescaped runs between escapes copied in one append.  Members are
/// written `"key": value`, separated by a bare ','.  With indent > 0 every
/// member or element starts a new line indented `indent` spaces per level,
/// and empty containers print as {} and [].
///
/// The caller keeps the document well formed: key() inside objects before
/// each value, and every begin_* matched by its end_*.
class JsonWriter {
 public:
  explicit JsonWriter(std::string& out, int indent = 0) noexcept
      : out_(out), indent_(indent) {}

  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close(']'); }
  /// An object member's name; the next value or begin_* is its value.
  JsonWriter& key(std::string_view name);

  JsonWriter& value(std::nullptr_t);
  JsonWriter& value(bool b);
  JsonWriter& value(int v) { return value(std::int64_t{v}); }
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(double v);
  JsonWriter& value(std::string_view s);
  JsonWriter& value(const std::string& s) {
    return value(std::string_view(s));
  }
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(const JsonValue& v);

  /// key(name) followed by value(v).
  template <class T>
  JsonWriter& field(std::string_view name, const T& v) {
    key(name);
    return value(v);
  }

 private:
  JsonWriter& open(char bracket);
  JsonWriter& close(char bracket);
  /// The separator and indentation a value or key needs at this point.
  void element();
  void newline_pad(int level);

  std::string& out_;
  int indent_;
  int depth_ = 0;
  bool first_ = true;       ///< nothing written yet in the open container
  bool after_key_ = false;  ///< the next value belongs to a key
};

}  // namespace hetcomm::obs
