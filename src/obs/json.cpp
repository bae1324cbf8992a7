#include "obs/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace hetcomm::obs {

namespace {

[[noreturn]] void kind_error(const char* want, JsonValue::Kind got) {
  throw std::runtime_error(std::string("JsonValue: expected ") + want +
                           ", got kind " +
                           std::to_string(static_cast<int>(got)));
}

}  // namespace

bool JsonValue::as_bool() const {
  if (kind_ != Kind::Bool) kind_error("bool", kind_);
  return bool_;
}

std::int64_t JsonValue::as_int() const {
  if (kind_ == Kind::Int) return int_;
  kind_error("int", kind_);
}

double JsonValue::as_double() const {
  if (kind_ == Kind::Int) return static_cast<double>(int_);
  if (kind_ == Kind::Double) return double_;
  kind_error("number", kind_);
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::String) kind_error("string", kind_);
  return string_;
}

std::size_t JsonValue::size() const noexcept {
  if (kind_ == Kind::Array) return array_.size();
  if (kind_ == Kind::Object) return object_.size();
  return 0;
}

const JsonValue& JsonValue::at(std::size_t index) const {
  if (kind_ != Kind::Array) kind_error("array", kind_);
  if (index >= array_.size()) {
    throw std::runtime_error("JsonValue: array index " +
                             std::to_string(index) + " out of range");
  }
  return array_[index];
}

const JsonValue* JsonValue::find(std::string_view key) const noexcept {
  if (kind_ != Kind::Object) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* v = find(key);
  if (v == nullptr) {
    throw std::runtime_error("JsonValue: missing key '" + std::string(key) +
                             "'");
  }
  return *v;
}

JsonValue& JsonValue::set(std::string key, JsonValue value) {
  if (kind_ != Kind::Object) kind_error("object", kind_);
  for (auto& [k, v] : object_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  object_.emplace_back(std::move(key), std::move(value));
  return *this;
}

JsonValue& JsonValue::push_back(JsonValue value) {
  if (kind_ != Kind::Array) kind_error("array", kind_);
  array_.push_back(std::move(value));
  return *this;
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonValue::dump_impl(std::ostream& os, int indent, int depth) const {
  const auto newline_pad = [&](int level) {
    if (indent <= 0) return;
    os << '\n';
    for (int i = 0; i < indent * level; ++i) os << ' ';
  };
  switch (kind_) {
    case Kind::Null: os << "null"; break;
    case Kind::Bool: os << (bool_ ? "true" : "false"); break;
    case Kind::Int: os << int_; break;
    case Kind::Double: {
      if (!std::isfinite(double_)) {
        // JSON has no Infinity/NaN; emit null rather than invalid tokens.
        os << "null";
        break;
      }
      // to_chars at max_digits10 is defined as printf("%.17g"): the bytes
      // an ostream at that precision writes, without building a stream.
      char buf[32];
      const std::to_chars_result res =
          std::to_chars(buf, buf + sizeof buf, double_,
                        std::chars_format::general,
                        std::numeric_limits<double>::max_digits10);
      os.write(buf, res.ptr - buf);
      break;
    }
    case Kind::String: os << '"' << json_escape(string_) << '"'; break;
    case Kind::Array: {
      if (array_.empty()) {
        os << "[]";
        break;
      }
      os << '[';
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) os << ',';
        newline_pad(depth + 1);
        array_[i].dump_impl(os, indent, depth + 1);
      }
      newline_pad(depth);
      os << ']';
      break;
    }
    case Kind::Object: {
      if (object_.empty()) {
        os << "{}";
        break;
      }
      os << '{';
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i > 0) os << ',';
        newline_pad(depth + 1);
        os << '"' << json_escape(object_[i].first) << "\": ";
        object_[i].second.dump_impl(os, indent, depth + 1);
      }
      newline_pad(depth);
      os << '}';
      break;
    }
  }
}

void JsonValue::dump(std::ostream& os, int indent) const {
  dump_impl(os, indent, 0);
  os << '\n';
}

std::string JsonValue::dump_string(int indent) const {
  std::ostringstream os;
  dump(os, indent);
  return os.str();
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    // Line/column context (1-based) so errors in hand-edited machine or
    // fault files point at the offending spot, not just a byte offset.
    std::size_t line = 1;
    std::size_t column = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        column = 1;
      } else {
        ++column;
      }
    }
    throw std::runtime_error("JSON parse error at line " +
                             std::to_string(line) + ", column " +
                             std::to_string(column) + " (byte " +
                             std::to_string(pos_) + "): " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return JsonValue(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return JsonValue(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return JsonValue(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return JsonValue(nullptr);
      default: return parse_number();
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("unterminated escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                fail("bad hex digit in \\u escape");
              }
            }
            // Reports only ever emit ASCII; decode BMP code points as UTF-8.
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default: fail("bad escape character");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string");
      } else {
        out += c;
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool is_double = false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_double = true;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-')) {
      fail("bad number");
    }
    const std::string token(text_.substr(start, pos_ - start));
    if (!is_double) {
      errno = 0;
      char* end = nullptr;
      const long long v = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end != nullptr && *end == '\0') {
        return JsonValue(static_cast<std::int64_t>(v));
      }
      // Fall through to double on overflow.
    }
    errno = 0;
    char* end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') fail("bad number '" + token + "'");
    if (!std::isfinite(d)) {
      // 1e999 etc.: reject instead of silently storing inf, which every
      // downstream validator would then have to defend against.
      fail("number '" + token + "' out of double range");
    }
    return JsonValue(d);
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue out = JsonValue::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return out;
    }
    for (;;) {
      out.push_back(parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return out;
      }
      fail("expected ',' or ']' in array");
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue out = JsonValue::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return out;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      // set() would silently overwrite, hiding typos in hand-edited files;
      // emitted documents never carry duplicates (set() dedups), so strict
      // parsing cannot break a round trip.
      if (out.find(key) != nullptr) {
        fail("duplicate object key \"" + key + "\"");
      }
      skip_ws();
      expect(':');
      out.set(std::move(key), parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return out;
      }
      fail("expected ',' or '}' in object");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue JsonValue::parse(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace hetcomm::obs
