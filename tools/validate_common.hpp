#pragma once
// Shared plumbing of the tools/validate_* CI gates.
//
// Each validator supplies one `validate_file(path)` that prints
// "FILE: OK (...)" on success and throws on the first violation; run()
// is the whole main(): usage and exit 2 without arguments, exit 1 with a
// one-line "TOOL: diagnostic" on the first failing file, exit 0 when
// every file passes.  The field checks throw "FILE: what" diagnostics,
// so every validator words its errors the same way.

#include <cstdint>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "obs/json.hpp"

namespace hetcomm::validate {

using obs::JsonValue;

[[noreturn]] inline void fail(const std::string& file,
                              const std::string& what) {
  throw std::runtime_error(file + ": " + what);
}

/// obj[key], which must exist and have `kind`.
inline const JsonValue& require(const std::string& file, const JsonValue& obj,
                                const std::string& key, JsonValue::Kind kind) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) fail(file, "missing field \"" + key + "\"");
  if (v->kind() != kind) fail(file, "field \"" + key + "\" has wrong type");
  return *v;
}

/// obj[key], which must exist and be a number.  JSON has one number type,
/// so a double like exactly 1.0 parses back as Int: accept either kind.
inline const JsonValue& require_number(const std::string& file,
                                       const JsonValue& obj,
                                       const std::string& key) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) fail(file, "missing field \"" + key + "\"");
  if (v->kind() != JsonValue::Kind::Int &&
      v->kind() != JsonValue::Kind::Double) {
    fail(file, "field \"" + key + "\" is not a number");
  }
  return *v;
}

/// obj[key], which must be a non-negative integer; `where` names obj.
inline std::int64_t require_count(const std::string& file,
                                  const JsonValue& obj, const std::string& key,
                                  const std::string& where) {
  const std::int64_t n =
      require(file, obj, key, JsonValue::Kind::Int).as_int();
  if (n < 0) fail(file, where + "." + key + " must be >= 0");
  return n;
}

/// The whole of `file`, parsed by the strict obs JSON parser.
inline JsonValue read_json(const std::string& file) {
  std::ifstream in(file);
  if (!in) fail(file, "cannot open");
  std::ostringstream buf;
  buf << in.rdbuf();
  return JsonValue::parse(buf.str());
}

/// The validator's main(): `validate_file` on every argument in order.
inline int run(const char* tool, int argc, char** argv,
               void (*validate_file)(const std::string&)) {
  if (argc < 2) {
    std::cerr << "usage: " << tool << " FILE...\n";
    return 2;
  }
  try {
    for (int i = 1; i < argc; ++i) validate_file(argv[i]);
  } catch (const std::exception& e) {
    std::cerr << tool << ": " << e.what() << "\n";
    return 1;
  }
  return 0;
}

}  // namespace hetcomm::validate
