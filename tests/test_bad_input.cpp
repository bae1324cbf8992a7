// Malformed-input hardening: every file in tests/data/bad/ must produce a
// structured std::invalid_argument -- with the file path in the message,
// and line/column context for parse errors -- from the direct loaders, and
// exit code 2 (never a crash, hang, or silent default) from the CLI.
//
// The corpus covers the JSON parser (truncation, NaN/Inf literals,
// overflow, duplicate keys, bad escapes, trailing garbage, non-object
// documents, empty files), schema versioning (unknown machine/fault schema
// tags), and semantic validation (bad probabilities, bad retry policies,
// path classes the target machine does not declare).
//
// tests/data/bad_mtx/ holds malformed Matrix Market files for `--matrix`:
// indices outside the header, unparsable entries, size lines that overflow
// or would allocate without bound, and truncated entry lists.  It is a
// directory of its own because bench/serve_chaos --bad-dir feeds every file
// of tests/data/bad/ to the server as a request line.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli/cli.hpp"
#include "fault/fault_json.hpp"
#include "machine/machine_json.hpp"
#include "obs/json.hpp"
#include "serve/service.hpp"
#include "sparse/matrix_market.hpp"

#ifndef HETCOMM_TEST_DATA_DIR
#error "HETCOMM_TEST_DATA_DIR must point at tests/data"
#endif

namespace hetcomm {
namespace {

enum class Loader { Machine, Fault };

struct BadInput {
  const char* file;       ///< relative to tests/data/bad/
  Loader loader;          ///< which direct loader rejects it
  const char* expect;     ///< substring the diagnostic must contain
};

const BadInput kCorpus[] = {
    {"truncated.json", Loader::Machine, "line"},
    {"overflow_number.json", Loader::Machine, "out of double range"},
    {"duplicate_key.json", Loader::Machine, "duplicate object key"},
    {"unknown_schema.json", Loader::Machine, "hetcomm.machine.v99"},
    {"not_an_object.json", Loader::Machine, ""},
    {"empty.json", Loader::Machine, "line"},
    {"bad_escape.json", Loader::Machine, "line"},
    {"nan_literal.json", Loader::Machine, "line"},
    {"trailing_garbage.json", Loader::Machine, "line"},
    {"fault_unknown_schema.json", Loader::Fault, "hetcomm.fault.v99"},
    {"fault_bad_probability.json", Loader::Fault, "probability"},
    {"fault_bad_retry.json", Loader::Fault, "max_attempts"},
};

std::string bad_path(const char* file) {
  return std::string(HETCOMM_TEST_DATA_DIR) + "/bad/" + file;
}

TEST(BadInput, DirectLoadersRejectWithStructuredErrors) {
  for (const BadInput& c : kCorpus) {
    const std::string path = bad_path(c.file);
    try {
      if (c.loader == Loader::Machine) {
        (void)machine::load_machine_file(path);
      } else {
        (void)fault::load_fault_file(path);
      }
      FAIL() << c.file << ": expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(path), std::string::npos)
          << c.file << ": diagnostic must name the file: " << what;
      if (*c.expect != '\0') {
        EXPECT_NE(what.find(c.expect), std::string::npos)
            << c.file << ": diagnostic must mention \"" << c.expect
            << "\": " << what;
      }
    }
    // No other exception type may escape; the try above fails the test on
    // anything that is not invalid_argument (including crashes under ASan).
  }
}

TEST(BadInput, CliExitsTwoOnEveryCorpusFile) {
  for (const BadInput& c : kCorpus) {
    const std::string path = bad_path(c.file);
    std::ostringstream out;
    std::ostringstream err;
    const std::vector<std::string> args =
        c.loader == Loader::Machine
            ? std::vector<std::string>{"machine", "validate", "--machine",
                                       path}
            : std::vector<std::string>{"ranking-stability", "--nodes", "2",
                                       "--faults", path};
    EXPECT_EQ(cli::main_guarded(args, out, err), 2) << c.file;
    EXPECT_NE(err.str().find("hetcomm: "), std::string::npos) << c.file;
    EXPECT_NE(err.str().find(path), std::string::npos)
        << c.file << ": stderr must name the offending file: " << err.str();
  }
}

struct BadMatrix {
  const char* file;    ///< relative to tests/data/bad_mtx/
  const char* expect;  ///< substring the diagnostic must contain
};

const BadMatrix kMatrixCorpus[] = {
    {"entry_out_of_range.mtx", "line 4: entry (9,1) outside the 4 x 4"},
    {"zero_index.mtx", "line 4: entry (0,2)"},
    {"bad_entry_line.mtx", "line 4: bad entry line"},
    {"missing_value.mtx", "line 4: missing value"},
    {"symmetric_count_overflow.mtx",
     "line 2: entry count 4611686018427387904 outside [0, 16]"},
    {"huge_dimensions.mtx", "line 2: dimensions 1000000000000 x 4"},
    {"zero_dimension.mtx", "line 2: dimensions 0 x 4"},
    {"more_entries_than_cells.mtx", "line 2: entry count 5 outside [0, 4]"},
    {"symmetric_not_square.mtx", "line 2: a symmetric matrix must be square"},
    {"truncated.mtx", "truncated entry list: 2 of 4"},
    {"array_format.mtx", "line 1: unsupported header"},
    {"missing_size_line.mtx", "missing size line"},
};

std::string bad_matrix_path(const char* file) {
  return std::string(HETCOMM_TEST_DATA_DIR) + "/bad_mtx/" + file;
}

TEST(BadInput, MatrixMarketLoaderRejectsWithStructuredErrors) {
  for (const BadMatrix& c : kMatrixCorpus) {
    const std::string path = bad_matrix_path(c.file);
    try {
      (void)sparse::read_matrix_market_file(path);
      FAIL() << c.file << ": expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(path), std::string::npos)
          << c.file << ": diagnostic must name the file: " << what;
      EXPECT_NE(what.find(c.expect), std::string::npos)
          << c.file << ": diagnostic must mention \"" << c.expect
          << "\": " << what;
    }
  }
}

TEST(BadInput, CliExitsTwoOnEveryMatrixMarketCorpusFile) {
  std::vector<std::string> paths;
  for (const BadMatrix& c : kMatrixCorpus) {
    paths.push_back(bad_matrix_path(c.file));
  }
  paths.push_back(bad_matrix_path("no_such_file.mtx"));
  for (const std::string& path : paths) {
    std::ostringstream out;
    std::ostringstream err;
    EXPECT_EQ(cli::main_guarded({"compare", "--matrix", path, "--nodes", "1",
                                 "--reps", "1"},
                                out, err),
              2)
        << path << ": " << err.str();
    EXPECT_NE(err.str().find(path), std::string::npos)
        << "stderr must name the offending file: " << err.str();
  }
}

TEST(BadInput, UndeclaredPathClassIsAnInputError) {
  // fault_unknown_path.json is schema-valid; it fails *compilation* against
  // a machine whose taxonomy lacks the class -- still exit 2.
  const std::string path = bad_path("fault_unknown_path.json");
  const fault::FaultPlan plan = fault::load_fault_file(path);  // loads fine
  EXPECT_EQ(plan.link_degradations.size(), 1u);

  std::ostringstream out;
  std::ostringstream err;
  const int rc = cli::main_guarded(
      {"ranking-stability", "--machine", "lassen", "--nodes", "2", "--reps",
       "2", "--faults", path},
      out, err);
  EXPECT_EQ(rc, 2);
  EXPECT_NE(err.str().find("warp-drive"), std::string::npos) << err.str();
  EXPECT_NE(err.str().find(path), std::string::npos) << err.str();
}

// Nesting deeper than the parser's bound.  100,000 levels is what a parser
// that recurses without a bound overflows its stack on; the bound makes it
// a parse error at the first level past it, with the usual line and column.
const std::string kDeepNesting(100000, '[');
constexpr int kDeepDepth = obs::JsonValue::kMaxParseDepth;

std::string write_deep_file(const char* name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream(path) << "\n" << kDeepNesting;
  return path;
}

TEST(BadInput, ParserBoundsNestingDepth) {
  const std::string within = std::string(kDeepDepth, '[') +
                             std::string(kDeepDepth, ']');
  EXPECT_EQ(obs::JsonValue::parse(within).size(), 1u);
  try {
    (void)obs::JsonValue::parse("{\"a\": " + std::string(kDeepDepth, '['));
    FAIL() << "expected a nesting error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "line 1, column " + std::to_string(kDeepDepth + 6)),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("nest deeper than"),
              std::string::npos)
        << e.what();
  }
}

TEST(BadInput, DirectLoadersRejectDeepNesting) {
  const std::string machine = write_deep_file("deep_machine.json");
  const std::string faults = write_deep_file("deep_faults.json");
  const std::string where =
      "line 2, column " + std::to_string(kDeepDepth + 1);
  try {
    (void)machine::load_machine_file(machine);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(machine), std::string::npos);
    EXPECT_NE(std::string(e.what()).find(where), std::string::npos)
        << e.what();
  }
  try {
    (void)fault::load_fault_file(faults);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(faults), std::string::npos);
    EXPECT_NE(std::string(e.what()).find(where), std::string::npos)
        << e.what();
  }
}

TEST(BadInput, CliExitsTwoOnDeepNesting) {
  const std::string machine = write_deep_file("deep_cli_machine.json");
  const std::string faults = write_deep_file("deep_cli_faults.json");
  const std::vector<std::string> cases[] = {
      {"machine", "validate", "--machine", machine},
      {"compare", "--machine", machine, "--nodes", "2"},
      {"ranking-stability", "--nodes", "2", "--faults", faults},
  };
  for (const std::vector<std::string>& args : cases) {
    std::ostringstream out;
    std::ostringstream err;
    EXPECT_EQ(cli::main_guarded(args, out, err), 2) << args[0];
    EXPECT_NE(err.str().find("nest deeper than"), std::string::npos)
        << args[0] << ": " << err.str();
  }
}

TEST(BadInput, ServeAnswersDeepNestingWithBadRequest) {
  serve::Service service;
  const obs::JsonValue reply =
      obs::JsonValue::parse(service.handle_line(kDeepNesting));
  EXPECT_FALSE(reply.at("ok").as_bool());
  EXPECT_EQ(reply.at("error_code").as_string(), "bad_request");
  EXPECT_NE(reply.at("error").as_string().find("nest deeper than"),
            std::string::npos)
      << reply.at("error").as_string();
  // The server keeps answering.
  const obs::JsonValue stats =
      obs::JsonValue::parse(service.handle_line(R"({"cmd": "stats"})"));
  EXPECT_TRUE(stats.at("ok").as_bool());
}

}  // namespace
}  // namespace hetcomm
