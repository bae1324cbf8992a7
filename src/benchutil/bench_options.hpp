#pragma once
// Strict command-line options shared by every bench binary.
//
// Common flags:
//   --csv           emit CSV instead of aligned tables
//   --quick         reduce iteration counts / sweep sizes (CI-friendly)
//   --reps N        override repetition count (positive integer)
//   --jobs N        sweep worker threads (positive; default: hardware)
//   --seed S        base noise seed for reproducible runs
//   --progress      per-cell progress lines on stderr
//   --metrics FILE  write a hetcomm.metrics.v1 JSON run report to FILE
//
// Unknown flags and malformed values are hard errors -- a typo'd sweep must
// not silently run with default settings.  parse() is the process entry
// point (prints usage and exits 2 on error, 0 on --help); parse_tokens() is
// the same grammar as a throwing function, so tests can exercise the
// rejection paths in-process.  parse_number() is the numeric-value parser
// the benches, the hetcomm CLI, serve_load and serve_chaos share.

#include <cstdint>
#include <string>
#include <vector>

#include "benchutil/table.hpp"
#include "obs/run_report.hpp"
#include "runtime/sweep.hpp"

namespace hetcomm::benchutil {

struct BenchOptions {
  bool csv = false;
  bool quick = false;
  bool progress = false;
  int reps = -1;               ///< -1 = bench default
  int jobs = 0;                ///< sweep workers; 0 = hardware concurrency
  std::uint64_t seed = 0x5eedULL;
  /// --metrics FILE: write the run's metrics report here ("-" = stdout).
  /// Empty = no report.  Only binaries that actually build a RunReport
  /// opt in via `metrics_supported`; everywhere else --metrics is a hard
  /// parse error, so the flag can never be silently ignored.
  std::string metrics_path;

  static constexpr const char* kUsage =
      "flags: --csv --quick --progress --reps N --jobs N "
      "--seed S --metrics FILE";

  /// Parse argv-style tokens (program name excluded).  Throws
  /// std::invalid_argument on unknown flags, missing values, malformed
  /// numbers, or --metrics when `metrics_supported` is false; sets `*help`
  /// instead of exiting when --help is seen.
  static BenchOptions parse_tokens(const std::vector<std::string>& args,
                                   bool* help = nullptr,
                                   bool metrics_supported = false);

  /// Process entry point: parse_tokens() plus exit semantics -- usage text
  /// and exit(2) on any parse error, usage and exit(0) on --help.
  static BenchOptions parse(int argc, char** argv,
                            bool metrics_supported = false);

  /// SweepOptions carrying this run's --jobs / --progress settings.
  [[nodiscard]] runtime::SweepOptions sweep_options() const;

  /// True when --metrics was given (a report file is wanted).
  [[nodiscard]] bool wants_metrics() const noexcept {
    return !metrics_path.empty();
  }

  void emit(const Table& table, const std::string& title) const;
};

/// Strict numeric flag value: the whole token must be one base-10 number
/// (decimal or exponent form for double) that fits in T, so "2x", "1.9"
/// for an int, "-1" for an unsigned and "4294967298" for an int are all
/// errors rather than a silently truncated or wrapped value.  Throws
/// std::invalid_argument naming `flag`.  Instantiated for int,
/// std::int64_t, std::uint64_t and double; range minimums stay with the
/// caller.
template <typename T>
[[nodiscard]] T parse_number(const std::string& text, const char* flag);

/// Write `reports` as a hetcomm.metrics.v1 document to `path` ("-" =
/// stdout).  Throws std::runtime_error when the file cannot be written.
void write_metrics_file(const std::string& path,
                        const std::vector<obs::RunReport>& reports);

}  // namespace hetcomm::benchutil
