#include "benchutil/bench_options.hpp"

#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "obs/json.hpp"

namespace hetcomm::benchutil {

namespace {

[[noreturn]] void bad(const std::string& message) {
  throw std::invalid_argument(message);
}

/// Strict positive-integer parse: the whole token must be a number >= 1
/// (no "--reps x" silently becoming 0 via atoi).
long long parse_positive(const std::string& text, const char* flag) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (errno != 0 || end == text.c_str() || *end != '\0' || v < 1) {
    bad(std::string(flag) + " needs a positive integer, got '" + text + "'");
  }
  return v;
}

/// Only the exact spellings are accepted -- "compile", "Compiled" or other
/// near-misses abort with usage text rather than running the default path
/// under a misleading label.
core::ExecMode parse_engine(const std::string& text) {
  if (text == "compiled") return core::ExecMode::Compiled;
  if (text == "interpreted") return core::ExecMode::Interpreted;
  bad("--engine must be 'compiled' or 'interpreted', got '" + text + "'");
}

std::uint64_t parse_seed(const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end == text.c_str() || *end != '\0') {
    bad("--seed needs an unsigned integer, got '" + text + "'");
  }
  return static_cast<std::uint64_t>(v);
}

}  // namespace

BenchOptions BenchOptions::parse_tokens(const std::vector<std::string>& args,
                                        bool* help, bool metrics_supported) {
  BenchOptions opts;
  if (help != nullptr) *help = false;
  const auto value = [&](std::size_t& i,
                         const char* flag) -> const std::string& {
    if (i + 1 >= args.size()) bad(std::string("missing value for ") + flag);
    return args[++i];
  };
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--csv") {
      opts.csv = true;
    } else if (arg == "--quick") {
      opts.quick = true;
    } else if (arg == "--progress") {
      opts.progress = true;
    } else if (arg == "--reps") {
      opts.reps = static_cast<int>(parse_positive(value(i, "--reps"),
                                                  "--reps"));
    } else if (arg == "--jobs") {
      opts.jobs = static_cast<int>(parse_positive(value(i, "--jobs"),
                                                  "--jobs"));
    } else if (arg == "--seed") {
      opts.seed = parse_seed(value(i, "--seed"));
    } else if (arg == "--engine") {
      opts.engine = parse_engine(value(i, "--engine"));
    } else if (arg == "--metrics") {
      if (!metrics_supported) {
        bad("--metrics: this bench does not produce a metrics report "
            "(supported by micro_hetcomm, report_phase_breakdown, and "
            "'hetcomm report')");
      }
      const std::string& path = value(i, "--metrics");
      if (path.empty()) bad("--metrics needs a non-empty file path");
      opts.metrics_path = path;
    } else if (arg == "--help") {
      if (help != nullptr) {
        *help = true;
        return opts;
      }
      bad("--help");
    } else {
      bad("unknown flag '" + arg + "'");
    }
  }
  return opts;
}

BenchOptions BenchOptions::parse(int argc, char** argv,
                                 bool metrics_supported) {
  std::vector<std::string> args;
  args.reserve(argc > 0 ? static_cast<std::size_t>(argc) - 1 : 0);
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
  bool help = false;
  try {
    BenchOptions opts = parse_tokens(args, &help, metrics_supported);
    if (help) {
      std::cout << kUsage << "\n";
      std::exit(0);
    }
    return opts;
  } catch (const std::invalid_argument& e) {
    std::cerr << "bench: " << e.what() << "\n" << kUsage << "\n";
    std::exit(2);
  }
}

runtime::SweepOptions BenchOptions::sweep_options() const {
  runtime::SweepOptions so;
  so.jobs = jobs;
  so.progress = progress;
  return so;
}

void BenchOptions::emit(const Table& table, const std::string& title) const {
  if (csv) {
    std::cout << "# " << title << "\n";
    table.print_csv(std::cout);
  } else {
    banner(std::cout, title);
    table.print(std::cout);
  }
}

void write_metrics_file(const std::string& path,
                        const std::vector<obs::RunReport>& reports) {
  const obs::JsonValue doc = obs::make_metrics_document(reports);
  if (path == "-") {
    doc.dump(std::cout);
    return;
  }
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot open metrics file '" + path +
                             "' for writing");
  }
  doc.dump(out);
  if (!out) {
    throw std::runtime_error("failed writing metrics file '" + path + "'");
  }
}

}  // namespace hetcomm::benchutil
