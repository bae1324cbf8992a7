#include "benchutil/bench_options.hpp"

#include <charconv>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <system_error>
#include <type_traits>

#include "obs/json.hpp"

namespace hetcomm::benchutil {

namespace {

[[noreturn]] void bad(const std::string& message) {
  throw std::invalid_argument(message);
}

}  // namespace

template <typename T>
T parse_number(const std::string& text, const char* flag) {
  T value{};
  const char* const last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, value);
  if (ec == std::errc::result_out_of_range) {
    bad(std::string(flag) + ": '" + text + "' is out of range");
  }
  if (ec != std::errc() || end != last) {
    const char* kind = std::is_floating_point_v<T> ? "a number"
                       : std::is_signed_v<T>       ? "an integer"
                                                   : "an unsigned integer";
    bad(std::string(flag) + " needs " + kind + ", got '" + text + "'");
  }
  return value;
}

template int parse_number<int>(const std::string&, const char*);
template std::int64_t parse_number<std::int64_t>(const std::string&,
                                                 const char*);
template std::uint64_t parse_number<std::uint64_t>(const std::string&,
                                                   const char*);
template double parse_number<double>(const std::string&, const char*);

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
    } else if (arg == "--reps" || arg == "--jobs") {
      const std::string& text = value(i, arg.c_str());
      const int n = parse_number<int>(text, arg.c_str());
      if (n < 1) bad(arg + " needs a positive integer, got '" + text + "'");
      (arg == "--reps" ? opts.reps : opts.jobs) = n;
    } else if (arg == "--seed") {
      opts.seed = parse_number<std::uint64_t>(value(i, "--seed"), "--seed");
    } else if (arg == "--metrics") {
      if (!metrics_supported) {
        bad("--metrics: this bench does not produce a metrics report "
            "(supported by report_phase_breakdown and 'hetcomm report')");
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
