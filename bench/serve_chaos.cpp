// serve_chaos: chaos/soak harness for the `hetcomm serve` resilience
// layer (docs/serve.md "Resilience"; the machinery is serve/chaos.hpp).
//
// Drives a live serve::Service through a seeded adversarial schedule --
// a 4x-capacity request storm with ~10% malformed lines, deterministic
// FaultAbort patterns (--faults), randomized deadline mixes, slow /
// disconnecting / oversized socket clients, and a shutdown with queued
// requests -- and fails (exit 1) if any resilience invariant breaks:
// a lost or duplicated reply, unbalanced stats counters, a baseline
// reply that is not bit-identical to one-shot, or degraded answers
// disagreeing with the engine-measured winner on < 80% of the hot set.
//
// Full runs additionally gate post-storm throughput at >= 0.9x baseline
// (the ISSUE-10 acceptance bar); --duration-short skips that wall-clock
// gate so sanitizer CI jobs stay noise-proof.
//
// Flags (strict; unknown flags are hard errors):
//   --duration-short   small schedule for CI sanitizer jobs
//   --seed N           master schedule seed (default 1)
//   --requests N       steady-state requests per phase
//   --storm-factor N   storm size as a multiple of --max-queue (default 4)
//   --max-queue N      admission bound of the service under test
//   --shed-policy P    reject (default) | degrade
//   --faults FILE      hetcomm.fault.v1 plan for the FaultAbort slice
//                      (e.g. faults/flaky_abort.json)
//   --bad-dir DIR      mix in every file under DIR as a malformed line
//                      (newlines collapsed; e.g. tests/data/bad)
//   --no-socket        skip the unix-socket client phase
//   --json FILE        write the hetcomm.serve_chaos.v1 report ("-" = stdout)

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "benchutil/bench_options.hpp"
#include "serve/chaos.hpp"

namespace {

using hetcomm::benchutil::parse_number;

struct ChaosArgs {
  bool duration_short = false;
  bool no_socket = false;
  std::uint64_t seed = 1;
  int requests = -1;  ///< -1 = mode default
  int storm_factor = 4;
  int max_queue = -1;  ///< -1 = mode default
  std::string shed_policy = "reject";
  std::string faults_path;
  std::string bad_dir;
  std::string json_path;
};

constexpr const char* kUsage =
    "usage: serve_chaos [--duration-short] [--seed N] [--requests N]\n"
    "                   [--storm-factor N] [--max-queue N]\n"
    "                   [--shed-policy reject|degrade] [--faults FILE]\n"
    "                   [--bad-dir DIR] [--no-socket] [--json FILE]";

ChaosArgs parse_args(int argc, char** argv) {
  ChaosArgs args;
  const auto value = [&](int& i) -> std::string {
    if (i + 1 >= argc) {
      throw std::invalid_argument(std::string(argv[i]) + " needs a value");
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--duration-short") {
      args.duration_short = true;
    } else if (arg == "--no-socket") {
      args.no_socket = true;
    } else if (arg == "--seed") {
      args.seed = parse_number<std::uint64_t>(value(i), "--seed");
    } else if (arg == "--requests") {
      args.requests = parse_number<int>(value(i), "--requests");
      if (args.requests < 1) {
        throw std::invalid_argument("--requests must be >= 1");
      }
    } else if (arg == "--storm-factor") {
      args.storm_factor = parse_number<int>(value(i), "--storm-factor");
      if (args.storm_factor < 1) {
        throw std::invalid_argument("--storm-factor must be >= 1");
      }
    } else if (arg == "--max-queue") {
      args.max_queue = parse_number<int>(value(i), "--max-queue");
      if (args.max_queue < 1) {
        throw std::invalid_argument("--max-queue must be >= 1");
      }
    } else if (arg == "--shed-policy") {
      args.shed_policy = value(i);
      if (args.shed_policy != "reject" && args.shed_policy != "degrade") {
        throw std::invalid_argument("--shed-policy must be reject|degrade");
      }
    } else if (arg == "--faults") {
      args.faults_path = value(i);
    } else if (arg == "--bad-dir") {
      args.bad_dir = value(i);
    } else if (arg == "--json") {
      args.json_path = value(i);
    } else if (arg == "--help") {
      std::cout << kUsage << "\n";
      std::exit(0);
    } else {
      throw std::invalid_argument("unknown flag " + arg);
    }
  }
  return args;
}

/// Every file under `dir` flattened to one (malformed) request line.
std::vector<std::string> load_bad_corpus(const std::string& dir) {
  std::vector<std::string> lines;
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());  // deterministic rotation order
  for (const auto& path : paths) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot read " + path.string());
    std::stringstream buffer;
    buffer << in.rdbuf();
    std::string flat = buffer.str();
    for (char& c : flat) {
      if (c == '\n' || c == '\r') c = ' ';
    }
    lines.push_back(std::move(flat));
  }
  return lines;
}

}  // namespace

int main(int argc, char** argv) {
  ChaosArgs args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "serve_chaos: " << e.what() << "\n" << kUsage << "\n";
    return 2;
  }

  try {
    hetcomm::serve::chaos::ChaosOptions opts;
    opts.seed = args.seed;
    opts.storm_factor = args.storm_factor;
    opts.requests = args.requests > 0 ? args.requests
                    : args.duration_short ? 32
                                          : 160;
    opts.max_queue = args.max_queue > 0 ? static_cast<std::size_t>(
                                              args.max_queue)
                     : args.duration_short ? 8
                                           : 16;
    opts.hot_patterns = args.duration_short ? 4 : 8;
    opts.shed_policy = args.shed_policy == "degrade"
                           ? hetcomm::serve::ShedPolicy::Degrade
                           : hetcomm::serve::ShedPolicy::Reject;
    opts.faults_path = args.faults_path;
    opts.socket_phase = !args.no_socket;
    if (!args.bad_dir.empty()) {
      opts.malformed_extra = load_bad_corpus(args.bad_dir);
    }

    const hetcomm::serve::chaos::ChaosReport report =
        hetcomm::serve::chaos::run_chaos(opts);

    const double qps_ratio = report.qps_baseline > 0.0
                                 ? report.qps_post_storm / report.qps_baseline
                                 : 0.0;
    std::cout << "serve_chaos: seed " << report.seed << ", "
              << report.sent_total << " lines sent, "
              << report.answered_total << " answered\n"
              << "  baseline " << report.qps_baseline << " qps, post-storm "
              << report.qps_post_storm << " qps (" << qps_ratio
              << "x; CPU per request recovery " << report.recovery_ratio
              << "x)\n"
              << "  degraded agreement " << report.degraded_agreement
              << ", counters " << (report.counters_balanced ? "balanced" :
                                   "UNBALANCED")
              << ", mismatched replies " << report.mismatched_replies << "\n";
    for (const auto& code : report.reply_codes) {
      std::cout << "  error_code " << code.first << ": " << code.second
                << "\n";
    }

    bool failed = !report.passed();
    for (const std::string& v : report.violations) {
      std::cerr << "serve_chaos: VIOLATION: " << v << "\n";
    }
    if (!args.duration_short && qps_ratio < 0.9) {
      std::cerr << "serve_chaos: VIOLATION: post-storm throughput "
                << qps_ratio << "x baseline (< 0.9x)\n";
      failed = true;
    }
    if (!args.faults_path.empty()) {
      bool saw_abort = false;
      for (const auto& code : report.reply_codes) {
        if (code.first == "fault_abort" && code.second > 0) saw_abort = true;
      }
      if (!saw_abort) {
        std::cerr << "serve_chaos: VIOLATION: --faults given but no "
                     "fault_abort reply was observed\n";
        failed = true;
      }
    }

    if (!args.json_path.empty()) {
      const hetcomm::obs::JsonValue doc = report.to_json();
      if (args.json_path == "-") {
        doc.dump(std::cout);
        std::cout << "\n";
      } else {
        std::ofstream out(args.json_path);
        if (!out) throw std::runtime_error("cannot write " + args.json_path);
        doc.dump(out);
        out << "\n";
      }
    }
    if (failed) return 1;
  } catch (const std::exception& e) {
    std::cerr << "serve_chaos: " << e.what() << "\n";
    return 1;
  }
  std::cout << "serve_chaos: PASS\n";
  return 0;
}
