// serve_load: throughput A/B for the `hetcomm serve` plan cache.
//
// Drives the serve::Service in-process with a hot working set of queries
// (8 distinct (pattern, strategy) plans cycled across N requests) twice:
//
//   cold  -- cache_capacity 0: every query pays build_plan + CompiledPlan
//            construction, the one-shot baseline a cacheless server would be
//   warm  -- default cache geometry: the hot set compiles once, every later
//            query replays the cached plan
//
// Both runs answer the *same* request stream through the same batching
// window machinery, so the only variable is plan reuse.  CI gates on the
// artifact this writes: warm request hit-rate >= 0.9 and warm throughput
// >= 5x cold (see .github/workflows/ci.yml).
//
// Flags (strict; unknown flags are hard errors):
//   --quick        fewer queries (CI-friendly)
//   --queries N    request count (default 400, quick 120)
//   --reps N       repetitions per measured query (default 3)
//   --json FILE    write the hetcomm.serve_load.v1 artifact ("-" = stdout)

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "benchutil/bench_options.hpp"
#include "obs/json.hpp"
#include "serve/service.hpp"

namespace {

using hetcomm::benchutil::parse_number;

struct LoadOptions {
  bool quick = false;
  int queries = -1;  ///< -1 = default (400, or 120 with --quick)
  int reps = 1;
  std::string json_path;
};

constexpr const char* kUsage =
    "usage: serve_load [--quick] [--queries N] [--reps N] [--json FILE]";

LoadOptions parse_args(int argc, char** argv) {
  LoadOptions opts;
  const auto value = [&](int& i) -> std::string {
    if (i + 1 >= argc) {
      throw std::invalid_argument(std::string(argv[i]) + " needs a value");
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      opts.quick = true;
    } else if (arg == "--queries") {
      opts.queries = parse_number<int>(value(i), "--queries");
      if (opts.queries < 1) throw std::invalid_argument("--queries must be >= 1");
    } else if (arg == "--reps") {
      opts.reps = parse_number<int>(value(i), "--reps");
      if (opts.reps < 1) throw std::invalid_argument("--reps must be >= 1");
    } else if (arg == "--json") {
      opts.json_path = value(i);
    } else if (arg == "--help") {
      std::cout << kUsage << "\n";
      std::exit(0);
    } else {
      throw std::invalid_argument("unknown flag " + arg);
    }
  }
  if (opts.queries < 0) opts.queries = opts.quick ? 120 : 400;
  return opts;
}

/// The hot working set: 8 distinct plans (4 random patterns x 2 strategies)
/// cycled across the whole request stream.
constexpr int kHotPatterns = 4;
constexpr const char* kStrategies[] = {"split+MD", "split+DD"};
constexpr int kHotPlans =
    kHotPatterns * static_cast<int>(std::size(kStrategies));

std::string random_pattern_spec(int pattern) {
  return "{\"random\": {\"msgs_per_gpu\": 4, \"bytes\": 4096, \"seed\": " +
         std::to_string(pattern + 1) + "}}";
}

/// Prime lines register the hot patterns (predict-only, full ranking);
/// every later query addresses them by {"ref": hash} with "rank": false --
/// the steady-state shape of a measurement client.  The refs come from the
/// prime responses, so a priming pass runs before the timed stream.
std::vector<std::string> build_prime_requests() {
  std::vector<std::string> lines;
  for (int p = 0; p < kHotPatterns; ++p) {
    lines.push_back("{\"id\": \"prime-" + std::to_string(p) +
                    "\", \"machine\": \"lassen\", \"nodes\": 8, \"pattern\": " +
                    random_pattern_spec(p) + ", \"reps\": 0}");
  }
  return lines;
}

std::vector<std::string> build_requests(const LoadOptions& opts,
                                        const std::vector<std::string>& refs) {
  std::vector<std::string> lines;
  lines.reserve(static_cast<std::size_t>(opts.queries));
  for (int q = 0; q < opts.queries; ++q) {
    const int pattern = q % kHotPatterns;
    const char* strategy = kStrategies[(q / kHotPatterns) %
                                       std::size(kStrategies)];
    lines.push_back(
        std::string("{\"id\": ") + std::to_string(q) +
        ", \"machine\": \"lassen\", \"nodes\": 8"
        ", \"pattern\": {\"ref\": \"" + refs[static_cast<std::size_t>(pattern)] +
        "\"}"
        ", \"strategy\": \"" + strategy + "\""
        ", \"rank\": false"
        ", \"reps\": " + std::to_string(opts.reps) +
        ", \"seed\": " + std::to_string(q) + "}");
  }
  return lines;
}

struct RunResult {
  double seconds = 0.0;
  double qps = 0.0;
  double request_hit_rate = 0.0;
  std::int64_t compiles = 0;
};

RunResult drive(const std::vector<std::string>& prime,
                const std::vector<std::string>& requests,
                std::size_t cache_capacity, int window) {
  hetcomm::serve::ServiceOptions options;
  options.cache_capacity = cache_capacity;
  options.window = window;
  hetcomm::serve::Service service(options);

  // Register the hot patterns (untimed; identical for both runs).
  for (const std::string& line : prime) {
    const hetcomm::obs::JsonValue doc =
        hetcomm::obs::JsonValue::parse(service.handle_line(line));
    if (!doc.at("ok").as_bool()) {
      throw std::runtime_error("serve_load prime failed: " +
                               doc.at("error").as_string());
    }
  }

  const auto t0 = std::chrono::steady_clock::now();
  std::size_t answered = 0;
  for (std::size_t at = 0; at < requests.size();
       at += static_cast<std::size_t>(options.window)) {
    const std::size_t end =
        std::min(requests.size(), at + static_cast<std::size_t>(options.window));
    const std::vector<std::string> chunk(
        requests.begin() + static_cast<std::ptrdiff_t>(at),
        requests.begin() + static_cast<std::ptrdiff_t>(end));
    for (const std::string& reply : service.handle_window(chunk)) {
      const hetcomm::obs::JsonValue doc = hetcomm::obs::JsonValue::parse(reply);
      if (!doc.at("ok").as_bool()) {
        throw std::runtime_error("serve_load request failed: " +
                                 doc.at("error").as_string());
      }
      ++answered;
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  if (answered != requests.size()) {
    throw std::runtime_error("serve_load: lost responses");
  }

  RunResult r;
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.qps = static_cast<double>(requests.size()) / r.seconds;
  const hetcomm::obs::JsonValue metrics = service.metrics_json();
  const hetcomm::obs::JsonValue& plan =
      metrics.at("serve").at("cache").at("plan");
  r.request_hit_rate = plan.at("request_hit_rate").as_double();
  r.compiles = plan.at("misses").as_int();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  LoadOptions opts;
  try {
    opts = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "serve_load: " << e.what() << "\n" << kUsage << "\n";
    return 2;
  }

  try {
    const std::vector<std::string> prime = build_prime_requests();
    // Resolve the hot patterns' fingerprints once; pattern hashes are
    // stable, so any service instance reports the same refs.
    std::vector<std::string> refs;
    {
      hetcomm::serve::Service probe;
      for (const std::string& line : prime) {
        const hetcomm::obs::JsonValue doc =
            hetcomm::obs::JsonValue::parse(probe.handle_line(line));
        if (!doc.at("ok").as_bool()) {
          throw std::runtime_error("serve_load probe failed: " +
                                   doc.at("error").as_string());
        }
        refs.push_back(doc.at("pattern_hash").as_string());
      }
    }
    const std::vector<std::string> requests = build_requests(opts, refs);
    // Cold = the one-query-at-a-time, cacheless server a naive deployment
    // would run: window 1 (no within-window compile sharing, no lane
    // coalescing) and cache_capacity 0 (every query compiles).  Warm = the
    // shipped defaults.  Same request stream, same responses.
    const RunResult cold =
        drive(prime, requests, /*cache_capacity=*/0, /*window=*/1);
    const RunResult warm =
        drive(prime, requests, /*cache_capacity=*/256, /*window=*/64);
    const double speedup = warm.qps / cold.qps;

    std::cout << "serve_load: " << opts.queries << " queries, " << kHotPlans
              << " hot plans, reps " << opts.reps << "\n"
              << "  cold (no cache): " << cold.qps << " qps ("
              << cold.compiles << " compiles)\n"
              << "  warm (lru 256):  " << warm.qps << " qps ("
              << warm.compiles << " compiles, request hit-rate "
              << warm.request_hit_rate << ")\n"
              << "  speedup: " << speedup << "x\n";

    if (!opts.json_path.empty()) {
      using hetcomm::obs::JsonValue;
      JsonValue doc = JsonValue::object();
      doc.set("schema", "hetcomm.serve_load.v1");
      doc.set("queries", opts.queries);
      doc.set("hot_plans", kHotPlans);
      doc.set("reps", opts.reps);
      JsonValue cold_j = JsonValue::object();
      cold_j.set("seconds", cold.seconds);
      cold_j.set("qps", cold.qps);
      cold_j.set("compiles", cold.compiles);
      doc.set("cold", std::move(cold_j));
      JsonValue warm_j = JsonValue::object();
      warm_j.set("seconds", warm.seconds);
      warm_j.set("qps", warm.qps);
      warm_j.set("compiles", warm.compiles);
      warm_j.set("request_hit_rate", warm.request_hit_rate);
      doc.set("warm", std::move(warm_j));
      doc.set("speedup", speedup);
      if (opts.json_path == "-") {
        doc.dump(std::cout);
      } else {
        std::ofstream out(opts.json_path);
        if (!out) {
          throw std::runtime_error("cannot write " + opts.json_path);
        }
        doc.dump(out);
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "serve_load: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
