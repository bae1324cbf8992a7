// hetcomm performance ladder.
//
//   ladder --workload W [--seed N] [--seconds S] [--trace 0|1]
//          [--rate RPS] [--json FILE] [--trace-file FILE] [--socket PATH]
//          [--benchmark FILE]
//
// Runs one workload (study_audikw, stability_faults, serve_hot,
// serve_churn) for S seconds of measurement.  --trace 0 reports the
// end-to-end metrics; --trace 1 runs the workload untraced and traced for
// S/2 each plus the layer probes, writes the hetcomm.trace.v1 file named by
// --trace-file, and reports the per-layer metrics.  Which metrics, and
// their units, come from BENCHMARK.json (--benchmark, default the
// repository's).  Output checks run after the timed phases.  The last line
// of standard output is one JSON object:
//   {"correct": B, "attempted": N, "failed": N,
//    "metrics": {"name": {"value": V, "unit": U}, ...}}
// --json writes the full hetcomm.bench_ladder.v1 artifact (provenance
// stamp, sample counts, quartiles, digest, layer table).  Exit status: 0
// when every output check passed, 1 when a check or the run failed, 2 on
// bad arguments.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <optional>
#include <queue>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "ladder.hpp"
#include "machine/machine_json.hpp"
#include "runtime/thread_pool.hpp"
#include "sparse/comm_graph.hpp"
#include "sparse/partition.hpp"
#include "sparse/suitesparse_profiles.hpp"

namespace ladder {

namespace {

using hetcomm::obs::JsonValue;

constexpr const char* kArtifactSchema = "hetcomm.bench_ladder.v1";
constexpr double kStandinScale = 0.015;

const char* const kWorkloads[] = {"study_audikw", "stability_faults",
                                  "serve_hot", "serve_churn"};

std::string usage() {
  return "usage: ladder --workload study_audikw|stability_faults|serve_hot|"
         "serve_churn [--seed N] [--seconds S] [--trace 0|1] [--rate RPS] "
         "[--json FILE] [--trace-file FILE] [--socket PATH] "
         "[--benchmark FILE]";
}

Args parse_args(int argc, char** argv) {
  Args a;
  a.socket_path = "ladder-" + std::to_string(::getpid()) + ".sock";
  a.benchmark_path = LADDER_BENCHMARK;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++i];
    std::size_t used = 0;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value, &used);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value, &used);
      if (!(a.seconds > 0.0) || a.seconds > 3600.0) {
        throw std::invalid_argument("--seconds must be in (0, 3600]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      a.trace = value == "1";
      used = value.size();
    } else if (flag == "--rate") {
      a.rate = std::stod(value, &used);
      if (!(a.rate > 0.0) || a.rate > 1e6) {
        throw std::invalid_argument("--rate must be in (0, 1e6]");
      }
    } else if (flag == "--json") {
      a.json_path = value;
    } else if (flag == "--trace-file") {
      a.trace_path = value;
    } else if (flag == "--socket") {
      a.socket_path = value;
    } else if (flag == "--benchmark") {
      a.benchmark_path = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
    if (used != 0 && used != value.size()) {
      throw std::invalid_argument("bad value for " + flag + ": " + value);
    }
  }
  bool known = false;
  for (const char* w : kWorkloads) known = known || a.workload == w;
  if (!known) throw std::invalid_argument("unknown workload '" + a.workload + "'");
  return a;
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string s(reinterpret_cast<const char*>(regs), sizeof regs);
    s = s.substr(0, s.find('\0'));
    const std::size_t b = s.find_first_not_of(' ');
    const std::size_t e = s.find_last_not_of(' ');
    if (b != std::string::npos) return s.substr(b, e - b + 1);
  }
#endif
  return "unknown";
}

/// hetcomm.bench_stamp.v1 provenance plus what decides whether two
/// artifacts may be compared: host, CPU count and CPU model.  Built here
/// rather than by benchutil::artifact_stamp, whose signature carries the
/// lane-batch width that ROADMAP item 1 removes.
JsonValue stamp() {
  JsonValue s = JsonValue::object();
  s.set("schema", "hetcomm.bench_stamp.v1");
  std::string sha = "unknown";
  for (const char* var : {"GITHUB_SHA", "HETCOMM_GIT_SHA"}) {
    if (const char* v = std::getenv(var); v != nullptr && *v != '\0') {
      sha = v;
      break;
    }
  }
  s.set("git_sha", sha);
  char utc[32] = "unknown";
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  if (gmtime_r(&now, &tm) != nullptr) {
    std::strftime(utc, sizeof utc, "%Y-%m-%dT%H:%M:%SZ", &tm);
  }
  s.set("utc", utc);
  s.set("jobs", nproc());
  char host[256] = "unknown";
  if (gethostname(host, sizeof host) != 0) host[0] = '\0';
  host[sizeof host - 1] = '\0';
  s.set("hostname", host);
  s.set("nproc", nproc());
  s.set("cpu_model", cpu_model());
  return s;
}

/// Holds `out` to the metric list BENCHMARK.json names for this kind of
/// run (end_to_end untraced, per_layer traced): every listed metric with
/// its unit and no other.  A traced workload that does not reach a layer
/// reports 0 for that layer's metrics.
void match_benchmark(const std::string& path, bool traced, Outcome& out) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot read " + path);
  const std::string text((std::istreambuf_iterator<char>(is)),
                         std::istreambuf_iterator<char>());
  const JsonValue spec = JsonValue::parse(text);
  std::map<std::string, std::string> listed;
  for (const JsonValue& m : spec.at(traced ? "per_layer" : "end_to_end").items()) {
    listed[m.at("name").as_string()] = m.at("unit").as_string();
  }
  for (const auto& [name, unit] : listed) {
    const auto it = out.metrics.find(name);
    if (it == out.metrics.end() && traced) {
      out.set(name, 0.0, unit);
    } else if (it == out.metrics.end()) {
      out.check(false, "metric " + name + " was not measured");
    } else if (it->second.unit != unit) {
      out.check(false, "metric " + name + " is in " + it->second.unit +
                           ", BENCHMARK.json says " + unit);
    }
  }
  for (const auto& [name, m] : out.metrics) {
    if (listed.count(name) == 0) {
      out.check(false, "metric " + name + " is not in " + path);
    }
  }
}

std::string hex(std::uint64_t h) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return hetcomm::runtime::hardware_jobs();
}

namespace {

std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

bool set_cpus(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  return sched_setaffinity(0, sizeof set, &set) == 0;
}

}  // namespace

PinnedToCpu::PinnedToCpu(int k) : saved_(allowed_cpus()) {
  if (saved_.size() < 2) return;
  const int c = saved_[static_cast<std::size_t>(k) % saved_.size()];
  if (set_cpus({c})) cpu_ = c;
}

PinnedToCpu::~PinnedToCpu() {
  if (cpu_ >= 0) (void)set_cpus(saved_);
}

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {
volatile double calibration_clock = 0.0;
}  // namespace

double calibrate() {
  constexpr std::uint32_t kPending = 4096;
  constexpr int kEvents = 40000;
  using Event = std::pair<double, std::uint32_t>;
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  const auto next = [&x] {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(x >> 11) * 0x1.0p-53;
  };
  const auto t0 = Clock::now();
  std::vector<Event> storage;
  storage.reserve(kPending);
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue(
      std::greater<>{}, std::move(storage));
  for (std::uint32_t i = 0; i < kPending; ++i) queue.emplace(next(), i);
  double now = 0.0;
  for (int i = 0; i < kEvents; ++i) {
    const Event e = queue.top();
    queue.pop();
    now = e.first;
    queue.emplace(now + next(), e.second);
  }
  const double seconds = seconds_between(t0, Clock::now());
  // The simulated clock depends on every event; storing it keeps the loop.
  calibration_clock = now;
  return seconds;
}

double host_scale(const std::vector<double>& calibrations) {
  const double p10 = summarize(calibrations).p10;
  return p10 > 0.0 ? kCalibrationRefSeconds / p10 : 1.0;
}

Fixture make_fixture(std::uint64_t seed) {
  hetcomm::machine::MachineModel mach =
      hetcomm::machine::resolve_machine("lassen");
  hetcomm::Topology topo = mach.topology(4);
  const auto t0 = Clock::now();
  const hetcomm::sparse::CsrMatrix matrix = hetcomm::sparse::generate_standin(
      hetcomm::sparse::profile_by_name("audikw_1"), kStandinScale, seed);
  const auto t1 = Clock::now();
  const hetcomm::sparse::RowPartition part =
      hetcomm::sparse::RowPartition::contiguous(matrix.rows(),
                                                topo.num_gpus());
  hetcomm::core::CommPattern pattern = hetcomm::sparse::spmv_comm_pattern(
      matrix, part, topo, std::llround(8.0 / kStandinScale));
  const auto t2 = Clock::now();
  return Fixture{std::move(mach), std::move(topo), std::move(pattern),
                 seconds_between(t0, t1), seconds_between(t1, t2)};
}

Fixture timed_fixture_setups(std::uint64_t seed, int count,
                             std::vector<double>& setup_seconds) {
  std::optional<Fixture> f;
  for (int i = 0; i < count; ++i) {
    const PinnedToCpu pin(i);
    const auto t0 = Clock::now();
    f.emplace(make_fixture(seed));
    setup_seconds.push_back(seconds_between(t0, Clock::now()));
  }
  return std::move(*f);
}

}  // namespace ladder

int main(int argc, char** argv) {
  using namespace ladder;
  // The service and the load generator share this process: a peer that
  // closes early must surface as a failed write, not a fatal signal.
  std::signal(SIGPIPE, SIG_IGN);
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "ladder: " << e.what() << "\n" << usage() << "\n";
    return 2;
  }

  Outcome out;
  try {
    if (args.workload == "study_audikw") {
      out = run_study(args);
    } else if (args.workload == "stability_faults") {
      out = run_stability(args);
    } else {
      out = run_serve(args, args.workload == "serve_churn");
    }
    if (args.trace) run_probes(args, out);
    match_benchmark(args.benchmark_path, args.trace, out);
  } catch (const std::exception& e) {
    std::cerr << "ladder: " << args.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
  for (auto& [name, m] : out.metrics) {
    if (!std::isfinite(m.value)) {
      out.check(false, "metric " + name + " is not finite");
      m.value = 0.0;
    }
  }
  const bool correct = out.failed == 0 && out.check_failures.empty();

  std::printf("workload %s  seed %llu  seconds %g  trace %d  nproc %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, nproc());
  std::printf("results digest %s over %lld items\n", hex(out.digest).c_str(),
              static_cast<long long>(out.digest_items));
  for (const std::string& f : out.check_failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  for (const auto& [name, m] : out.metrics) {
    std::printf("  %-30s %16.6f %-6s n=%lld\n", name.c_str(), m.value,
                m.unit.c_str(), static_cast<long long>(m.samples));
  }

  JsonValue metrics = JsonValue::object();
  JsonValue full = JsonValue::object();
  for (const auto& [name, m] : out.metrics) {
    JsonValue v = JsonValue::object();
    v.set("value", m.value);
    v.set("unit", m.unit);
    metrics.set(name, v);
    v.set("samples", m.samples);
    full.set(name, std::move(v));
  }
  if (!args.json_path.empty()) {
    JsonValue doc = JsonValue::object();
    doc.set("schema", kArtifactSchema);
    doc.set("stamp", stamp());
    doc.set("workload", args.workload);
    doc.set("seed", static_cast<std::int64_t>(args.seed));
    doc.set("seconds", args.seconds);
    doc.set("trace", args.trace ? 1 : 0);
    doc.set("correct", correct);
    doc.set("attempted", out.attempted);
    doc.set("failed", out.failed);
    doc.set("failed_share",
            out.attempted > 0 ? static_cast<double>(out.failed) /
                                    static_cast<double>(out.attempted)
                              : 0.0);
    doc.set("digest", hex(out.digest));
    doc.set("digest_items", out.digest_items);
    JsonValue failures = JsonValue::array();
    for (const std::string& f : out.check_failures) failures.push_back(f);
    doc.set("check_failures", std::move(failures));
    doc.set("metrics", std::move(full));
    doc.set("detail", out.detail);
    std::ofstream os(args.json_path);
    doc.dump(os);
    if (!os) {
      std::cerr << "ladder: cannot write " << args.json_path << "\n";
      return 1;
    }
  }

  JsonValue result = JsonValue::object();
  result.set("correct", correct);
  result.set("attempted", out.attempted);
  result.set("failed", out.failed);
  result.set("metrics", std::move(metrics));
  std::string line = result.dump_string(0);
  while (!line.empty() && line.back() == '\n') line.pop_back();
  std::cout << line << std::endl;
  return correct ? 0 : 1;
}
