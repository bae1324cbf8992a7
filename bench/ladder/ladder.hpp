#pragma once
// Shared declarations of the hetcomm performance ladder (bench/ladder).
//
// One `ladder` process runs one workload for a fixed wall-time budget and
// reports either the end-to-end metrics (untraced run) or the per-layer
// metrics (traced run).  Every workload calls the same public entry points
// the CLI and `hetcomm serve` use; layer timings are taken from outside,
// around those calls.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/comm_pattern.hpp"
#include "hetsim/topology.hpp"
#include "machine/machine.hpp"
#include "obs/json.hpp"

namespace ladder {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15.0;
  bool trace = false;
  /// Open-loop offered rate for the serve workloads; 0 = workload default.
  double rate = 0.0;
  std::string json_path;   ///< hetcomm.bench_ladder.v1 artifact ("" = none)
  std::string trace_path;  ///< hetcomm.trace.v1 file of the traced run
  std::string socket_path; ///< unix socket of the in-process service
  std::string benchmark_path;  ///< BENCHMARK.json naming the metrics
};

struct Metric {
  double value = 0.0;
  std::string unit;
  std::int64_t samples = 0;  ///< observations behind the value (0 = a count)
};

/// What one workload run produced.  `metrics` holds the end-to-end metrics
/// of an untraced run or the per-layer metrics of a traced run; `detail`
/// is artifact-only context (percentiles, per-phase counts, curves).
struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> check_failures;
  std::uint64_t digest = 0;
  std::int64_t digest_items = 0;
  std::map<std::string, Metric> metrics;
  hetcomm::obs::JsonValue detail = hetcomm::obs::JsonValue::object();

  void set(const std::string& name, double value, const std::string& unit,
           std::int64_t samples = 0) {
    metrics[name] = Metric{value, unit, samples};
  }
  void check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
};

// ---- statistics ---------------------------------------------------------

/// Summary of a timing sample.  `tail` is the highest percentile that has
/// at least ten samples beyond it (`tail_pct` names it; 0 when n <= 10).
struct Timing {
  std::int64_t n = 0;
  double median = 0.0;
  double p10 = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  double p90 = 0.0;
  double tail = 0.0;
  double tail_pct = 0.0;
  double max = 0.0;
};

/// Linear-interpolated quantile of an ascending sample, q in [0, 1].
inline double sorted_quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

inline Timing summarize(std::vector<double> xs) {
  Timing t;
  t.n = static_cast<std::int64_t>(xs.size());
  if (xs.empty()) return t;
  std::sort(xs.begin(), xs.end());
  t.median = sorted_quantile(xs, 0.5);
  t.p10 = sorted_quantile(xs, 0.1);
  t.q1 = sorted_quantile(xs, 0.25);
  t.q3 = sorted_quantile(xs, 0.75);
  t.p90 = sorted_quantile(xs, 0.9);
  t.max = xs.back();
  if (xs.size() > 10) {
    t.tail = xs[xs.size() - 11];
    t.tail_pct = 100.0 * (1.0 - 10.0 / static_cast<double>(xs.size()));
  }
  return t;
}

/// Value at percentile `pct`, clamped to the highest percentile the sample
/// supports (ten samples beyond it); the median when n <= 10.
inline double supported_percentile(std::vector<double> xs, double pct) {
  const Timing t = summarize(xs);
  if (t.n <= 10) return t.median;
  if (pct >= t.tail_pct) return t.tail;
  std::sort(xs.begin(), xs.end());
  return sorted_quantile(xs, pct / 100.0);
}

inline hetcomm::obs::JsonValue to_json(const Timing& t) {
  hetcomm::obs::JsonValue v = hetcomm::obs::JsonValue::object();
  v.set("n", t.n);
  v.set("median", t.median);
  v.set("p10", t.p10);
  v.set("q1", t.q1);
  v.set("q3", t.q3);
  v.set("p90", t.p90);
  v.set("tail", t.tail);
  v.set("tail_pct", t.tail_pct);
  v.set("max", t.max);
  return v;
}

/// FNV-1a over raw bytes; the results digest two runs can be compared by.
inline std::uint64_t fnv1a(const void* data, std::size_t size,
                           std::uint64_t h = 0xcbf29ce484222325ULL) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

// ---- host ---------------------------------------------------------------

/// CPUs this process may run on (sched affinity), never less than 1.
[[nodiscard]] int nproc();
/// Peak resident set size of this process in MiB (getrusage).
[[nodiscard]] double peak_rss_mb();

/// Pins the calling thread to the `k`-th CPU (mod the count) it may run
/// on, and restores its CPU mask when destroyed.  Timed work rotates over
/// the CPUs so that a CPU slowed by another tenant moves a share of the
/// samples instead of every sample of a run.
class PinnedToCpu {
 public:
  explicit PinnedToCpu(int k);
  ~PinnedToCpu();
  PinnedToCpu(const PinnedToCpu&) = delete;
  PinnedToCpu& operator=(const PinnedToCpu&) = delete;

  [[nodiscard]] int cpu() const noexcept { return cpu_; }

 private:
  std::vector<int> saved_;  ///< CPUs of the original mask
  int cpu_ = -1;            ///< -1 when pinning was not possible
};

// ---- host speed ---------------------------------------------------------

/// Seconds one calibrate() call takes at the 10th percentile on the host
/// the bounds in BENCHMARK.json were measured on (a shared 4-vCPU Intel
/// Xeon VM) in a calm stretch.
constexpr double kCalibrationRefSeconds = 0.0045;

/// Runs a fixed discrete-event loop -- pop the earliest of 4096 pending
/// events, push its successor -- and returns its wall time in seconds.  It
/// uses no repository code, so it runs the same instructions on every
/// commit and measures only how fast the host is running this thread.
[[nodiscard]] double calibrate();

/// The factor that scales a time measured in this run to the reference
/// host speed: kCalibrationRefSeconds over the 10th percentile of the
/// run's calibrate() times.
[[nodiscard]] double host_scale(const std::vector<double>& calibrations);

// ---- the audikw_1 fixture -----------------------------------------------

/// The Fig. 5.1 comparison input: the audikw_1 stand-in at scale 0.015 on
/// 4-node Lassen, row-partitioned across the GPUs (the BM_RepCompiled
/// fixture, with the matrix seed taken from the run seed).
struct Fixture {
  hetcomm::machine::MachineModel mach;
  hetcomm::Topology topo;
  hetcomm::core::CommPattern pattern;
  double standin_seconds = 0.0;  ///< stand-in matrix generation
  double pattern_seconds = 0.0;  ///< partition + SpMV pattern extraction
};

[[nodiscard]] Fixture make_fixture(std::uint64_t seed);

/// Build the fixture `count` times (the set-up a study workload pays) and
/// return the last one; per-build wall times land in `setup_seconds`.
[[nodiscard]] Fixture timed_fixture_setups(std::uint64_t seed, int count,
                                           std::vector<double>& setup_seconds);

// ---- workloads ----------------------------------------------------------

Outcome run_study(const Args& args);
Outcome run_stability(const Args& args);
Outcome run_serve(const Args& args, bool churn);

/// Traced runs only: the fixed-fixture layer probes (compile, serial rep,
/// faulted rep, measure scaling, advisor rank, stand-in build).
void run_probes(const Args& args, Outcome& out);

}  // namespace ladder
