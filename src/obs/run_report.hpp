#pragma once
// Machine-readable run reports ("hetcomm.metrics.v1").
//
// A RunReport describes one measured configuration: repetition statistics
// over every repetition (mean/p50/p99 of the per-rep makespans, computed
// exactly from the sample vector, not from histogram bins), and, from the
// engine sink attached to repetition 0, that repetition's per-phase makespan
// breakdown, message/byte traffic by (path class, protocol), contention per
// simulated resource, per-NIC injected bytes, copy/pack totals and fault
// activity; plus per-worker utilization of the thread pool that ran the
// repetitions.
//
// The report is built by core::measure() (see core/executor.cpp) from the
// repetition-0 obs::EngineMetrics sink plus the per-repetition clocks; this
// module only holds the plain data model and its JSON projection, so it has
// no dependency on the simulator's execution layer.
//
// File layout (one file may carry several reports, e.g. a bench sweep):
//
//   { "schema": "hetcomm.metrics.v1", "reports": [ { ... }, ... ] }
//
// tools/validate_metrics checks this shape in CI; docs/simulator.md
// documents every field.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "obs/engine_metrics.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace hetcomm::obs {

inline constexpr const char* kMetricsSchema = "hetcomm.metrics.v1";

/// Exact order statistics of a sample vector (seconds).  Unlike
/// Histogram::quantile, these are computed from the sorted samples, so p50
/// and p99 are exact (nearest-rank definition).
struct Summary {
  std::int64_t count = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
  double min = 0.0;
  double max = 0.0;

  /// Calls f(name, value) for each field in print order: the one field
  /// list behind to_json() and the serve reply's "makespan".
  template <class F>
  void for_each_field(F&& f) const {
    f("count", count);
    f("mean", mean);
    f("p50", p50);
    f("p99", p99);
    f("min", min);
    f("max", max);
  }

  [[nodiscard]] JsonValue to_json() const;
};

/// Summarize `samples`; sorts a copy, leaves the input untouched.
[[nodiscard]] Summary summarize(std::span<const double> samples);

/// A Summary of a stream of non-negative durations (seconds) in fixed
/// memory.  count, mean, min and max are exact.  p50 and p99 come from a
/// log-linear histogram of 128 equal sub-bins per power of two between
/// 2^-30 s (about 1 ns) and 2^10 s: each is the midpoint of the bin that
/// holds the nearest-rank sample, clamped to [min, max], so it is within
/// 1/256 (0.4%) of that sample.  Samples below the range (zero included)
/// share one bin that reports min, samples above it one that reports max.
class LogLinearHistogram {
 public:
  void observe(double seconds) noexcept {
    ++bins_[static_cast<std::size_t>(bin_of(seconds))];
    ++count_;
    sum_ += seconds;
    min_ = seconds < min_ ? seconds : min_;
    max_ = seconds > max_ ? seconds : max_;
  }

  [[nodiscard]] Summary summary() const;

 private:
  static constexpr int kSubBins = 128;
  static constexpr int kMinExponent = -30;
  static constexpr int kOctaves = 40;
  static constexpr int kBins = kOctaves * kSubBins + 2;

  /// 0 below 2^kMinExponent, kBins - 1 from 2^(kMinExponent + kOctaves);
  /// in between, the octave and the top 7 mantissa bits, read from the
  /// IEEE-754 representation.
  [[nodiscard]] static int bin_of(double seconds) noexcept {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(seconds);
    const int exponent = static_cast<int>((bits >> 52) & 0x7ffU) - 1023;
    if (!(seconds > 0.0) || exponent < kMinExponent) return 0;
    if (exponent >= kMinExponent + kOctaves) return kBins - 1;
    return 1 + (exponent - kMinExponent) * kSubBins +
           static_cast<int>((bits >> 45) & (kSubBins - 1));
  }
  /// Nearest-rank quantile at bin resolution, clamped to [min, max].
  [[nodiscard]] double quantile(double q) const noexcept;

  std::int64_t bins_[kBins] = {};
  std::int64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// One plan phase's contribution to repetition 0's makespan.
struct PhaseStat {
  int phase = 0;
  Summary makespan;    ///< one sample: end clock - previous phase end clock
  double share = 0.0;  ///< makespan.mean / sum of phase means
};

/// Message traffic for one (path class, protocol) cell, in repetition 0.
struct TrafficStat {
  std::string path;
  std::string proto;
  std::int64_t messages = 0;
  std::int64_t bytes = 0;
};

/// Contention on one simulated resource kind in repetition 0: its queue-wait
/// distribution and the busy time pushed onto it.
struct ResourceStat {
  std::string resource;
  std::int64_t waits = 0;   ///< acquisitions
  double wait_mean = 0.0;   ///< seconds; exact mean over all samples
  double wait_p50 = 0.0;    ///< seconds; histogram-resolution quantile
  double wait_p99 = 0.0;
  double wait_max = 0.0;
  double occupancy_seconds = 0.0;
};

struct NicStat {
  int nic = 0;   ///< NIC-lane server index (node * lanes + lane)
  int node = 0;
  int lane = 0;  ///< rail id within the node
  std::int64_t bytes_injected = 0;
  /// Subset of bytes_injected pinned to this rail by striping
  /// (PlanOp::rail >= 0); rail balance for striped runs.
  std::int64_t striped_bytes = 0;
};

struct CopyStat {
  std::string dir;      ///< "H2D" / "D2H"
  std::string sharing;  ///< "solo" / "shared"
  std::int64_t count = 0;
  std::int64_t bytes = 0;
  double seconds = 0.0;  ///< as charged to rank clocks
};

/// Extra occupancy injected by fault degradation on one path class.
struct FaultPathStat {
  std::string path;
  double degraded_seconds = 0.0;
};

/// Fault-layer activity in repetition 0 (zero / empty when no fault model
/// was attached; the JSON section is omitted entirely then, keeping
/// fault-free reports byte-identical to the pre-fault schema).
struct FaultStat {
  std::int64_t retries = 0;
  std::int64_t failovers = 0;
  std::int64_t degraded_msgs = 0;
  double retry_seconds = 0.0;  ///< backoff delay injected
  std::vector<FaultPathStat> degraded;
  /// Retries attributed to each NIC rail (lane id); empty when no retry hit
  /// an off-node egress lane.
  std::vector<std::int64_t> rail_retries;

  [[nodiscard]] bool any() const noexcept {
    return retries != 0 || failovers != 0 || degraded_msgs != 0 ||
           retry_seconds != 0.0 || !degraded.empty();
  }
};

/// Utilization of one repetition-runner worker thread.
struct WorkerStat {
  int worker = 0;
  std::int64_t reps = 0;       ///< repetitions this worker executed
  double busy_seconds = 0.0;   ///< wall time spent inside repetitions
};

struct RunReport {
  // -- Identity ------------------------------------------------------------
  std::string name;    ///< caller-supplied run label (bench fixture, cell)
  std::string engine;  ///< "compiled" / "interpreted"
  int reps = 0;
  int jobs = 0;
  std::uint64_t seed = 0;
  double noise_sigma = 0.0;
  int ranks = 0;
  int nodes = 0;

  // -- Repetition statistics (simulated seconds) ---------------------------
  Summary makespan;          ///< max rank clock per rep
  double max_avg = 0.0;      ///< the paper's headline metric (§4.5)
  std::vector<PhaseStat> phases;

  // -- Repetition 0: traffic, contention, copies, packs, faults ------------
  std::vector<TrafficStat> traffic;
  std::int64_t total_messages = 0;
  std::int64_t total_bytes = 0;
  std::vector<ResourceStat> resources;
  std::vector<NicStat> nic;
  std::vector<CopyStat> copies;
  std::int64_t packs = 0;
  std::int64_t pack_bytes = 0;
  double pack_seconds = 0.0;
  FaultStat faults;

  [[nodiscard]] bool has_faults() const noexcept { return faults.any(); }

  // -- Host-side execution -------------------------------------------------
  double wall_seconds = 0.0;
  double reps_per_second = 0.0;
  std::vector<WorkerStat> workers;

  /// Flat name -> value map mirroring the structured sections under their
  /// stable label() names ("msgs{path=on-node,proto=rendezvous}", ...).
  [[nodiscard]] JsonValue metrics_json() const;

  /// The report object of the document.  Its "sampled_reps" key is always
  /// 1: the repetition-0 sections describe exactly one repetition.
  [[nodiscard]] JsonValue to_json() const;
};

/// Populate a report's phase, traffic, contention, nic, copy, pack and fault
/// sections from the sink that recorded one run -- core::measure() passes
/// repetition 0's (see Engine::set_metrics).
void fill_from_engine_metrics(RunReport& report, const EngineMetrics& metrics);

/// Wrap reports in the versioned document envelope.
[[nodiscard]] JsonValue make_metrics_document(
    std::span<const RunReport> reports);

}  // namespace hetcomm::obs
