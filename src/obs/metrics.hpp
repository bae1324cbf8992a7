#pragma once
// Metric primitives for the simulator's observability layer.
//
//   * Histogram -- a fixed 64-bin log2 histogram of non-negative durations
//     (seconds).  observe() is allocation-free and branch-light, and
//     quantile() answers p50/p99 queries at bin resolution.  Everything is
//     deterministic: same samples in, same summary out.
//
//   * label() -- the stable export names ("msgs{path=on-node,proto=
//     rendezvous}") that RunReport::metrics_json() writes.
//
// Nothing in this header depends on the simulator; hetsim depends on obs,
// not the other way around.

#include <bit>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <string>
#include <string_view>
#include <utility>

namespace hetcomm::obs {

/// Fixed-bin log2 histogram of non-negative values (seconds).  Bin 0 holds
/// values <= 1 ns (including exact zeros -- an uncontended acquire); bin k
/// holds (2^(k-1), 2^k] nanoseconds.  64 bins cover up to ~2.9e10 s.
class Histogram {
 public:
  static constexpr int kBins = 64;

  /// Record one sample.  Inline and branch-light (one predictable branch
  /// for the <= 1 ns fast path, branchless min/max) -- this sits on the
  /// engine's per-operation hot path.
  void observe(double seconds) noexcept {
    ++bins_[bin_of(seconds)];
    ++count_;
    sum_ += seconds;
    min_ = seconds < min_ ? seconds : min_;
    max_ = seconds > max_ ? seconds : max_;
  }

  /// Fold `n` exact-zero samples into bin 0 in one shot.  Collectors that
  /// count uncontended (zero-wait) acquisitions separately fold them in at
  /// export time instead of paying the full observe() per event.
  void add_zeros(std::int64_t n) noexcept {
    if (n <= 0) return;
    bins_[0] += n;
    count_ += n;
    min_ = min_ < 0.0 ? min_ : 0.0;
    max_ = max_ > 0.0 ? max_ : 0.0;
  }

  [[nodiscard]] std::int64_t count() const noexcept { return count_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
  }
  [[nodiscard]] double min() const noexcept { return count_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return count_ > 0 ? max_ : 0.0; }

  /// Quantile estimate at bin resolution: the geometric midpoint of the bin
  /// holding the q-th sample (exact for bin 0, which reports 0).  q is
  /// clamped to [0, 1]; returns 0 when empty.
  [[nodiscard]] double quantile(double q) const noexcept;

  [[nodiscard]] const std::int64_t* bins() const noexcept { return bins_; }

 private:
  /// Bin index for a duration in seconds: 0 for <= 1 ns (or non-positive /
  /// NaN), otherwise 1 + floor(log2(ns)) clamped to the bin range.  The
  /// exponent is read straight from the IEEE-754 representation (exact, no
  /// libm call): for ns > 1 the value is a normal double whose biased
  /// exponent field is floor(log2(ns)) + 1023.
  [[nodiscard]] static int bin_of(double seconds) noexcept {
    const double ns = seconds * 1e9;
    if (!(ns > 1.0)) return 0;
    const int exp = static_cast<int>(
                        (std::bit_cast<std::uint64_t>(ns) >> 52) & 0x7ffU) -
                    1023;
    return exp + 1 < kBins ? exp + 1 : kBins - 1;
  }

  std::int64_t bins_[kBins] = {};
  std::int64_t count_ = 0;
  double sum_ = 0.0;
  /// +/-infinity sentinels keep observe() branchless; the public accessors
  /// report 0 while empty.
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Format a stable metric name: `label("msgs", {{"path", "on-node"},
/// {"proto", "rendezvous"}})` -> "msgs{path=on-node,proto=rendezvous}".
/// Labels are emitted in the order given (callers pass a canonical order so
/// names are stable across runs and versions).
[[nodiscard]] std::string label(
    std::string_view base,
    std::initializer_list<std::pair<std::string_view, std::string_view>>
        labels);

}  // namespace hetcomm::obs
