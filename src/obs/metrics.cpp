#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>

namespace hetcomm::obs {

namespace {

/// Representative value (seconds) for a bin: 0 for bin 0, else the
/// geometric midpoint of (2^(k-1), 2^k] nanoseconds.
double bin_mid(int bin) noexcept {
  if (bin <= 0) return 0.0;
  const double lo = std::ldexp(1.0, bin - 1);  // 2^(bin-1) ns
  return lo * std::sqrt(2.0) * 1e-9;
}

}  // namespace

double Histogram::quantile(double q) const noexcept {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-th sample (1-based, nearest-rank definition).
  const auto rank = static_cast<std::int64_t>(
      std::ceil(q * static_cast<double>(count_)));
  const std::int64_t target = std::max<std::int64_t>(rank, 1);
  std::int64_t seen = 0;
  for (int i = 0; i < kBins; ++i) {
    seen += bins_[i];
    if (seen >= target) return bin_mid(i);
  }
  return bin_mid(kBins - 1);
}

std::string label(
    std::string_view base,
    std::initializer_list<std::pair<std::string_view, std::string_view>>
        labels) {
  std::string out(base);
  if (labels.size() == 0) return out;
  out += '{';
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k;
    out += '=';
    out += v;
  }
  out += '}';
  return out;
}

}  // namespace hetcomm::obs
