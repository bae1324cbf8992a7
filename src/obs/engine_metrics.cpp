#include "obs/engine_metrics.hpp"

namespace hetcomm::obs {

std::int64_t EngineMetrics::total_messages() const noexcept {
  std::int64_t n = 0;
  for (const auto& row : msgs) {
    for (const std::int64_t v : row) n += v;
  }
  return n;
}

std::int64_t EngineMetrics::total_bytes() const noexcept {
  std::int64_t n = 0;
  for (const auto& row : msg_bytes) {
    for (const std::int64_t v : row) n += v;
  }
  return n;
}

Histogram EngineMetrics::wait_histogram(int resource) const noexcept {
  Histogram h = queue_wait[resource];
  h.add_zeros(zero_waits[resource]);
  return h;
}

}  // namespace hetcomm::obs
