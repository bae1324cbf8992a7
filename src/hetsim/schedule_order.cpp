#include "hetsim/schedule_order.hpp"

#include <algorithm>
#include <bit>
#include <limits>

namespace hetcomm {

namespace {

/// Insertion sort orders a phase this small directly.
constexpr std::size_t kInsertionMax = 16;
/// Moves per key the insertion pass over the bucketed keys may make before
/// std::sort takes over.
constexpr std::size_t kMovesPerKey = 4;

template <typename Key>
void insertion_sort(Key* keys, std::size_t n) {
  for (std::size_t k = 1; k < n; ++k) {
    const Key v = keys[k];
    std::size_t j = k;
    while (j > 0 && v < keys[j - 1]) {
      keys[j] = keys[j - 1];
      --j;
    }
    keys[j] = v;
  }
}

}  // namespace

const std::vector<std::uint32_t>& ReadyOrder::sort(
    const double* ready, const std::uint32_t* members, std::size_t count) {
  order_.resize(count);
  if (count == 0) return order_;
  const auto index_at = [members](std::size_t k) {
    return members != nullptr ? members[k] : static_cast<std::uint32_t>(k);
  };

  // Keys in input order, and the ready range.
  keys_.resize(count);
  double lo = ready[index_at(0)];
  double hi = lo;
  for (std::size_t k = 0; k < count; ++k) {
    const std::uint32_t i = index_at(k);
    const double v = ready[i];
    keys_[k] = {std::bit_cast<std::uint64_t>(v), i};
    lo = v < lo ? v : lo;
    hi = hi < v ? v : hi;
  }

  const auto emit = [this](const std::vector<Key>& sorted)
      -> const std::vector<std::uint32_t>& {
    for (std::size_t k = 0; k < order_.size(); ++k) {
      order_[k] = sorted[k].second;
    }
    return order_;
  };
  if (count <= kInsertionMax) {
    insertion_sort(keys_.data(), count);
    return emit(keys_);
  }
  const std::size_t buckets = 2 * count;
  const double top = static_cast<double>(buckets);
  const double scale = top / (hi - lo);
  if (!(scale > 0.0 && scale <= std::numeric_limits<double>::max())) {
    // No finite positive scale: a span of zero or one too small to divide
    // by, or an infinite or NaN bound.
    std::sort(keys_.begin(), keys_.end());
    return emit(keys_);
  }

  // Counting pass.  lo is the minimum, so x is never negative; a NaN x and
  // x >= top (hi itself, after rounding) take the last bucket, so the cast
  // only ever sees [0, top).
  bucket_of_.resize(count);
  slot_.assign(buckets + 1, 0);
  for (std::size_t k = 0; k < count; ++k) {
    const double x = (std::bit_cast<double>(keys_[k].first) - lo) * scale;
    const std::size_t b =
        x >= 0.0 && x < top
            ? static_cast<std::size_t>(static_cast<std::int64_t>(x))
            : buckets - 1;
    bucket_of_[k] = b;
    ++slot_[b + 1];
  }
  for (std::size_t b = 0; b < buckets; ++b) {
    slot_[b + 1] += slot_[b];
  }
  // Scatter, stable within a bucket.
  bucketed_.resize(count);
  for (std::size_t k = 0; k < count; ++k) {
    bucketed_[slot_[bucket_of_[k]]++] = keys_[k];
  }

  // Insertion pass.  Buckets follow ready order, so a key only moves
  // within its bucket, and a bucket holds about half a key.  A bucket
  // crowded by a far outlier (or input outside the ready-time domain)
  // exhausts the move budget, and std::sort finishes the job.
  Key* const a = bucketed_.data();
  std::size_t budget = kMovesPerKey * count;
  for (std::size_t k = 1; k < count; ++k) {
    const Key v = a[k];
    if (!(v < a[k - 1])) continue;
    std::size_t j = k;
    do {
      a[j] = a[j - 1];
      --j;
    } while (j > 0 && v < a[j - 1]);
    a[j] = v;
    if (k - j > budget) {
      std::sort(bucketed_.begin(), bucketed_.end());
      break;
    }
    budget -= k - j;
  }
  return emit(bucketed_);
}

}  // namespace hetcomm
