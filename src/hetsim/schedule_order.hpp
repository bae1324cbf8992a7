#pragma once
// Schedule order of one compiled phase (or one dependency wave of it).
//
// Engine::execute() serves a phase's messages in (ready time, message
// index) order -- the strict total order Engine::resolve() sorts matched
// transfers by -- so the two engines queue on contended resources, and
// draw noise, in the same sequence.  Noise reorders ready times on every
// repetition, so the order is rebuilt from the ready times alone each
// time; nothing carries over from one call to the next.

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace hetcomm {

class ReadyOrder {
 public:
  /// Writes the (bit pattern, index) order of a phase of at most
  /// kNetworkMax keys to order[0..count), as sort() does, and returns true;
  /// or returns false, writing nothing, when its span does not fit in one
  /// key.
  using NetworkFn = bool (*)(const double* ready,
                             const std::uint32_t* members, std::size_t count,
                             std::uint32_t* order) noexcept;

  /// The largest phase (or wave) the network sorts.
  static constexpr std::size_t kNetworkMax = 128;

  /// Sorts with the network this CPU supports (ready_order_network_avx512f),
  /// chosen once, or with the portable passes alone.
  ReadyOrder();
  /// Sorts small phases with `network`, or with the portable passes alone
  /// when it is null.
  explicit ReadyOrder(NetworkFn network) noexcept : network_(network) {}

  /// The message indices members[0..count) -- or 0..count-1 when
  /// `members` is null -- sorted by (bit pattern of ready[i], i).  For
  /// engine clocks, which are nonnegative (finite or +inf), that is
  /// (ready[i], i) order.  The returned vector is overwritten by the next
  /// call.
  ///
  /// Each message gets one exact, unique 64-bit key
  /// ((bits(ready[i]) - lo) << w) | i, where lo is the smallest bit pattern
  /// and w the bit width of the largest index, and the order is read back
  /// as key & (2^w - 1).  The key fits whenever the phase's bit-pattern
  /// span is below 2^(64 - w); engine phases span 2^48 to 2^54.  A phase
  /// of at most kNetworkMax keys goes through the network.  Otherwise
  /// insertion sorts at most 16 keys, and two linear passes sort more: a
  /// counting pass distributes the keys over count to 4 * count buckets
  /// by their top bits, and an insertion pass then only reorders keys that
  /// share a bucket.  Insertion moves are capped at a few per key, and
  /// std::sort finishes when a crowded bucket (a cluster beside a far
  /// outlier) exceeds the cap, so the worst case stays O(n log n).  A span
  /// that does not fit (a ready time of 0 beside positive ones, negative
  /// values, NaN) is sorted as (bit pattern, index) pairs, so the result
  /// is exact for any double.
  const std::vector<std::uint32_t>& sort(const double* ready,
                                         const std::uint32_t* members,
                                         std::size_t count);

 private:
  NetworkFn network_;
  std::vector<std::uint64_t> keys_;      ///< in input order
  std::vector<std::uint64_t> bucketed_;  ///< keys_ grouped by bucket
  std::vector<std::uint32_t> slot_;      ///< per bucket: next free slot
  /// (bit pattern, index): the keys of a span that does not fit.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> pairs_;
  std::vector<std::uint32_t> order_;
};

/// The AVX-512F bitonic network ReadyOrder() sorts small phases with, or
/// nullptr when this build or this CPU lacks it.  Exposed so tests can run
/// ReadyOrder with and without it.
[[nodiscard]] ReadyOrder::NetworkFn ready_order_network_avx512f() noexcept;

}  // namespace hetcomm
