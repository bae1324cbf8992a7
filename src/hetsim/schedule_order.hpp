#pragma once
// Schedule order of one compiled phase (or one dependency wave of it).
//
// Engine::execute() serves a phase's messages in (ready time, message
// index) order -- the strict total order Engine::resolve() sorts matched
// transfers by -- so the two engines queue on contended resources, and
// draw noise, in the same sequence.  Noise reorders ready times on every
// repetition, so the order is rebuilt from the ready times alone each
// time; nothing carries over from one call to the next.
//
// Two kernels compute it, with the same result.  On a CPU with AVX-512F a
// phase of at most kNetworkMax (512) messages goes through one bitonic
// network over 32-bit keys -- truncated ready time, then index -- held in
// registers (two 256-key blocks and a merge above 256), and an exact
// fix-up pass repairs what the truncation merged.  Every other phase, and
// every phase on other CPUs, takes the portable passes over exact 64-bit
// keys, which stay the reference the tests hold the network to.

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace hetcomm {

class ReadyOrder {
 public:
  /// Writes the (bit pattern, index) order of a phase of at most
  /// kNetworkMax keys to order[0..count), as sort() does, and returns true;
  /// or returns false, writing nothing, when it declines the phase.
  using NetworkFn = bool (*)(const double* ready,
                             const std::uint32_t* members, std::size_t count,
                             std::uint32_t* order) noexcept;

  /// The largest phase (or wave) the network sorts.
  static constexpr std::size_t kNetworkMax = 512;

  /// Sorts with the network this CPU supports (ready_order_network_avx512f),
  /// chosen once, or with the portable passes alone.
  ReadyOrder();
  /// Sorts phases of at most kNetworkMax keys with `network`, or with the
  /// portable passes alone when it is null.
  explicit ReadyOrder(NetworkFn network) noexcept : network_(network) {}

  /// The message indices members[0..count) -- or 0..count-1 when
  /// `members` is null -- sorted by (bit pattern of ready[i], i).  For
  /// engine clocks, which are nonnegative (finite or +inf), that is
  /// (ready[i], i) order.  The returned vector is overwritten by the next
  /// call.
  ///
  /// A phase of at most kNetworkMax keys goes through the network first.
  /// It builds one 32-bit key per message,
  /// (((bits(ready[i]) - lo) >> s) << w) | i, where lo is the smallest bit
  /// pattern, w the bit width of the largest index and s just large enough
  /// for the span to fit beside the index; engine phases span 2^48 to
  /// 2^54, so s is 17 to 31.  Keys that truncation made equal come out in
  /// index order, and a pass over the sorted order moves each key that the
  /// full bit patterns put earlier.  Past a few moves per key (a cluster
  /// beside a far outlier) the network declines, and the portable passes
  /// sort the phase.
  ///
  /// The portable passes give each message one exact, unique 64-bit key
  /// ((bits(ready[i]) - lo) << w) | i and read the order back as
  /// key & (2^w - 1).  The key fits whenever the phase's bit-pattern span
  /// is below 2^(64 - w).  Insertion sorts at most 16 keys, and two linear
  /// passes sort more: a counting pass distributes the keys over count to
  /// 4 * count buckets by their top bits, and an insertion pass then only
  /// reorders keys that share a bucket.  Insertion moves are capped at a
  /// few per key, and std::sort finishes when a crowded bucket exceeds the
  /// cap, so the worst case stays O(n log n).  A span that does not fit (a
  /// ready time of 0 beside positive ones, negative values, NaN) is sorted
  /// as (bit pattern, index) pairs.  Either way the result is exact for
  /// any double.
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

/// The AVX-512F bitonic network ReadyOrder() sorts phases of at most
/// kNetworkMax keys with, or nullptr when this build or this CPU lacks it.
/// Exposed so tests can run ReadyOrder with and without it.
[[nodiscard]] ReadyOrder::NetworkFn ready_order_network_avx512f() noexcept;

}  // namespace hetcomm
