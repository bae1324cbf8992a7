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
  /// The message indices members[0..count) -- or 0..count-1 when
  /// `members` is null -- sorted by (bit pattern of ready[i], i).  For
  /// engine clocks, which are nonnegative (finite or +inf), that is
  /// (ready[i], i) order.  The returned vector is overwritten by the next
  /// call.
  ///
  /// Two linear passes do most of the work: a counting pass distributes
  /// the keys over 2*count buckets by where their ready time falls in
  /// [min, max], a mapping monotone in ready time, and an insertion pass
  /// then only reorders keys that share a bucket.  Insertion moves are
  /// capped at a few per key, and std::sort finishes when a crowded bucket
  /// (a cluster beside a far outlier) exceeds the cap, so the worst case
  /// stays O(n log n), and the result is exact for any double, NaN
  /// included.
  const std::vector<std::uint32_t>& sort(const double* ready,
                                         const std::uint32_t* members,
                                         std::size_t count);

 private:
  /// (bit pattern of ready, index): nonnegative doubles order like their
  /// bit patterns, so one integer pair comparison is the (ready, index)
  /// order with no floating-point compares.
  using Key = std::pair<std::uint64_t, std::uint32_t>;

  std::vector<Key> keys_;              ///< in input order
  std::vector<Key> bucketed_;          ///< keys_ grouped by bucket
  std::vector<std::size_t> bucket_of_;  ///< per key of keys_
  std::vector<std::uint32_t> slot_;     ///< per bucket: next free slot
  std::vector<std::uint32_t> order_;
};

}  // namespace hetcomm
