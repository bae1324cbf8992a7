#include "hetsim/schedule_order.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>

namespace hetcomm {

namespace {

/// Insertion sort orders a phase this small directly.
constexpr std::size_t kInsertionMax = 16;
/// Moves per key an insertion pass may make: past it, the portable passes
/// hand a phase to std::sort, and the network declines it.
constexpr std::size_t kMovesPerKey = 4;

void insertion_sort(std::uint64_t* keys, std::size_t n) {
  for (std::size_t k = 1; k < n; ++k) {
    const std::uint64_t v = keys[k];
    std::size_t j = k;
    while (j > 0 && v < keys[j - 1]) {
      keys[j] = keys[j - 1];
      --j;
    }
    keys[j] = v;
  }
}

// The network is written with GCC vector extensions; __builtin_shuffle is
// GCC's own, so other compilers build the portable passes alone.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define HETCOMM_ORDER_AVX512F 1

using U64x8 = std::uint64_t __attribute__((vector_size(64)));
using U32x8 = std::uint32_t __attribute__((vector_size(32)));
using U32x16 = std::uint32_t __attribute__((vector_size(64)));

/// One block of the network: 16 vectors of 16 keys.
constexpr std::size_t kBlock = 16 * 16;
static_assert(ReadyOrder::kNetworkMax == 2 * kBlock, "two blocks merged");

constexpr U32x16 kLanes = {0, 1, 2,  3,  4,  5,  6,  7,
                           8, 9, 10, 11, 12, 13, 14, 15};

// Every helper is inlined into network_avx512f, so the network's vectors
// stay in registers and none is passed to or from baseline code.
#define HETCOMM_AVX512F_INLINE \
  __attribute__((target("avx512f"), always_inline)) inline

/// Compare-exchange inside a vector: lane l meets lane l ^ X, and of each
/// pair the lane with bit M set keeps the larger key.
template <int X, int M>
HETCOMM_AVX512F_INLINE void exchange_lanes(U32x16& v) {
  constexpr U32x16 partner = kLanes ^ X;
  constexpr U32x16 upper = kLanes & M;
  const U32x16 p = __builtin_shuffle(v, partner);
  const U32x16 lo = v < p ? v : p;
  const U32x16 hi = v < p ? p : v;
  v = upper ? hi : lo;
}

/// Half-cleaners inside a vector at lane distances D, D / 2, ..., 1.
template <int D>
HETCOMM_AVX512F_INLINE void half_clean_lanes(U32x16& v) {
  exchange_lanes<D, D>(v);
  if constexpr (D > 1) half_clean_lanes<D / 2>(v);
}

/// Sorts the lanes of one vector: merges sorted runs of 1, 2, 4 and 8
/// lanes.  The first step of each merge meets lane i of a run of S with
/// lane S - 1 - i, which leaves both halves bitonic.
template <int S = 2>
HETCOMM_AVX512F_INLINE void sort_lanes(U32x16& v) {
  exchange_lanes<S - 1, S / 2>(v);
  if constexpr (S >= 4) half_clean_lanes<S / 4>(v);
  if constexpr (S < 16) sort_lanes<2 * S>(v);
}

HETCOMM_AVX512F_INLINE void exchange_vectors(U32x16& a, U32x16& b) {
  const U32x16 lo = a < b ? a : b;
  b = a < b ? b : a;
  a = lo;
}

/// Half-cleaners at vector distances D, D / 2, ..., 1: vector q meets
/// vector q + D, for every q without bit D.
template <std::size_t D, std::size_t N>
HETCOMM_AVX512F_INLINE void half_clean_vectors(U32x16 (&v)[N]) {
#pragma GCC unroll 16
  for (std::size_t q = 0; q < N; ++q) {
    if ((q & D) == 0) exchange_vectors(v[q], v[q + D]);
  }
  if constexpr (D > 1) half_clean_vectors<D / 2>(v);
}

/// Sorts each bitonic run of 2 * D vectors, or of one vector when D is 0:
/// half-cleaners at vector distances D, D / 2, ..., 1, then inside each
/// vector.
template <std::size_t D, std::size_t N>
HETCOMM_AVX512F_INLINE void sort_bitonic(U32x16 (&v)[N]) {
  if constexpr (D > 0) half_clean_vectors<D>(v);
#pragma GCC unroll 16
  for (std::size_t q = 0; q < N; ++q) half_clean_lanes<8>(v[q]);
}

/// Merges each block of B vectors whose two halves are sorted into one
/// sorted block, then the blocks of 2 * B vectors, up to all N.  The first
/// step meets key i of a block with key 16B - 1 - i: lane-reversed upper
/// vectors, whose maxima form the upper half in reverse, which is still
/// bitonic; sort_bitonic then sorts each half.
template <std::size_t B, std::size_t N>
HETCOMM_AVX512F_INLINE void merge_blocks(U32x16 (&v)[N]) {
  constexpr U32x16 reverse = kLanes ^ 15;
#pragma GCC unroll 16
  for (std::size_t base = 0; base < N; base += B) {
    U32x16 upper[B / 2];
#pragma GCC unroll 16
    for (std::size_t p = 0; p < B / 2; ++p) {
      const U32x16 r = __builtin_shuffle(v[base + B - 1 - p], reverse);
      upper[p] = v[base + p] < r ? r : v[base + p];
      v[base + p] = v[base + p] < r ? v[base + p] : r;
    }
#pragma GCC unroll 16
    for (std::size_t p = 0; p < B / 2; ++p) v[base + B / 2 + p] = upper[p];
  }
  sort_bitonic<B / 4>(v);
  if constexpr (2 * B <= N) merge_blocks<2 * B>(v);
}

/// Sorts the N vectors of 16 keys at `keys` in place, in registers.
template <std::size_t N>
HETCOMM_AVX512F_INLINE void sort_block(std::uint32_t* keys) {
  U32x16 v[N];
#pragma GCC unroll 16
  for (std::size_t q = 0; q < N; ++q) {
    std::memcpy(&v[q], keys + 16 * q, sizeof v[q]);
    sort_lanes(v[q]);
  }
  if constexpr (N >= 2) merge_blocks<2>(v);
#pragma GCC unroll 16
  for (std::size_t q = 0; q < N; ++q) {
    std::memcpy(keys + 16 * q, &v[q], sizeof v[q]);
  }
}

/// Merges two sorted blocks at `keys`.  The step that meets key i with key
/// 511 - i runs through memory and leaves each block bitonic (the upper one
/// reversed); sort_bitonic then sorts each block in registers.
HETCOMM_AVX512F_INLINE void merge_two_blocks(std::uint32_t* keys) {
  constexpr U32x16 reverse = kLanes ^ 15;
#pragma GCC unroll 4
  for (std::size_t p = 0; p < 16; ++p) {
    U32x16 a;
    U32x16 b;
    std::memcpy(&a, keys + 16 * p, sizeof a);
    std::memcpy(&b, keys + 16 * (31 - p), sizeof b);
    const U32x16 rb = __builtin_shuffle(b, reverse);
    const U32x16 ra = __builtin_shuffle(a, reverse);
    const U32x16 lower = a < rb ? a : rb;
    const U32x16 upper = ra < b ? b : ra;
    std::memcpy(keys + 16 * p, &lower, sizeof lower);
    std::memcpy(keys + 16 * (31 - p), &upper, sizeof upper);
  }
  for (std::size_t half = 0; half < 2; ++half) {
    U32x16 v[16];
#pragma GCC unroll 16
    for (std::size_t q = 0; q < 16; ++q) {
      std::memcpy(&v[q], keys + kBlock * half + 16 * q, sizeof v[q]);
    }
    sort_bitonic<8>(v);
#pragma GCC unroll 16
    for (std::size_t q = 0; q < 16; ++q) {
      std::memcpy(keys + kBlock * half + 16 * q, &v[q], sizeof v[q]);
    }
  }
}

/// Horizontal reduction: the eight lanes folded pairwise into lane 0.
HETCOMM_AVX512F_INLINE std::uint64_t lane_min(U64x8 v) {
  const U64x8 swaps[] = {{4, 5, 6, 7, 0, 1, 2, 3},
                         {2, 3, 0, 1, 6, 7, 4, 5},
                         {1, 0, 3, 2, 5, 4, 7, 6}};
  for (const U64x8& swap : swaps) {
    const U64x8 p = __builtin_shuffle(v, swap);
    v = v < p ? v : p;
  }
  return v[0];
}

/// Orders count <= 16 * N keys (or 2 * 16 * N, when N is a whole block)
/// by one 32-bit key each, (((bits - lo) >> s) << w) | index: lo is the
/// smallest bit pattern, w the bit width of the largest index, and s drops
/// just enough low bits of the span for the index to fit.  That sorts by
/// truncated ready time, then index.  Truncation only merges bit patterns
/// that differ below the kept bits, so an inversion can only sit inside a
/// run of equal truncated times; one pass over the sorted indices compares
/// neighbours by their full bit patterns and moves the rare inverted key
/// back.  Past kMovesPerKey moves per key (a cluster beside a far outlier)
/// it returns false, writing nothing.
///
/// `bits` and `index` hold `loads` >= max(count, 16) bit patterns and
/// indices (index null: 0, 1, ...); lanes past count are padding.
template <std::size_t N>
HETCOMM_AVX512F_INLINE bool order_keys(const double* ready, const void* bits,
                                       const std::uint32_t* index,
                                       std::size_t loads, std::uint32_t any,
                                       std::size_t count,
                                       std::uint32_t* order) {
  const int w = std::bit_width(any);
  if (w >= 32) return false;
  const auto* bytes = static_cast<const unsigned char*>(bits);
  // The span, from whole vectors; the last one may overlap its predecessor.
  U64x8 lo = ~U64x8{};
  U64x8 hi = {};
  for (std::size_t k = 0; k < loads; k += 8) {
    U64x8 b;
    std::memcpy(&b, bytes + 8 * std::min(k, loads - 8), sizeof b);
    lo = b < lo ? b : lo;
    hi = b < hi ? hi : b;
  }
  const std::uint64_t low = lane_min(lo);
  const std::uint64_t span = ~lane_min(~hi) - low;
  const int s = std::max(0, static_cast<int>(std::bit_width(span)) - (32 - w));

  // Keys, padded with all ones to whole blocks: the padding sorts last, and
  // a real key equal to it is the same value.  A last partial vector loads
  // the last 16 entries and rotates them down to lane 0.
  alignas(64) std::uint32_t keys[ReadyOrder::kNetworkMax];
  const std::size_t blocks = N == 16 && count > kBlock ? 2 : 1;
  const auto n = static_cast<std::uint32_t>(count);
  const auto last = static_cast<std::uint32_t>(loads - 16);
  for (std::uint32_t q = 0; q < N * blocks; ++q) {
    U32x16 key = ~U32x16{};
    if (16 * q < n) {
      const std::uint32_t start = std::min(16 * q, last);
      U64x8 b[2];
      std::memcpy(b, bytes + 8 * start, sizeof b);
      const U32x8 t0 = __builtin_convertvector((b[0] - low) >> s, U32x8);
      const U32x8 t1 = __builtin_convertvector((b[1] - low) >> s, U32x8);
      U32x16 t;
      std::memcpy(&t, &t0, sizeof t0);
      std::memcpy(reinterpret_cast<unsigned char*>(&t) + sizeof t0, &t1,
                  sizeof t1);
      U32x16 ix = kLanes + start;
      if (index != nullptr) std::memcpy(&ix, index + start, sizeof ix);
      key = (t << w) | ix;
      if (start != 16 * q) {
        key = __builtin_shuffle(key, (kLanes + (16 * q - start)) & 15);
      }
      key = kLanes + 16 * q < n ? key : ~U32x16{};
    }
    std::memcpy(keys + 16 * q, &key, sizeof key);
  }
  for (std::size_t b = 0; b < blocks; ++b) sort_block<N>(keys + kBlock * b);
  if constexpr (N == 16) {
    if (blocks == 2) merge_two_blocks(keys);
  }

  // The indices, then the exact fix-up.  Every key before position k that
  // shares k's bit pattern shares its truncated time too, so it has a
  // smaller index: comparing bit patterns alone is exact.
  const U32x16 mask = U32x16{} + ((std::uint32_t{1} << w) - 1);
  for (std::size_t q = 0; 16 * q < count; ++q) {
    U32x16 v;
    std::memcpy(&v, keys + 16 * q, sizeof v);
    v &= mask;
    std::memcpy(keys + 16 * q, &v, sizeof v);
  }
  std::size_t budget = kMovesPerKey * count;
  std::uint64_t top = std::bit_cast<std::uint64_t>(ready[keys[0]]);
  for (std::size_t k = 1; k < count; ++k) {
    const std::uint32_t i = keys[k];
    const std::uint64_t b = std::bit_cast<std::uint64_t>(ready[i]);
    if (!(b < top)) {
      top = b;
      continue;
    }
    std::size_t j = k;
    do {
      keys[j] = keys[j - 1];
      --j;
    } while (j > 0 && b < std::bit_cast<std::uint64_t>(ready[keys[j - 1]]));
    keys[j] = i;
    if (k - j > budget) return false;
    budget -= k - j;
  }
  std::memcpy(order, keys, count * sizeof keys[0]);
  return true;
}

__attribute__((target("avx512f"))) bool network_avx512f(
    const double* ready, const std::uint32_t* members, std::size_t count,
    std::uint32_t* order) noexcept {
  // A whole phase of 16 keys or more loads straight from `ready`.  A wave,
  // or a phase under 16 keys, gathers its bit patterns, and the padding to
  // 16 repeats the first one, which leaves the span as it is.
  const void* bits = ready;
  const std::uint32_t* index = members;
  std::size_t loads = count;
  auto any = static_cast<std::uint32_t>(count - 1);
  std::uint64_t gathered_bits[ReadyOrder::kNetworkMax];
  std::uint32_t gathered_index[16];
  if (members != nullptr || count < 16) {
    loads = std::max<std::size_t>(count, 16);
    if (members != nullptr) any = 0;
    for (std::size_t k = 0; k < loads; ++k) {
      const std::size_t i = k < count ? k : 0;
      const std::uint32_t at =
          members != nullptr ? members[i] : static_cast<std::uint32_t>(i);
      gathered_bits[k] = std::bit_cast<std::uint64_t>(ready[at]);
      if (members != nullptr) any |= at;
    }
    bits = gathered_bits;
    if (members != nullptr && count < 16) {
      for (std::size_t k = 0; k < 16; ++k) {
        gathered_index[k] = members[k < count ? k : 0];
      }
      index = gathered_index;
    }
  }
  if (count <= 16) {
    return order_keys<1>(ready, bits, index, loads, any, count, order);
  }
  if (count <= 32) {
    return order_keys<2>(ready, bits, index, loads, any, count, order);
  }
  if (count <= 64) {
    return order_keys<4>(ready, bits, index, loads, any, count, order);
  }
  if (count <= 128) {
    return order_keys<8>(ready, bits, index, loads, any, count, order);
  }
  return order_keys<16>(ready, bits, index, loads, any, count, order);
}
#endif

ReadyOrder::NetworkFn cpu_network() noexcept {
  static const ReadyOrder::NetworkFn kernel = ready_order_network_avx512f();
  return kernel;
}

}  // namespace

ReadyOrder::NetworkFn ready_order_network_avx512f() noexcept {
#ifdef HETCOMM_ORDER_AVX512F
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) return &network_avx512f;
#endif
  return nullptr;
}

ReadyOrder::ReadyOrder() : ReadyOrder(cpu_network()) {}

const std::vector<std::uint32_t>& ReadyOrder::sort(
    const double* ready, const std::uint32_t* members, std::size_t count) {
  order_.resize(count);
  if (count == 0) return order_;
  if (network_ != nullptr && count <= kNetworkMax &&
      network_(ready, members, count, order_.data())) {
    return order_;
  }
  const auto index_at = [members](std::size_t k) {
    return members != nullptr ? members[k] : static_cast<std::uint32_t>(k);
  };

  // Bit patterns in input order, their range, and the bit width w of the
  // largest index (the OR of all indices has the same width).
  keys_.resize(count);
  std::uint64_t lo = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t hi = 0;
  std::uint32_t any = 0;
  for (std::size_t k = 0; k < count; ++k) {
    const std::uint32_t i = index_at(k);
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(ready[i]);
    keys_[k] = bits;
    lo = bits < lo ? bits : lo;
    hi = hi < bits ? bits : hi;
    any |= i;
  }
  const int w = std::bit_width(any);
  const std::uint64_t span = hi - lo;
  if (w > 0 && (span >> (64 - w)) != 0) {
    // The span leaves no room for the index: sort (bit pattern, index).
    pairs_.resize(count);
    for (std::size_t k = 0; k < count; ++k) {
      pairs_[k] = {keys_[k], index_at(k)};
    }
    std::sort(pairs_.begin(), pairs_.end());
    for (std::size_t k = 0; k < count; ++k) order_[k] = pairs_[k].second;
    return order_;
  }
  for (std::size_t k = 0; k < count; ++k) {
    keys_[k] = ((keys_[k] - lo) << w) | index_at(k);
  }
  const std::uint64_t mask = (std::uint64_t{1} << w) - 1;
  const auto emit = [this, count, mask](const std::uint64_t* sorted)
      -> const std::vector<std::uint32_t>& {
    for (std::size_t k = 0; k < count; ++k) {
      order_[k] = static_cast<std::uint32_t>(sorted[k] & mask);
    }
    return order_;
  };
  if (count <= kInsertionMax) {
    insertion_sort(keys_.data(), count);
    return emit(keys_.data());
  }
  // Counting pass over the keys' top bits: at most 4 * count buckets (more
  // than count unless the keys are that dense), in key order.
  const std::uint64_t max_key = (span << w) | mask;
  const int used = std::bit_width(max_key);
  const int wanted = std::bit_width(count) + 1;
  const int shift = used > wanted ? used - wanted : 0;
  const std::size_t buckets = static_cast<std::size_t>(max_key >> shift) + 1;
  slot_.assign(buckets + 1, 0);
  for (std::size_t k = 0; k < count; ++k) {
    ++slot_[(keys_[k] >> shift) + 1];
  }
  for (std::size_t b = 0; b < buckets; ++b) {
    slot_[b + 1] += slot_[b];
  }
  // Scatter, stable within a bucket.
  bucketed_.resize(count);
  for (std::size_t k = 0; k < count; ++k) {
    bucketed_[slot_[keys_[k] >> shift]++] = keys_[k];
  }

  // Insertion pass.  A key only moves within its bucket, and a bucket
  // holds under one key on average.  A bucket crowded by a far outlier
  // exhausts the move budget, and std::sort finishes the job.
  std::uint64_t* const a = bucketed_.data();
  std::size_t budget = kMovesPerKey * count;
  for (std::size_t k = 1; k < count; ++k) {
    const std::uint64_t v = a[k];
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
  return emit(a);
}

}  // namespace hetcomm
