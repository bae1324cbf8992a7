#include "hetsim/schedule_order.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>

namespace hetcomm {

namespace {

/// Insertion sort orders a phase this small directly.
constexpr std::size_t kInsertionMax = 16;
/// Moves per key the insertion pass over the bucketed keys may make before
/// std::sort takes over.
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
using I64x8 = std::int64_t __attribute__((vector_size(64)));
using U32x8 = std::uint32_t __attribute__((vector_size(32)));

// Every helper is inlined into network_avx512f, so the network's vectors
// stay in registers and none is passed to or from baseline code.
#define HETCOMM_AVX512F_INLINE \
  __attribute__((target("avx512f"), always_inline)) inline

/// Compare-exchange inside a vector: lane l meets lane l ^ X, and of each
/// pair the lane with bit M set keeps the larger key.
template <int X, int M>
HETCOMM_AVX512F_INLINE void exchange_lanes(U64x8& v) {
  constexpr I64x8 partner = {0 ^ X, 1 ^ X, 2 ^ X, 3 ^ X,
                             4 ^ X, 5 ^ X, 6 ^ X, 7 ^ X};
  constexpr I64x8 upper = {0 & M, 1 & M, 2 & M, 3 & M,
                           4 & M, 5 & M, 6 & M, 7 & M};
  const U64x8 p = __builtin_shuffle(v, partner);
  const U64x8 lo = v < p ? v : p;
  const U64x8 hi = v < p ? p : v;
  v = upper ? hi : lo;
}

HETCOMM_AVX512F_INLINE void exchange_vectors(U64x8& a, U64x8& b) {
  const U64x8 lo = a < b ? a : b;
  b = a < b ? b : a;
  a = lo;
}

/// Half-cleaners at vector distances D, D / 2, ..., 1: vector q meets
/// vector q + D, for every q without bit D.
template <std::size_t D, std::size_t N>
HETCOMM_AVX512F_INLINE void half_clean_vectors(U64x8 (&v)[N]) {
#pragma GCC unroll 16
  for (std::size_t q = 0; q < N; ++q) {
    if ((q & D) == 0) exchange_vectors(v[q], v[q + D]);
  }
  if constexpr (D > 1) half_clean_vectors<D / 2>(v);
}

/// Merges each block of B vectors whose two halves are sorted into one
/// sorted block, then the blocks of 2 * B vectors, up to all N.  The first
/// step meets key i of a block with key 8B - 1 - i: lane-reversed upper
/// vectors, whose maxima form the upper half in reverse, which is still
/// bitonic.  Half-cleaners at distances 2B, B, ..., 1 keys sort each half.
template <std::size_t B, std::size_t N>
HETCOMM_AVX512F_INLINE void merge_blocks(U64x8 (&v)[N]) {
  constexpr I64x8 reverse = {7, 6, 5, 4, 3, 2, 1, 0};
#pragma GCC unroll 16
  for (std::size_t base = 0; base < N; base += B) {
    U64x8 upper[B / 2];
#pragma GCC unroll 16
    for (std::size_t p = 0; p < B / 2; ++p) {
      const U64x8 r = __builtin_shuffle(v[base + B - 1 - p], reverse);
      upper[p] = v[base + p] < r ? r : v[base + p];
      v[base + p] = v[base + p] < r ? v[base + p] : r;
    }
#pragma GCC unroll 16
    for (std::size_t p = 0; p < B / 2; ++p) v[base + B / 2 + p] = upper[p];
  }
  if constexpr (B >= 4) half_clean_vectors<B / 4>(v);
#pragma GCC unroll 16
  for (std::size_t q = 0; q < N; ++q) {
    exchange_lanes<4, 4>(v[q]);
    exchange_lanes<2, 2>(v[q]);
    exchange_lanes<1, 1>(v[q]);
  }
  if constexpr (2 * B <= N) merge_blocks<2 * B>(v);
}

/// Horizontal reductions: the eight lanes folded pairwise into lane 0.
HETCOMM_AVX512F_INLINE std::uint64_t lane_min(U64x8 v) {
  const I64x8 swaps[] = {{4, 5, 6, 7, 0, 1, 2, 3},
                         {2, 3, 0, 1, 6, 7, 4, 5},
                         {1, 0, 3, 2, 5, 4, 7, 6}};
  for (const I64x8& swap : swaps) {
    const U64x8 p = __builtin_shuffle(v, swap);
    v = v < p ? v : p;
  }
  return v[0];
}

HETCOMM_AVX512F_INLINE std::uint64_t lane_max(U64x8 v) {
  return ~lane_min(~v);
}

HETCOMM_AVX512F_INLINE std::uint64_t lane_or(U64x8 v) {
  for (std::uint64_t l = 0; l < 8; ++l) v[0] |= v[l];
  return v[0];
}

/// Orders count <= 8 * N keys in registers: loads the bit patterns and
/// indices, builds the keys, sorts them with the bitonic network and
/// writes the order.  `bits` holds count bit patterns, count >= 8, and the
/// indices are 0..count-1; or `index` holds the indices and both arrays
/// are padded to whole vectors.  Returns false, writing nothing, when the
/// span does not fit in one key.
template <std::size_t N>
HETCOMM_AVX512F_INLINE bool order_in_registers(const void* bits,
                                               const std::uint64_t* index,
                                               std::size_t count,
                                               std::uint32_t* order) {
  const U64x8 lanes = {0, 1, 2, 3, 4, 5, 6, 7};
  const auto* bytes = static_cast<const unsigned char*>(bits);
  U64x8 v[N];
  U64x8 lo = ~U64x8{};
  U64x8 hi = {};
  U64x8 any = {};
#pragma GCC unroll 16
  for (std::size_t q = 0; q < N; ++q) {
    v[q] = ~U64x8{};
    if (8 * q >= count) continue;
    const U64x8 valid = static_cast<U64x8>(lanes + 8 * q < count);
    if (index != nullptr || 8 * q + 8 <= count) {
      std::memcpy(&v[q], bytes + 64 * q, sizeof v[q]);
    } else {
      // The last eight patterns, rotated down to lane 0.
      std::memcpy(&v[q], bytes + 8 * (count - 8), sizeof v[q]);
      v[q] = __builtin_shuffle(v[q], (lanes + (8 * q + 8 - count)) & 7);
      v[q] = valid ? v[q] : ~U64x8{};
    }
    lo = v[q] < lo ? v[q] : lo;
    hi = (v[q] & valid) > hi ? (v[q] & valid) : hi;
    if (index != nullptr) {
      U64x8 ix;
      std::memcpy(&ix, index + 8 * q, sizeof ix);
      any |= ix;
    }
  }
  const std::uint64_t low = lane_min(lo);
  const std::uint64_t span = lane_max(hi) - low;
  const int w = std::bit_width(index != nullptr ? lane_or(any) : count - 1);
  if (w > 0 && (span >> (64 - w)) != 0) return false;
#pragma GCC unroll 16
  for (std::size_t q = 0; q < N; ++q) {
    // Past count all ones: the padding sorts last, and a real key equal to
    // it is the same value.
    if (8 * q < count) {
      U64x8 ix = lanes + 8 * q;
      if (index != nullptr) std::memcpy(&ix, index + 8 * q, sizeof ix);
      const U64x8 key = ((v[q] - low) << w) | ix;
      v[q] = lanes + 8 * q < count ? key : ~U64x8{};
    }
    exchange_lanes<1, 1>(v[q]);
    exchange_lanes<3, 2>(v[q]);
    exchange_lanes<1, 1>(v[q]);
    exchange_lanes<7, 4>(v[q]);
    exchange_lanes<2, 2>(v[q]);
    exchange_lanes<1, 1>(v[q]);
  }
  if constexpr (N >= 2) merge_blocks<2>(v);
  const U64x8 mask = U64x8{} + ((std::uint64_t{1} << w) - 1);
#pragma GCC unroll 16
  for (std::size_t q = 0; q < N; ++q) {
    if (8 * q >= count) break;
    const U32x8 out = __builtin_convertvector(v[q] & mask, U32x8);
    if (8 * q + 8 <= count) {
      std::memcpy(order + 8 * q, &out, sizeof out);
    } else {
      for (std::size_t l = 0; 8 * q + l < count; ++l) order[8 * q + l] = out[l];
    }
  }
  return true;
}

__attribute__((target("avx512f"))) bool network_avx512f(
    const double* ready, const std::uint32_t* members, std::size_t count,
    std::uint32_t* order) noexcept {
  // A whole phase of eight keys or more loads straight from `ready`.  A
  // wave, or a phase under eight keys, is gathered into whole vectors.
  const void* bits = ready;
  const std::uint64_t* index = nullptr;
  std::uint64_t gathered_bits[ReadyOrder::kNetworkMax];
  std::uint64_t gathered_index[ReadyOrder::kNetworkMax];
  if (members != nullptr || count < 8) {
    const std::size_t whole = (count + 7) / 8 * 8;
    for (std::size_t k = 0; k < whole; ++k) {
      const bool real = k < count;
      gathered_index[k] = real ? (members != nullptr ? members[k] : k) : 0;
      gathered_bits[k] =
          real ? std::bit_cast<std::uint64_t>(ready[gathered_index[k]])
               : ~std::uint64_t{0};
    }
    bits = gathered_bits;
    index = gathered_index;
  }
  if (count <= 8) return order_in_registers<1>(bits, index, count, order);
  if (count <= 16) return order_in_registers<2>(bits, index, count, order);
  if (count <= 32) return order_in_registers<4>(bits, index, count, order);
  if (count <= 64) return order_in_registers<8>(bits, index, count, order);
  return order_in_registers<16>(bits, index, count, order);
}
static_assert(ReadyOrder::kNetworkMax == 8 * 16, "the last case above");
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
