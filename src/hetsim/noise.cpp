#include "hetsim/noise.hpp"

#include <cstring>

namespace hetcomm {

namespace {

void factors_scalar(std::uint64_t stream, std::uint64_t first, double sigma,
                    double* out, std::size_t n) noexcept {
  for (std::size_t k = 0; k < n; ++k) {
    out[k] = noise_factor(stream, first + k, sigma);
  }
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HETCOMM_NOISE_AVX512DQ 1

using U64x8 = std::uint64_t __attribute__((vector_size(64)));
using F64x8 = double __attribute__((vector_size(64)));

/// out[k] = ((u0 + u1) + u2) + u3 of draw first + k for every k < n, n a
/// multiple of 8: noise_factor's four mix_seed hashes, `>> 11` and exact
/// integer-to-double conversions and its sum, eight draws per iteration.
/// AVX-512DQ supplies the 64-bit lane multiply and the u64 -> double
/// conversion.  The vectors stay inside this function, so no 64-byte
/// vector is passed to or from baseline code.
__attribute__((target("avx512f,avx512dq"))) void uniform_sums_avx512dq(
    std::uint64_t stream, std::uint64_t first, double* out,
    std::size_t n) noexcept {
  constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;  // mix_seed's
  constexpr std::uint64_t kMul1 = 0xbf58476d1ce4e5b9ULL;
  constexpr std::uint64_t kMul2 = 0x94d049bb133111ebULL;
  const U64x8 lane = {0, 1, 2, 3, 4, 5, 6, 7};
  for (std::size_t k = 0; k < n; k += 8) {
    const U64x8 sequence = 4 * (first + k + lane);  // of u0
    F64x8 sum = {};  // 0 + u0 == u0 exactly, so the order is noise_factor's
    for (std::uint64_t j = 0; j < 4; ++j) {
      U64x8 z = stream + kGolden * (sequence + (j + 1));
      z = (z ^ (z >> 30)) * kMul1;
      z = (z ^ (z >> 27)) * kMul2;
      z ^= z >> 31;
      sum += __builtin_convertvector(z >> 11, F64x8);
    }
    std::memcpy(out + k, &sum, sizeof sum);
  }
}

void factors_avx512dq(std::uint64_t stream, std::uint64_t first,
                      double sigma, double* out, std::size_t n) noexcept {
  const std::size_t whole = n - n % 8;
  uniform_sums_avx512dq(stream, first, out, whole);
  for (std::size_t k = 0; k < whole; ++k) {
    out[k] = noise_factor_from_sum(out[k], sigma);
  }
  factors_scalar(stream, first + whole, sigma, out + whole, n - whole);
}
#endif

}  // namespace

NoiseBatchFn noise_factors_avx512dq() noexcept {
#ifdef HETCOMM_NOISE_AVX512DQ
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq")) {
    return &factors_avx512dq;
  }
#endif
  return nullptr;
}

void noise_factors(std::uint64_t stream, std::uint64_t first, double sigma,
                   double* out, std::size_t n) noexcept {
  // AVX2 and SSE2 have neither the 64-bit lane multiply nor the u64 ->
  // double conversion, so other CPUs run the scalar loop.
  static const NoiseBatchFn kernel = [] {
    const NoiseBatchFn avx512dq = noise_factors_avx512dq();
    return avx512dq != nullptr ? avx512dq : &factors_scalar;
  }();
  kernel(stream, first, sigma, out, n);
}

}  // namespace hetcomm
