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

/// out[k] = noise_factor(stream, first + k, sigma) for every k < n, eight
/// draws per iteration in one pass: noise_factor's four mix_seed hashes,
/// `>> 11` and exact integer-to-double conversions, its sum and the
/// noise_factor_from_sum tail, each IEEE operation in the scalar order.
/// mix_seed's hash input stream + kGolden * (sequence + 1) advances by
/// kGolden per uniform and by 32 * kGolden per eight draws, which modulo
/// 2^64 is the same input without a multiply.  AVX-512DQ supplies the
/// 64-bit lane multiplies of the hash and the u64 -> double conversion.
/// The vectors stay inside this function, so no 64-byte vector is passed
/// to or from baseline code.
__attribute__((target("avx512f,avx512dq"))) void factors_avx512dq(
    std::uint64_t stream, std::uint64_t first, double sigma, double* out,
    std::size_t n) noexcept {
  constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;  // mix_seed's
  constexpr std::uint64_t kMul1 = 0xbf58476d1ce4e5b9ULL;
  constexpr std::uint64_t kMul2 = 0x94d049bb133111ebULL;
  constexpr double kUniform = 0x1.0p-53;  // noise_factor_from_sum's
  constexpr double kSqrt3 = 1.7320508075688772935;
  const U64x8 lane = {0, 1, 2, 3, 4, 5, 6, 7};
  const F64x8 floor = F64x8{} + 0x1.0p-6;
  // The hash input of u0 of draws first + k + lane.
  U64x8 input = stream + kGolden * (4 * (first + lane) + 1);
  for (std::size_t k = 0; k < n; k += 8) {
    F64x8 sum = {};  // 0 + u0 == u0 exactly, so the order is noise_factor's
    U64x8 z_in = input;
    for (int j = 0; j < 4; ++j) {
      U64x8 z = z_in;
      z = (z ^ (z >> 30)) * kMul1;
      z = (z ^ (z >> 27)) * kMul2;
      z ^= z >> 31;
      sum += __builtin_convertvector(z >> 11, F64x8);
      z_in += kGolden;
    }
    input += 32 * kGolden;
    F64x8 factor = 1.0 + sigma * ((sum * kUniform - 2.0) * kSqrt3);
    factor = factor > floor ? factor : floor;
    if (n - k >= 8) {
      std::memcpy(out + k, &factor, sizeof factor);
    } else {
      std::memcpy(out + k, &factor, (n - k) * sizeof(double));  // the tail
    }
  }
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
