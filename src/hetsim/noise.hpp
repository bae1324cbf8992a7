#pragma once
// Multiplicative timing noise for the simulator.
//
// Real measurements jitter; the paper averages 1000 iterations and reports
// the max over ranks.  The simulator reproduces that methodology with a
// seeded, mean-one multiplicative perturbation applied to every scheduled
// duration, so repeated runs with different seeds behave like repeated
// measurements while a fixed seed keeps unit tests deterministic.
//
// The stream is *counter-based*: draw `i` of stream `s` is a pure hash of
// (s, i), with no generator state beyond the counter itself, so the k-th
// draw of a repetition has the same value no matter which worker or engine
// mode produces it.  It is also several times cheaper than the historical
// stateful mt19937_64 + lognormal_distribution draw (no transcendentals,
// no rejection loops), which matters because noise draws are the dominant
// per-repetition cost once a plan is compiled.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hetcomm {

/// SplitMix64-style hash of (base seed, sequence number) into an
/// independent per-repetition seed.  Unlike `base + rep`, distinct
/// (base, rep) pairs never collide into the same stream, adjacent
/// repetitions are decorrelated, and the seed depends only on the
/// repetition index -- never on which worker thread runs it -- which is
/// what makes multi-threaded measurement bit-identical to serial.
[[nodiscard]] constexpr std::uint64_t mix_seed(std::uint64_t base,
                                               std::uint64_t sequence) noexcept {
  std::uint64_t z = base + 0x9e3779b97f4a7c15ULL * (sequence + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// The mean-one tail of noise_factor: `sum` is the unscaled sum
/// ((u0 + u1) + u2) + u3 of its four 53-bit uniforms.  The batch kernel
/// (noise_factors) computes the sums in vector code and runs this tail in
/// baseline code, so both round exactly as the scalar draw does.
[[nodiscard]] inline double noise_factor_from_sum(double sum,
                                                  double sigma) noexcept {
  constexpr double kUniform = 0x1.0p-53;  // 53-bit mantissa -> [0, 1)
  constexpr double kSqrt3 = 1.7320508075688772935;  // unit variance scale
  const double factor = 1.0 + sigma * ((sum * kUniform - 2.0) * kSqrt3);
  return factor > 0x1.0p-6 ? factor : 0x1.0p-6;
}

/// Multiplicative jitter factor for draw `draw` of noise stream `stream`:
/// 1 + sigma * z, where z is a unit-variance, exactly-mean-zero Bates(4)
/// variate (the average of four independent uniforms, recentred and
/// rescaled) built from four mix_seed hashes.  E[factor] == 1 exactly for
/// any sigma, z is bounded to [-2*sqrt(3), 2*sqrt(3)], and the whole
/// expression is branch-light straight-line arithmetic -- no libm calls.
/// The floor keeps pathological sigmas (> ~0.29, far beyond the
/// calibrated 0.02-0.05 range) from producing non-positive durations; it
/// is unreachable below that.  This scalar draw is the reference that
/// noise_factors() must match bit for bit.
[[nodiscard]] inline double noise_factor(std::uint64_t stream,
                                         std::uint64_t draw,
                                         double sigma) noexcept {
  const double u0 = static_cast<double>(mix_seed(stream, 4 * draw) >> 11);
  const double u1 = static_cast<double>(mix_seed(stream, 4 * draw + 1) >> 11);
  const double u2 = static_cast<double>(mix_seed(stream, 4 * draw + 2) >> 11);
  const double u3 = static_cast<double>(mix_seed(stream, 4 * draw + 3) >> 11);
  return noise_factor_from_sum(u0 + u1 + u2 + u3, sigma);
}

/// Batch form of noise_factor: out[k] = noise_factor(stream, first + k,
/// sigma) for every k < n, bit for bit.  On CPUs with AVX-512DQ (x86-64
/// GCC/Clang builds) the hashes and sums run eight draws at a time; on
/// every other CPU this is the scalar loop.  The kernel is chosen once,
/// from the CPU.
void noise_factors(std::uint64_t stream, std::uint64_t first, double sigma,
                   double* out, std::size_t n) noexcept;

/// Signature of a batch kernel behind noise_factors().
using NoiseBatchFn = void (*)(std::uint64_t stream, std::uint64_t first,
                              double sigma, double* out,
                              std::size_t n) noexcept;

/// The AVX-512DQ kernel noise_factors() runs, or nullptr when this build
/// or this CPU lacks it.  Exposed so tests can check it directly.
[[nodiscard]] NoiseBatchFn noise_factors_avx512dq() noexcept;

/// A position in a counter-based noise stream -- (stream seed, draws so
/// far) -- plus an optional batch of precomputed upcoming factors.
/// perturb() scales a duration by noise_factor(stream, draws++, sigma),
/// taking the factor from the batch while it lasts.  The batch is a
/// value-owned vector read by index, so a copied or moved model continues
/// the identical sequence, and a fresh model at the same seed replays it.
class NoiseModel {
 public:
  /// `sigma` is the relative jitter magnitude (the factor's standard
  /// deviation); 0 disables noise entirely.
  explicit NoiseModel(std::uint64_t seed = 0x5eedULL, double sigma = 0.0)
      : stream_(seed), sigma_(sigma) {}

  /// Perturb a duration.  The factor is mean-corrected by construction:
  /// E[perturb(t)] == t for any sigma.  sigma == 0 consumes no draw.
  [[nodiscard]] double perturb(double duration) {
    if (sigma_ <= 0.0) return duration;
    const double factor = next_ < batch_.size()
                              ? batch_[next_++]
                              : noise_factor(stream_, draws_, sigma_);
    ++draws_;
    return duration * factor;
  }

  /// Compute the next `n` factors in one batch (noise_factors), replacing
  /// any left unread.  Values and order are unchanged: perturb() drains
  /// the batch, then computes later draws itself.  sigma == 0 computes
  /// nothing.
  void prefetch(std::size_t n) {
    if (sigma_ <= 0.0) return;
    batch_.resize(n);
    noise_factors(stream_, draws_, sigma_, batch_.data(), n);
    next_ = 0;
  }

  [[nodiscard]] double sigma() const noexcept { return sigma_; }
  /// Draws consumed since construction or the last reseed().
  [[nodiscard]] std::uint64_t draws() const noexcept { return draws_; }
  /// Restart as a fresh stream at `seed` (draw counter rewinds to zero,
  /// any prefetched batch is dropped).
  void reseed(std::uint64_t seed) {
    stream_ = seed;
    draws_ = 0;
    batch_.clear();
    next_ = 0;
  }

 private:
  std::uint64_t stream_;
  std::uint64_t draws_ = 0;
  double sigma_;
  std::vector<double> batch_;  ///< prefetched factors
  std::size_t next_ = 0;       ///< batch_[next_] is draw draws_'s factor
};

}  // namespace hetcomm
