#pragma once
// The coupling emitters behind the synthetic generators.
//
// Generator-internal: only sparse/generators.cpp (banded_fem, with_arrow,
// with_long_range) and sparse/suitesparse_profiles.cpp (generate_standin)
// include this header.  Each emitter calls `emit(row, col, value)` for
// every entry of its couplings, drawing from its own RNG seeded afresh on
// every call, so CsrMatrix::assemble's count and fill passes see the same
// entries and a stand-in's one assembly sees the couplings the chained
// generators would.

#include <algorithm>
#include <cstdint>
#include <random>

namespace hetcomm::sparse::detail {

/// Emits coupling (r, c) and its mirror.  With values it also reinforces
/// both diagonals by `weight`, so the matrix stays strictly diagonally
/// dominant however many couplings pile up on a row; pattern-only it
/// skips them, as they would only repeat the base diagonal.
template <class Emit>
void emit_coupling(Emit& emit, bool with_values, std::int64_t r,
                   std::int64_t c, double weight) {
  emit(r, c, -weight);
  emit(c, r, -weight);
  if (!with_values) return;
  emit(r, r, weight);
  emit(c, c, weight);
}

/// banded_fem's couplings on an n-row matrix: max(1, degree / 2) offsets
/// drawn from [1, half_band] per row, each dropped past the last row.
template <class Emit>
void emit_band(Emit& emit, bool with_values, std::int64_t n,
               std::int64_t half_band, int degree, std::uint64_t seed) {
  const int half_degree = std::max(1, degree / 2);
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::int64_t> offset(1, half_band);
  for (std::int64_t r = 0; r < n; ++r) {
    for (int k = 0; k < half_degree; ++k) {
      const std::int64_t c = r + offset(rng);
      if (c >= n) continue;
      emit_coupling(emit, with_values, r, c, 1.0);
    }
  }
}

/// with_arrow's couplings: each of the first `head` rows couples to
/// `arrow_degree` columns drawn from [0, n), skipping its own.
template <class Emit>
void emit_arrow(Emit& emit, bool with_values, std::int64_t n,
                std::int64_t head, int arrow_degree, std::uint64_t seed) {
  if (head == 0) return;  // n may be 0, leaving no columns to draw from
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::int64_t> col(0, n - 1);
  for (std::int64_t r = 0; r < head; ++r) {
    for (int k = 0; k < arrow_degree; ++k) {
      const std::int64_t c = col(rng);
      if (c == r) continue;
      emit_coupling(emit, with_values, r, c, 0.1);
    }
  }
}

/// with_long_range's couplings: each row that draws below `row_fraction`
/// couples to `per_row` columns drawn from [0, n), skipping its own.
template <class Emit>
void emit_long_range(Emit& emit, bool with_values, std::int64_t n,
                     int per_row, double row_fraction, std::uint64_t seed) {
  if (n == 0) return;  // no columns to draw from
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::int64_t> col(0, n - 1);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  for (std::int64_t r = 0; r < n; ++r) {
    if (coin(rng) >= row_fraction) continue;
    for (int k = 0; k < per_row; ++k) {
      const std::int64_t c = col(rng);
      if (c == r) continue;
      emit_coupling(emit, with_values, r, c, 0.1);
    }
  }
}

/// The unit base diagonal every generator ends with, so no row is empty.
template <class Emit>
void emit_diagonal(Emit& emit, std::int64_t n) {
  for (std::int64_t r = 0; r < n; ++r) emit(r, r, 1.0);
}

}  // namespace hetcomm::sparse::detail
