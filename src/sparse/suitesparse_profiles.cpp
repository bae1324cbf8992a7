#include "sparse/suitesparse_profiles.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "sparse/couplings.hpp"

namespace hetcomm::sparse {

const std::vector<MatrixProfile>& figure51_profiles() {
  // Published sizes from the SuiteSparse collection; band fractions chosen
  // to reproduce each matrix's neighbor fan-out character under contiguous
  // row partitioning (narrow band => nearest-neighbor halo, wide band =>
  // many-node halo).
  static const std::vector<MatrixProfile> profiles = {
      {"audikw_1", 943695, 77651847, 0.015, /*arrow_head=*/2000,
       /*arrow_degree=*/40, 0, 0.0, {40, 80, 160, 320}},
      {"Serena", 1391349, 64131971, 0.040, 0, 0, 0, 0.0, {40, 80, 160, 320}},
      {"ldoor", 952203, 42493817, 0.008, 0, 0, 0, 0.0, {40, 80, 160, 320}},
      {"thermal2", 1228045, 8580313, 0.002, 0, 0, /*long_range_per_row=*/1,
       /*long_range_fraction=*/0.02, {40, 80, 160, 320}},
      {"bone010", 986703, 47851783, 0.020, 0, 0, 0, 0.0, {80, 160, 320}},
      {"Geo_1438", 1437960, 60236322, 0.035, 0, 0, 0, 0.0, {80, 160, 320}},
  };
  return profiles;
}

const MatrixProfile& profile_by_name(const std::string& name) {
  for (const MatrixProfile& p : figure51_profiles()) {
    if (p.name == name) return p;
  }
  throw std::invalid_argument("profile_by_name: unknown matrix " + name);
}

CsrMatrix generate_standin(const MatrixProfile& profile, double scale,
                           std::uint64_t seed) {
  if (scale <= 0.0 || scale > 1.0) {
    throw std::invalid_argument("generate_standin: scale out of (0,1]");
  }
  const std::int64_t n = std::max<std::int64_t>(
      64, static_cast<std::int64_t>(
              std::llround(static_cast<double>(profile.rows) * scale)));
  const int degree = std::max(
      2, static_cast<int>(profile.nnz / std::max<std::int64_t>(1, profile.rows)));
  const std::int64_t half_band = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(
             std::llround(profile.band_fraction * static_cast<double>(n))));

  std::int64_t head = 0;
  if (profile.arrow_head > 0 && profile.arrow_degree > 0) {
    head = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(std::llround(
               static_cast<double>(profile.arrow_head) * scale)));
  }
  const bool long_range = profile.long_range_per_row > 0;
  if (head > n || (long_range && (profile.long_range_fraction < 0.0 ||
                                  profile.long_range_fraction > 1.0))) {
    throw std::invalid_argument("generate_standin: bad arrow or long-range "
                                "parameters for " + profile.name);
  }
  // One pattern-only assembly of the union of the couplings: the pattern
  // banded_fem, then with_arrow, then with_long_range would give.
  return CsrMatrix::assemble(n, n, /*with_values=*/false, [&](auto&& emit) {
    detail::emit_band(emit, false, n, half_band, degree, seed);
    if (head > 0) {
      detail::emit_arrow(emit, false, n, head, profile.arrow_degree, seed + 1);
    }
    if (long_range) {
      detail::emit_long_range(emit, false, n, profile.long_range_per_row,
                              profile.long_range_fraction, seed + 2);
    }
    detail::emit_diagonal(emit, n);
  });
}

}  // namespace hetcomm::sparse
