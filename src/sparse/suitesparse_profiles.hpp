#pragma once
// Synthetic stand-ins for the paper's SuiteSparse test matrices (§4.5, §5).
//
// The real matrices are not redistributable inside this repository, so each
// profile records the published structural statistics (size, nonzeros,
// band/locality character) and a generator recipe that reproduces the
// *communication-relevant* structure: mean degree, band fraction (which
// controls neighbor fan-out under row partitioning), plus audikw_1's dense
// arrow head and thermal2's scattered long-range couplings.  Profiles can
// be generated at reduced scale; the band is specified as a fraction of n
// so halo fan-out is preserved under scaling.

#include <cstdint>
#include <string>
#include <vector>

#include "sparse/csr.hpp"

namespace hetcomm::sparse {

struct MatrixProfile {
  std::string name;
  std::int64_t rows = 0;        ///< published row count
  std::int64_t nnz = 0;         ///< published nonzero count
  double band_fraction = 0.01;  ///< half bandwidth as a fraction of n
  // audikw_1-style dense arrow head:
  std::int64_t arrow_head = 0;  ///< rows in the dense head (at full scale)
  int arrow_degree = 0;         ///< couplings per head row
  // thermal2-style scattered couplings:
  int long_range_per_row = 0;
  double long_range_fraction = 0.0;
  /// GPU counts used for this matrix in Figure 5.1's sweep.
  std::vector<int> gpu_counts;
};

/// The six Figure 5.1 matrices (plus audikw_1 doubles as the Figure 4.2
/// validation case).
[[nodiscard]] const std::vector<MatrixProfile>& figure51_profiles();

/// Profile by name; throws std::invalid_argument when unknown.
[[nodiscard]] const MatrixProfile& profile_by_name(const std::string& name);

/// Generate the stand-in at `scale` (0 < scale <= 1) of the published size.
/// Pattern-only (no values) to keep large instances cheap, and one assembly
/// of the union of its couplings (generators.hpp).
[[nodiscard]] CsrMatrix generate_standin(const MatrixProfile& profile,
                                         double scale, std::uint64_t seed);

}  // namespace hetcomm::sparse
