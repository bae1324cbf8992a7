#pragma once
// Synthetic sparse-matrix generators.
//
// These produce structurally-symmetric patterns with controllable size,
// degree and locality, mimicking the character of the paper's SuiteSparse
// test matrices (FEM band structure, dense arrow heads, scattered
// long-range couplings).  Values, when requested, make the matrix strictly
// diagonally dominant so SpMV results are well-behaved.
//
// Each generator emits its entries straight into CsrMatrix::assemble
// through the coupling emitters of sparse/couplings.hpp, each of which
// seeds its own RNG on every call, so assemble()'s two passes see the same
// couplings.  A coupling may hit an entry already emitted; duplicates sum
// on assembly, in emission order: the input matrix's entries row by row
// (with_arrow, with_long_range), then the couplings in RNG order, then the
// unit base diagonal.  A SuiteSparse stand-in (suitesparse_profiles.hpp) is
// one pattern-only assembly of the union of the band's, the arrow's and the
// long-range couplings through the same emitters: the pattern banded_fem,
// with_arrow and with_long_range give when chained, without building the
// matrices in between.

#include <cstdint>

#include "sparse/csr.hpp"

namespace hetcomm::sparse {

/// Symmetric banded FEM-like matrix: each row couples to ~`degree` random
/// neighbors within +-`half_band` plus the diagonal.
[[nodiscard]] CsrMatrix banded_fem(std::int64_t n, std::int64_t half_band,
                                   int degree, std::uint64_t seed,
                                   bool with_values = true);

/// 5-point Laplacian on an nx-by-ny grid (classic mesh matrix).
[[nodiscard]] CsrMatrix mesh_laplacian_2d(std::int64_t nx, std::int64_t ny,
                                          bool with_values = true);

/// Add a dense symmetric "arrow": the first `head` rows/columns couple to
/// `arrow_degree` random positions spread over the whole matrix (audikw_1's
/// signature structure).
[[nodiscard]] CsrMatrix with_arrow(const CsrMatrix& base, std::int64_t head,
                                   int arrow_degree, std::uint64_t seed);

/// Add `per_row` random symmetric long-range couplings to a fraction
/// `row_fraction` of rows (thermal2-like scattered structure).
[[nodiscard]] CsrMatrix with_long_range(const CsrMatrix& base, int per_row,
                                        double row_fraction,
                                        std::uint64_t seed);

}  // namespace hetcomm::sparse
