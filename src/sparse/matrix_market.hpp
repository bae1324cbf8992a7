#pragma once
// Matrix Market coordinate-format I/O (the SuiteSparse interchange format).
//
// Supports `matrix coordinate (real|pattern|integer) (general|symmetric)`.
// Symmetric inputs are expanded to full storage on read.
//
// A file is outside input: the size line is checked before anything is
// allocated (rows and cols in [1, 2^26], symmetric matrices square, at most
// rows * cols entries), and every entry against it.  Each defect throws
// std::invalid_argument naming the line; read_matrix_market_file also names
// the path.

#include <iosfwd>
#include <string>

#include "sparse/csr.hpp"

namespace hetcomm::sparse {

[[nodiscard]] CsrMatrix read_matrix_market(std::istream& in);
[[nodiscard]] CsrMatrix read_matrix_market_file(const std::string& path);

/// Writes `matrix coordinate real general` (or `pattern` when the matrix
/// carries no values).
void write_matrix_market(std::ostream& out, const CsrMatrix& m);
void write_matrix_market_file(const std::string& path, const CsrMatrix& m);

}  // namespace hetcomm::sparse
