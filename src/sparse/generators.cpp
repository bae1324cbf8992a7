#include "sparse/generators.hpp"

#include <stdexcept>

#include "sparse/couplings.hpp"

namespace hetcomm::sparse {

CsrMatrix banded_fem(std::int64_t n, std::int64_t half_band, int degree,
                     std::uint64_t seed, bool with_values) {
  if (n <= 0) throw std::invalid_argument("banded_fem: n must be positive");
  if (half_band < 1 || degree < 0) {
    throw std::invalid_argument("banded_fem: bad band/degree");
  }
  return CsrMatrix::assemble(n, n, with_values, [&](auto&& emit) {
    detail::emit_band(emit, with_values, n, half_band, degree, seed);
    detail::emit_diagonal(emit, n);
  });
}

CsrMatrix mesh_laplacian_2d(std::int64_t nx, std::int64_t ny,
                            bool with_values) {
  if (nx <= 0 || ny <= 0) {
    throw std::invalid_argument("mesh_laplacian_2d: bad grid");
  }
  const std::int64_t n = nx * ny;
  auto id = [nx](std::int64_t i, std::int64_t j) { return j * nx + i; };
  return CsrMatrix::assemble(n, n, with_values, [&](auto&& emit) {
    for (std::int64_t j = 0; j < ny; ++j) {
      for (std::int64_t i = 0; i < nx; ++i) {
        const std::int64_t r = id(i, j);
        emit(r, r, 4.0);
        if (i + 1 < nx) {
          emit(r, id(i + 1, j), -1.0);
          emit(id(i + 1, j), r, -1.0);
        }
        if (j + 1 < ny) {
          emit(r, id(i, j + 1), -1.0);
          emit(id(i, j + 1), r, -1.0);
        }
      }
    }
  });
}

CsrMatrix with_arrow(const CsrMatrix& base, std::int64_t head,
                     int arrow_degree, std::uint64_t seed) {
  if (base.rows() != base.cols()) {
    throw std::invalid_argument("with_arrow: matrix must be square");
  }
  if (head < 0 || head > base.rows() || arrow_degree < 0) {
    throw std::invalid_argument("with_arrow: bad head/degree");
  }
  return CsrMatrix::assemble(
      base.rows(), base.cols(), base.has_values(), [&](auto&& emit) {
        base.for_each_entry(emit);
        detail::emit_arrow(emit, base.has_values(), base.rows(), head,
                           arrow_degree, seed);
        detail::emit_diagonal(emit, base.rows());
      });
}

CsrMatrix with_long_range(const CsrMatrix& base, int per_row,
                          double row_fraction, std::uint64_t seed) {
  if (base.rows() != base.cols()) {
    throw std::invalid_argument("with_long_range: matrix must be square");
  }
  if (per_row < 0 || row_fraction < 0.0 || row_fraction > 1.0) {
    throw std::invalid_argument("with_long_range: bad parameters");
  }
  return CsrMatrix::assemble(
      base.rows(), base.cols(), base.has_values(), [&](auto&& emit) {
        base.for_each_entry(emit);
        detail::emit_long_range(emit, base.has_values(), base.rows(), per_row,
                                row_fraction, seed);
        detail::emit_diagonal(emit, base.rows());
      });
}

}  // namespace hetcomm::sparse
