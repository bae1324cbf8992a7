#include "sparse/generators.hpp"

#include <algorithm>
#include <random>
#include <stdexcept>

namespace hetcomm::sparse {

namespace {

/// Reinforce the diagonal entries of both endpoints of a coupling so the
/// assembled matrix stays strictly diagonally dominant no matter how many
/// couplings accumulate on a row (duplicates sum on assembly).  A
/// pattern-only matrix skips the reinforcement: it would only repeat the
/// base diagonal every generator emits.
template <class Emit>
void reinforce_edge(Emit& emit, bool with_values, std::int64_t r,
                    std::int64_t c, double weight) {
  emit(r, c, -weight);
  emit(c, r, -weight);
  if (!with_values) return;
  emit(r, r, weight);
  emit(c, c, weight);
}

/// Base diagonal so empty rows stay nonsingular.
template <class Emit>
void add_base_diagonal(Emit& emit, std::int64_t n) {
  for (std::int64_t r = 0; r < n; ++r) emit(r, r, 1.0);
}

}  // namespace

CsrMatrix banded_fem(std::int64_t n, std::int64_t half_band, int degree,
                     std::uint64_t seed, bool with_values) {
  if (n <= 0) throw std::invalid_argument("banded_fem: n must be positive");
  if (half_band < 1 || degree < 0) {
    throw std::invalid_argument("banded_fem: bad band/degree");
  }
  const int half_degree = std::max(1, degree / 2);
  return CsrMatrix::assemble(n, n, with_values, [&](auto&& emit) {
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<std::int64_t> offset(1, half_band);
    for (std::int64_t r = 0; r < n; ++r) {
      for (int k = 0; k < half_degree; ++k) {
        const std::int64_t c = r + offset(rng);
        if (c >= n) continue;
        reinforce_edge(emit, with_values, r, c, 1.0);
      }
    }
    add_base_diagonal(emit, n);
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
        std::mt19937_64 rng(seed);
        std::uniform_int_distribution<std::int64_t> col(0, base.cols() - 1);
        base.for_each_entry(emit);
        for (std::int64_t r = 0; r < head; ++r) {
          for (int k = 0; k < arrow_degree; ++k) {
            const std::int64_t c = col(rng);
            if (c == r) continue;
            reinforce_edge(emit, base.has_values(), r, c, 0.1);
          }
        }
        add_base_diagonal(emit, base.rows());
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
        std::mt19937_64 rng(seed);
        std::uniform_int_distribution<std::int64_t> col(0, base.cols() - 1);
        std::uniform_real_distribution<double> coin(0.0, 1.0);
        base.for_each_entry(emit);
        for (std::int64_t r = 0; r < base.rows(); ++r) {
          if (coin(rng) >= row_fraction) continue;
          for (int k = 0; k < per_row; ++k) {
            const std::int64_t c = col(rng);
            if (c == r) continue;
            reinforce_edge(emit, base.has_values(), r, c, 0.1);
          }
        }
        add_base_diagonal(emit, base.rows());
      });
}

}  // namespace hetcomm::sparse
