#include "sparse/generators.hpp"

#include <gtest/gtest.h>

namespace hetcomm::sparse {
namespace {

TEST(BandedFem, ShapeAndSymmetry) {
  const CsrMatrix m = banded_fem(500, 20, 8, 42);
  EXPECT_EQ(m.rows(), 500);
  EXPECT_EQ(m.cols(), 500);
  EXPECT_NO_THROW(m.validate());
  EXPECT_TRUE(m.pattern_symmetric());
  EXPECT_LE(m.bandwidth(), 20);
}

TEST(BandedFem, DegreeIsApproximatelyRespected) {
  const CsrMatrix m = banded_fem(2000, 100, 12, 7);
  // Degree ~ 12 couplings + diagonal, modulo collisions and edge rows.
  EXPECT_GT(m.mean_degree(), 6.0);
  EXPECT_LT(m.mean_degree(), 14.0);
}

TEST(BandedFem, DeterministicForSeed) {
  const CsrMatrix a = banded_fem(300, 15, 6, 11);
  const CsrMatrix b = banded_fem(300, 15, 6, 11);
  EXPECT_EQ(a.nnz(), b.nnz());
  EXPECT_EQ(a.col_idx(), b.col_idx());
}

TEST(BandedFem, DiagonallyDominantValues) {
  const CsrMatrix m = banded_fem(200, 10, 6, 3);
  const auto& rp = m.row_ptr();
  const auto& ci = m.col_idx();
  const auto& v = m.values();
  for (std::int64_t r = 0; r < m.rows(); ++r) {
    double diag = 0.0, off = 0.0;
    for (std::int64_t k = rp[r]; k < rp[r + 1]; ++k) {
      if (ci[k] == r) {
        diag = v[k];
      } else {
        off += std::abs(v[k]);
      }
    }
    EXPECT_GT(diag, off) << "row " << r;
  }
}

TEST(BandedFem, RejectsBadArguments) {
  EXPECT_THROW((void)banded_fem(0, 10, 4, 1), std::invalid_argument);
  EXPECT_THROW((void)banded_fem(10, 0, 4, 1), std::invalid_argument);
  EXPECT_THROW((void)banded_fem(10, 2, -1, 1), std::invalid_argument);
}

TEST(MeshLaplacian, FivePointStencil) {
  const CsrMatrix m = mesh_laplacian_2d(10, 10);
  EXPECT_EQ(m.rows(), 100);
  EXPECT_NO_THROW(m.validate());
  EXPECT_TRUE(m.pattern_symmetric());
  // Interior rows have 5 entries, corners 3.
  EXPECT_EQ(m.row_nnz(5 * 10 + 5), 5);
  EXPECT_EQ(m.row_nnz(0), 3);
  EXPECT_THROW((void)mesh_laplacian_2d(0, 5), std::invalid_argument);
}

TEST(WithArrow, AddsDenseHead) {
  const CsrMatrix base = banded_fem(1000, 10, 4, 5);
  const CsrMatrix arrowed = with_arrow(base, 20, 30, 6);
  EXPECT_GT(arrowed.nnz(), base.nnz());
  EXPECT_TRUE(arrowed.pattern_symmetric());
  // Head rows become much denser than body rows.
  EXPECT_GT(arrowed.row_nnz(0), 3 * base.row_nnz(0));
  // Arrow couplings span the whole matrix, so bandwidth explodes.
  EXPECT_GT(arrowed.bandwidth(), base.bandwidth());
}

TEST(WithArrow, ValidatesArguments) {
  const CsrMatrix base = banded_fem(100, 5, 4, 5);
  EXPECT_THROW((void)with_arrow(base, -1, 10, 1), std::invalid_argument);
  EXPECT_THROW((void)with_arrow(base, 101, 10, 1), std::invalid_argument);
  const CsrMatrix rect = CsrMatrix::from_triplets(2, 3, {{0, 1, 1.0}});
  EXPECT_THROW((void)with_arrow(rect, 1, 1, 1), std::invalid_argument);
}

TEST(WithArrow, EmptyMatrixStaysEmpty) {
  // No column range to draw from: neither generator may build a column
  // distribution over [0, -1].
  const CsrMatrix empty = CsrMatrix::from_triplets(0, 0, {});
  EXPECT_EQ(with_arrow(empty, 0, 4, 1).nnz(), 0);
  EXPECT_EQ(with_long_range(empty, 2, 0.5, 1).nnz(), 0);
}

TEST(WithLongRange, AddsScatteredCouplings) {
  const CsrMatrix base = banded_fem(2000, 5, 4, 5);
  const CsrMatrix lr = with_long_range(base, 2, 0.5, 8);
  EXPECT_GT(lr.nnz(), base.nnz());
  EXPECT_TRUE(lr.pattern_symmetric());
  EXPECT_GT(lr.bandwidth(), base.bandwidth());
}

TEST(WithLongRange, ZeroFractionIsAlmostIdentity) {
  const CsrMatrix base = banded_fem(500, 5, 4, 5);
  const CsrMatrix lr = with_long_range(base, 3, 0.0, 8);
  EXPECT_EQ(lr.nnz(), base.nnz() + 0);  // only diagonal re-added, merged
  EXPECT_THROW((void)with_long_range(base, 1, 1.5, 2), std::invalid_argument);
}

}  // namespace
}  // namespace hetcomm::sparse
