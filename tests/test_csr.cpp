#include "sparse/csr.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "sparse/matrix_market.hpp"
#include "sparse/suitesparse_profiles.hpp"

namespace hetcomm::sparse {
namespace {

CsrMatrix small_matrix() {
  // [ 2 -1  0 ]
  // [-1  2 -1 ]
  // [ 0 -1  2 ]
  return CsrMatrix::from_triplets(
      3, 3,
      {{0, 0, 2}, {0, 1, -1}, {1, 0, -1}, {1, 1, 2}, {1, 2, -1}, {2, 1, -1},
       {2, 2, 2}});
}

TEST(CsrMatrix, FromTripletsBasics) {
  const CsrMatrix m = small_matrix();
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m.nnz(), 7);
  EXPECT_TRUE(m.has_values());
  EXPECT_NO_THROW(m.validate());
  EXPECT_EQ(m.row_nnz(0), 2);
  EXPECT_EQ(m.row_nnz(1), 3);
}

TEST(CsrMatrix, DuplicatesAreSummed) {
  const CsrMatrix m = CsrMatrix::from_triplets(
      2, 2, {{0, 0, 1.0}, {0, 0, 2.5}, {1, 1, 1.0}});
  EXPECT_EQ(m.nnz(), 2);
  EXPECT_DOUBLE_EQ(m.values()[0], 3.5);
}

TEST(CsrMatrix, PatternOnlyDiscardsValues) {
  const CsrMatrix m =
      CsrMatrix::from_triplets(2, 2, {{0, 1, 5.0}}, /*with_values=*/false);
  EXPECT_FALSE(m.has_values());
  EXPECT_EQ(m.nnz(), 1);
  EXPECT_NO_THROW(m.validate());
}

TEST(CsrMatrix, OutOfRangeTripletThrows) {
  EXPECT_THROW((void)CsrMatrix::from_triplets(2, 2, {{0, 2, 1.0}}),
               std::out_of_range);
  EXPECT_THROW((void)CsrMatrix::from_triplets(2, 2, {{-1, 0, 1.0}}),
               std::out_of_range);
  EXPECT_THROW((void)CsrMatrix::from_triplets(-1, 2, {}), std::invalid_argument);
}

TEST(CsrMatrix, EmptyMatrixIsValid) {
  const CsrMatrix m = CsrMatrix::from_triplets(4, 4, {});
  EXPECT_EQ(m.nnz(), 0);
  EXPECT_NO_THROW(m.validate());
  EXPECT_DOUBLE_EQ(m.mean_degree(), 0.0);
}

TEST(CsrMatrix, BandwidthOfTridiagonal) {
  EXPECT_EQ(small_matrix().bandwidth(), 1);
}

TEST(CsrMatrix, PatternSymmetry) {
  EXPECT_TRUE(small_matrix().pattern_symmetric());
  const CsrMatrix asym = CsrMatrix::from_triplets(2, 2, {{0, 1, 1.0}});
  EXPECT_FALSE(asym.pattern_symmetric());
  const CsrMatrix rect = CsrMatrix::from_triplets(2, 3, {{0, 1, 1.0}});
  EXPECT_FALSE(rect.pattern_symmetric());
  // Every row and every column holds one entry, yet the cycle 0->1->2->0
  // has no mirror.
  const CsrMatrix cycle =
      CsrMatrix::from_triplets(3, 3, {{0, 1, 1.0}, {1, 2, 1.0}, {2, 0, 1.0}});
  EXPECT_FALSE(cycle.pattern_symmetric());
}

TEST(CsrMatrix, MeanDegree) {
  EXPECT_NEAR(small_matrix().mean_degree(), 7.0 / 3.0, 1e-12);
}

TEST(Spmv, MatchesHandComputedResult) {
  const CsrMatrix m = small_matrix();
  const std::vector<double> x = {1.0, 2.0, 3.0};
  const std::vector<double> y = spmv(m, x);
  ASSERT_EQ(y.size(), 3u);
  EXPECT_DOUBLE_EQ(y[0], 2 * 1 - 2);          // 0
  EXPECT_DOUBLE_EQ(y[1], -1 + 4 - 3);          // 0
  EXPECT_DOUBLE_EQ(y[2], -2 + 6);              // 4
}

TEST(Spmv, RejectsBadInputs) {
  const CsrMatrix m = small_matrix();
  EXPECT_THROW((void)spmv(m, {1.0, 2.0}), std::invalid_argument);
  const CsrMatrix pat =
      CsrMatrix::from_triplets(2, 2, {{0, 0, 1.0}}, false);
  EXPECT_THROW((void)spmv(pat, {1.0, 2.0}), std::invalid_argument);
}

TEST(Spmv, IdentityActsAsIdentity) {
  std::vector<Triplet> t;
  for (std::int64_t i = 0; i < 10; ++i) t.push_back({i, i, 1.0});
  const CsrMatrix eye = CsrMatrix::from_triplets(10, 10, t);
  std::vector<double> x(10);
  for (std::size_t i = 0; i < 10; ++i) x[i] = static_cast<double>(i) * 1.5;
  EXPECT_EQ(spmv(eye, x), x);
}

struct Assembled {
  std::vector<std::int64_t> row_ptr;
  std::vector<std::int32_t> col_idx;
  std::vector<double> values;
};

/// Sort-based reference assembly: stable sort by (row, col), then sum each
/// run of duplicates in input order.
Assembled reference_assembly(std::int64_t rows, std::vector<Triplet> t) {
  std::stable_sort(t.begin(), t.end(), [](const Triplet& a, const Triplet& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  });
  Assembled ref;
  ref.row_ptr.assign(static_cast<std::size_t>(rows) + 1, 0);
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (i > 0 && t[i].row == t[i - 1].row && t[i].col == t[i - 1].col) {
      ref.values.back() += t[i].value;
      continue;
    }
    ref.col_idx.push_back(static_cast<std::int32_t>(t[i].col));
    ref.values.push_back(t[i].value);
    ++ref.row_ptr[static_cast<std::size_t>(t[i].row) + 1];
  }
  for (std::size_t r = 0; r < static_cast<std::size_t>(rows); ++r) {
    ref.row_ptr[r + 1] += ref.row_ptr[r];
  }
  return ref;
}

std::vector<std::uint64_t> bits(const std::vector<double>& v) {
  std::vector<std::uint64_t> out;
  for (const double x : v) out.push_back(std::bit_cast<std::uint64_t>(x));
  return out;
}

TEST(CsrAssembly, MatchesStableSortReference) {
  // Small shapes and few distinct columns make duplicates, empty rows and
  // single-entry rows common; values of mixed magnitude make the summation
  // order visible in the last bits.
  std::mt19937_64 rng(20);
  std::uniform_real_distribution<double> mantissa(-1.0, 1.0);
  std::uniform_int_distribution<int> exponent(-8, 8);
  for (int trial = 0; trial < 500; ++trial) {
    const auto rows = static_cast<std::int64_t>(rng() % 9);
    const auto cols = static_cast<std::int64_t>(rng() % 9);
    std::vector<Triplet> t;
    if (rows > 0 && cols > 0) {
      std::uniform_int_distribution<std::int64_t> row(0, rows - 1);
      std::uniform_int_distribution<std::int64_t> col(0, cols - 1);
      const auto count = rng() % 48;
      for (std::uint64_t i = 0; i < count; ++i) {
        const std::int64_t r = row(rng);
        const std::int64_t c = col(rng);
        t.push_back({r, c, std::ldexp(mantissa(rng), exponent(rng))});
      }
    }
    const Assembled ref = reference_assembly(rows, t);
    const CsrMatrix m = CsrMatrix::from_triplets(rows, cols, t);
    SCOPED_TRACE("trial " + std::to_string(trial));
    EXPECT_NO_THROW(m.validate());
    EXPECT_EQ(m.row_ptr(), ref.row_ptr);
    EXPECT_EQ(m.col_idx(), ref.col_idx);
    EXPECT_EQ(bits(m.values()), bits(ref.values));
    const CsrMatrix pattern = CsrMatrix::from_triplets(rows, cols, t, false);
    EXPECT_EQ(pattern.row_ptr(), ref.row_ptr);
    EXPECT_EQ(pattern.col_idx(), ref.col_idx);
    EXPECT_FALSE(pattern.has_values());
  }
  const CsrMatrix empty = CsrMatrix::from_triplets(0, 0, {});
  EXPECT_EQ(empty.row_ptr(), (std::vector<std::int64_t>{0}));
  EXPECT_EQ(empty.nnz(), 0);
}

/// FNV-1a over the little-endian bytes of row_ptr, then of each column
/// widened to std::int64_t, so a digest does not depend on the index width.
std::uint64_t pattern_digest(const CsrMatrix& m) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::int64_t x) {
    for (int b = 0; b < 8; ++b) {
      h ^= static_cast<std::uint64_t>(x) >> (8 * b) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  for (const std::int64_t x : m.row_ptr()) mix(x);
  for (const std::int64_t c : m.col_idx()) mix(c);
  return h;
}

TEST(CsrAssembly, StandinPatternsArePinned) {
  // Every pattern and simulated number of the study is built on these
  // stand-ins, so their patterns must never change.  audikw_1 at 0.015 is
  // the benchmark's fixture.
  struct Pinned {
    const char* name;
    double scale;
    std::uint64_t seed;
    std::uint64_t digest;
  };
  const Pinned kPinned[] = {
      {"audikw_1", 0.015, 1, 0x330a3d0c43bcfc79ULL},
      {"audikw_1", 0.015, 9103, 0x152c5c1b33c79051ULL},
      {"Serena", 0.005, 1, 0x1758b05117b507ddULL},
      {"Serena", 0.005, 9103, 0x51030d58da565095ULL},
      {"ldoor", 0.005, 1, 0xefc020825e2c82e4ULL},
      {"ldoor", 0.005, 9103, 0xddb4f3e13a44622fULL},
      {"thermal2", 0.005, 1, 0x68663aca7f03a068ULL},
      {"thermal2", 0.005, 9103, 0x405fc1c454574840ULL},
      {"bone010", 0.005, 1, 0x7cbf09485a75d561ULL},
      {"bone010", 0.005, 9103, 0xab949f30975d8684ULL},
      {"Geo_1438", 0.005, 1, 0xc4db4cb89f407250ULL},
      {"Geo_1438", 0.005, 9103, 0x979a5521450042adULL},
  };
  for (const Pinned& p : kPinned) {
    const CsrMatrix m = generate_standin(profile_by_name(p.name), p.scale,
                                         p.seed);
    EXPECT_EQ(pattern_digest(m), p.digest) << p.name << " seed " << p.seed;
  }
}

TEST(CsrAssembly, RejectsMoreColumnsThanAnInt32Index) {
  constexpr std::int64_t kTooWide =
      std::int64_t{std::numeric_limits<std::int32_t>::max()} + 1;
  int calls = 0;
  EXPECT_THROW((void)CsrMatrix::assemble(1, kTooWide, true,
                                         [&calls](auto&&) { ++calls; }),
               std::invalid_argument);
  EXPECT_EQ(calls, 0) << "the enumerator ran before the column check";
  EXPECT_THROW((void)CsrMatrix::from_triplets(1, kTooWide, {{0, 0, 1.0}}),
               std::invalid_argument);
}

TEST(CsrAssembly, LastInt32ColumnAssemblesAndWrites) {
  constexpr std::int64_t kCols = std::numeric_limits<std::int32_t>::max();
  const CsrMatrix m =
      CsrMatrix::from_triplets(1, kCols, {{0, kCols - 1, 2.5}});
  EXPECT_NO_THROW(m.validate());
  ASSERT_EQ(m.nnz(), 1);
  EXPECT_EQ(m.col_idx()[0], 2147483646);
  // The writer's 1-based column is INT32_MAX itself.
  std::ostringstream out;
  write_matrix_market(out, m);
  EXPECT_EQ(out.str(),
            "%%MatrixMarket matrix coordinate real general\n"
            "1 2147483647 1\n"
            "1 2147483647 2.5\n");
}

/// Runs `enumerate` through assemble() and returns the std::logic_error it
/// throws; fails the test on any other outcome.
template <class Enumerate>
std::string assembly_error(Enumerate enumerate) {
  try {
    (void)CsrMatrix::assemble(3, 3, true, enumerate);
  } catch (const std::out_of_range& e) {
    ADD_FAILURE() << "range error instead of a pass mismatch: " << e.what();
    return "";
  } catch (const std::logic_error& e) {
    return e.what();
  }
  ADD_FAILURE() << "assemble accepted a second pass unlike the first";
  return "";
}

TEST(CsrAssembly, FillPassThatDisagreesThrowsLogicError) {
  // Each enumerator changes its output on its second (fill) call; the
  // assembly must throw, never write outside a row.
  int extra_calls = 0;
  const std::string extra = assembly_error([&extra_calls](auto&& emit) {
    emit(0, 0, 1.0);
    emit(2, 1, 1.0);
    if (++extra_calls == 2) emit(2, 2, 1.0);  // one entry too many
  });
  EXPECT_NE(extra.find("fill pass"), std::string::npos) << extra;

  int short_calls = 0;
  const std::string missing = assembly_error([&short_calls](auto&& emit) {
    emit(0, 0, 1.0);
    if (++short_calls == 1) emit(1, 1, 1.0);  // row 1 left unfilled
  });
  EXPECT_NE(missing.find("fill pass"), std::string::npos) << missing;

  int moved_calls = 0;
  const std::string moved = assembly_error([&moved_calls](auto&& emit) {
    emit(0, 0, 1.0);
    if (++moved_calls == 1) {
      emit(1, 1, 1.0);
    } else {
      emit(7, 1, 1.0);  // a row past the matrix
    }
  });
  EXPECT_NE(moved.find("fill pass"), std::string::npos) << moved;
}

}  // namespace
}  // namespace hetcomm::sparse
