#include "sparse/matrix_market.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "sparse/generators.hpp"

#ifndef HETCOMM_TEST_DATA_DIR
#error "HETCOMM_TEST_DATA_DIR must point at tests/data"
#endif

namespace hetcomm::sparse {
namespace {

TEST(MatrixMarket, ReadGeneralReal) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "% a comment\n"
      "3 3 4\n"
      "1 1 2.0\n"
      "1 2 -1.0\n"
      "2 2 2.0\n"
      "3 3 2.0\n");
  const CsrMatrix m = read_matrix_market(in);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.nnz(), 4);
  EXPECT_TRUE(m.has_values());
  EXPECT_DOUBLE_EQ(m.values()[1], -1.0);
}

TEST(MatrixMarket, ReadSymmetricExpands) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "3 3 3\n"
      "1 1 2.0\n"
      "2 1 -1.0\n"
      "3 3 2.0\n");
  const CsrMatrix m = read_matrix_market(in);
  EXPECT_EQ(m.nnz(), 4);  // (2,1) mirrored to (1,2)
  EXPECT_TRUE(m.pattern_symmetric());
}

TEST(MatrixMarket, ReadPattern) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "2 2 2\n"
      "1 1\n"
      "2 2\n");
  const CsrMatrix m = read_matrix_market(in);
  EXPECT_FALSE(m.has_values());
  EXPECT_EQ(m.nnz(), 2);
}

TEST(MatrixMarket, RejectsBadHeaders) {
  std::istringstream bad1("%%MatrixMarket matrix array real general\n1 1\n");
  EXPECT_THROW((void)read_matrix_market(bad1), std::invalid_argument);
  std::istringstream bad2(
      "%%MatrixMarket matrix coordinate complex general\n1 1 0\n");
  EXPECT_THROW((void)read_matrix_market(bad2), std::invalid_argument);
  std::istringstream bad3("");
  EXPECT_THROW((void)read_matrix_market(bad3), std::invalid_argument);
}

TEST(MatrixMarket, RejectsTruncatedEntries) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 3\n"
      "1 1 1.0\n");
  EXPECT_THROW((void)read_matrix_market(in), std::invalid_argument);
}

TEST(MatrixMarket, EntryErrorsNameTheirLine) {
  // Comment lines count: the bad entry is on line 5 of the stream.
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "% comment\n"
      "3 3 2\n"
      "1 1\n"
      "4 1\n");
  try {
    (void)read_matrix_market(in);
    FAIL() << "entry outside the header accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 5: entry (4,1) outside"),
              std::string::npos)
        << e.what();
  }
}

TEST(MatrixMarket, RejectsEveryFileOfTheMalformedCorpus) {
  // Each file under tests/data/bad_mtx/ is rejected by the stream reader as
  // an input error, whatever else the directory comes to hold.
  int files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(HETCOMM_TEST_DATA_DIR) + "/bad_mtx")) {
    std::ifstream in(entry.path());
    ASSERT_TRUE(in) << entry.path();
    EXPECT_THROW((void)read_matrix_market(in), std::invalid_argument)
        << entry.path();
    ++files;
  }
  EXPECT_GE(files, 12);
}

TEST(MatrixMarket, RoundTripPreservesStructureAndValues) {
  const CsrMatrix m = banded_fem(120, 8, 4, 13);
  std::stringstream buf;
  write_matrix_market(buf, m);
  const CsrMatrix back = read_matrix_market(buf);
  EXPECT_EQ(back.rows(), m.rows());
  EXPECT_EQ(back.nnz(), m.nnz());
  EXPECT_EQ(back.col_idx(), m.col_idx());
  for (std::size_t k = 0; k < m.values().size(); ++k) {
    EXPECT_NEAR(back.values()[k], m.values()[k], 1e-12);
  }
}

TEST(MatrixMarket, RoundTripPatternOnly) {
  const CsrMatrix m = banded_fem(60, 5, 4, 3, /*with_values=*/false);
  std::stringstream buf;
  write_matrix_market(buf, m);
  const CsrMatrix back = read_matrix_market(buf);
  EXPECT_FALSE(back.has_values());
  EXPECT_EQ(back.col_idx(), m.col_idx());
}

TEST(MatrixMarket, MissingFileThrows) {
  EXPECT_THROW((void)read_matrix_market_file("/nonexistent/path.mtx"),
               std::invalid_argument);
}

}  // namespace
}  // namespace hetcomm::sparse
