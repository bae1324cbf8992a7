#include "sparse/csr.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

namespace hetcomm::sparse {

namespace {

/// A pattern row of more entries than this whose columns span at most
/// kBitmapColumnsPerEntry per entry (four bitmap words) is finished through
/// a column bitmap; any other pattern row is sorted.  Reading a bitmap word
/// back costs far less than the comparisons a sort spends per entry, and
/// the bitmap never outgrows eight times the row's own columns.
constexpr std::int64_t kBitmapMinEntries = 16;
constexpr std::int64_t kBitmapColumnsPerEntry = 256;

/// Writes the distinct columns of the pattern row cols[begin, end), in
/// order, from cols[out] (out <= begin); returns the new end of the output.
/// `marked` is all zero on entry and on return.
std::int64_t finish_pattern_row(std::int32_t* cols, std::int64_t begin,
                                std::int64_t end, std::int64_t out,
                                std::vector<std::uint64_t>& marked) {
  const std::int64_t count = end - begin;
  if (count > kBitmapMinEntries) {
    const auto [lo_it, hi_it] = std::minmax_element(cols + begin, cols + end);
    const std::int32_t lo = *lo_it;
    const std::int64_t span = std::int64_t{*hi_it} - lo + 1;
    if (span <= kBitmapColumnsPerEntry * count) {
      // Mark each column's bit, then read the words back in order: sorted
      // and distinct, with every word cleared for the next row.
      const auto words = static_cast<std::size_t>((span + 63) / 64);
      if (marked.size() < words) marked.resize(words);
      for (std::int64_t k = begin; k < end; ++k) {
        const auto bit = static_cast<std::uint32_t>(cols[k] - lo);
        marked[bit / 64] |= std::uint64_t{1} << (bit % 64);
      }
      for (std::size_t w = 0; w < words; ++w) {
        for (std::uint64_t bits = std::exchange(marked[w], 0); bits != 0;
             bits &= bits - 1) {
          cols[out++] =
              lo + static_cast<std::int32_t>(64 * w) + std::countr_zero(bits);
        }
      }
      return out;
    }
  }
  std::sort(cols + begin, cols + end);
  for (std::int64_t k = begin; k < end; ++k) {
    if (k == begin || cols[k] != cols[k - 1]) cols[out++] = cols[k];
  }
  return out;
}

}  // namespace

CsrMatrix::CsrMatrix(std::int64_t rows, std::int64_t cols)
    : rows_(rows), cols_(cols) {
  if (rows < 0 || cols < 0) {
    throw std::invalid_argument("CsrMatrix: negative dimensions");
  }
  if (cols > std::numeric_limits<std::int32_t>::max()) {
    throw std::invalid_argument("CsrMatrix: " + std::to_string(cols) +
                                " columns exceed the 32-bit column index");
  }
  row_ptr_.assign(static_cast<std::size_t>(rows) + 1, 0);
}

void CsrMatrix::throw_out_of_range(std::int64_t row, std::int64_t col) {
  throw std::out_of_range("CsrMatrix: triplet (" + std::to_string(row) + "," +
                          std::to_string(col) + ") out of range");
}

void CsrMatrix::throw_pass_mismatch() {
  throw std::logic_error(
      "CsrMatrix::assemble: the fill pass emitted different rows than the "
      "count pass");
}

std::vector<std::int64_t> CsrMatrix::begin_fill(bool with_values) {
  for (std::size_t r = 0; r < static_cast<std::size_t>(rows_); ++r) {
    row_ptr_[r + 1] += row_ptr_[r];
  }
  const auto total = static_cast<std::size_t>(row_ptr_.back());
  col_idx_.resize(total);
  if (with_values) values_.resize(total);
  return {row_ptr_.begin(), row_ptr_.end() - 1};
}

void CsrMatrix::finish_assembly(const std::vector<std::int64_t>& next) {
  const auto rows = static_cast<std::size_t>(rows_);
  for (std::size_t r = 0; r < rows; ++r) {
    if (next[r] != row_ptr_[r + 1]) throw_pass_mismatch();
  }
  // Rows shrink as they merge, so each row's output starts at or before its
  // input and a forward copy never overwrites an unread entry.
  std::int32_t* const cols = col_idx_.data();
  std::vector<std::pair<std::int32_t, double>> row;  // valued rows only
  std::vector<std::uint64_t> marked;  // narrow pattern rows; zero between rows
  std::int64_t out = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    const std::int64_t begin = row_ptr_[r];
    const std::int64_t end = row_ptr_[r + 1];
    row_ptr_[r] = out;
    if (values_.empty()) {
      out = finish_pattern_row(cols, begin, end, out, marked);
      continue;
    }
    row.clear();
    for (std::int64_t k = begin; k < end; ++k) {
      row.emplace_back(cols[k], values_[static_cast<std::size_t>(k)]);
    }
    std::stable_sort(row.begin(), row.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i > 0 && row[i].first == row[i - 1].first) {
        values_[static_cast<std::size_t>(out) - 1] += row[i].second;
        continue;
      }
      cols[out] = row[i].first;
      values_[static_cast<std::size_t>(out++)] = row[i].second;
    }
  }
  row_ptr_[rows] = out;
  // Release the duplicates' slack: the matrix keeps exactly nnz entries.
  col_idx_.resize(static_cast<std::size_t>(out));
  col_idx_.shrink_to_fit();
  if (!values_.empty()) {
    values_.resize(static_cast<std::size_t>(out));
    values_.shrink_to_fit();
  }
}

CsrMatrix CsrMatrix::from_triplets(std::int64_t rows, std::int64_t cols,
                                   const std::vector<Triplet>& triplets,
                                   bool with_values) {
  return assemble(rows, cols, with_values, [&triplets](auto&& emit) {
    for (const Triplet& t : triplets) emit(t.row, t.col, t.value);
  });
}

std::int64_t CsrMatrix::row_nnz(std::int64_t row) const {
  if (row < 0 || row >= rows_) {
    throw std::out_of_range("CsrMatrix::row_nnz: row out of range");
  }
  return row_ptr_[static_cast<std::size_t>(row) + 1] -
         row_ptr_[static_cast<std::size_t>(row)];
}

std::int64_t CsrMatrix::bandwidth() const {
  std::int64_t band = 0;
  for (std::int64_t r = 0; r < rows_; ++r) {
    for (std::int64_t k = row_ptr_[static_cast<std::size_t>(r)];
         k < row_ptr_[static_cast<std::size_t>(r) + 1]; ++k) {
      const std::int64_t d = col_idx_[static_cast<std::size_t>(k)] - r;
      band = std::max(band, d < 0 ? -d : d);
    }
  }
  return band;
}

bool CsrMatrix::pattern_symmetric() const {
  if (rows_ != cols_) return false;
  // Columns are strictly increasing within a row, so (c, r) is a binary
  // search in row c.
  const auto row_begin = [this](std::int64_t r) {
    return col_idx_.begin() + row_ptr_[static_cast<std::size_t>(r)];
  };
  for (std::int64_t r = 0; r < rows_; ++r) {
    for (auto it = row_begin(r); it != row_begin(r + 1); ++it) {
      const std::int64_t c = *it;
      if (c != r && !std::binary_search(row_begin(c), row_begin(c + 1), r)) {
        return false;
      }
    }
  }
  return true;
}

void CsrMatrix::validate() const {
  if (static_cast<std::int64_t>(row_ptr_.size()) != rows_ + 1) {
    throw std::logic_error("CsrMatrix: row_ptr size mismatch");
  }
  if (row_ptr_.front() != 0 ||
      row_ptr_.back() != static_cast<std::int64_t>(col_idx_.size())) {
    throw std::logic_error("CsrMatrix: row_ptr endpoints invalid");
  }
  for (std::size_t r = 0; r + 1 < row_ptr_.size(); ++r) {
    if (row_ptr_[r] > row_ptr_[r + 1]) {
      throw std::logic_error("CsrMatrix: row_ptr not monotone");
    }
    for (std::int64_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      const std::int64_t c = col_idx_[static_cast<std::size_t>(k)];
      if (c < 0 || c >= cols_) {
        throw std::logic_error("CsrMatrix: column index out of range");
      }
      if (k > row_ptr_[r] && col_idx_[static_cast<std::size_t>(k - 1)] >= c) {
        throw std::logic_error("CsrMatrix: columns not strictly increasing");
      }
    }
  }
  if (!values_.empty() && values_.size() != col_idx_.size()) {
    throw std::logic_error("CsrMatrix: values size mismatch");
  }
}

std::vector<double> spmv(const CsrMatrix& a, const std::vector<double>& x) {
  if (!a.has_values()) {
    throw std::invalid_argument("spmv: matrix has no values");
  }
  if (static_cast<std::int64_t>(x.size()) != a.cols()) {
    throw std::invalid_argument("spmv: vector length mismatch");
  }
  std::vector<double> y(static_cast<std::size_t>(a.rows()), 0.0);
  const auto& rp = a.row_ptr();
  const auto& ci = a.col_idx();
  const auto& v = a.values();
  for (std::int64_t r = 0; r < a.rows(); ++r) {
    double acc = 0.0;
    for (std::int64_t k = rp[static_cast<std::size_t>(r)];
         k < rp[static_cast<std::size_t>(r) + 1]; ++k) {
      acc += v[static_cast<std::size_t>(k)] *
             x[static_cast<std::size_t>(ci[static_cast<std::size_t>(k)])];
    }
    y[static_cast<std::size_t>(r)] = acc;
  }
  return y;
}

}  // namespace hetcomm::sparse
