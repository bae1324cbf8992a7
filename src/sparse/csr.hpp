#pragma once
// Compressed sparse row matrices.
//
// Values are optional: communication-pattern work only needs the sparsity
// structure, while the SpMV reference kernels use values.
//
// Every producer builds through one counting assembly, `assemble`.  The
// producer hands it an enumerator: a callable that, given `emit`, calls
// `emit(row, col, value)` once per entry.  The enumerator is called twice
// and must emit the same entries in the same order both times (generators
// re-seed their RNG inside it):
//   1. count pass: each entry is range-checked and counted per row, and the
//      counts are prefix-summed into `row_ptr`;
//   2. fill pass: each entry's column and value go to the next free slot of
//      its row, in emission order.
// Each row is then sorted by column (stably, so duplicates keep emission
// order), duplicates are merged with their values summed in emission order,
// and the result is compacted to exactly `nnz` entries.  No sort ever runs
// over a whole matrix's entries, and no triplet buffer is built.
//
// Column indices are stored as std::int32_t, half the memory of 64-bit ones,
// so a matrix has at most INT32_MAX columns; the constructor every assembly
// goes through rejects more with std::invalid_argument.  No input reaches
// that limit: the Matrix Market reader caps each dimension at 2^26, and a
// stand-in has at most 1.44M rows (Geo_1438 at scale 1).  Row offsets,
// `Triplet` and the `emit(row, col, value)` arguments stay 64-bit: each
// entry is range-checked in 64 bits and narrowed only after the check, and
// readers widen a column to std::int64_t before any arithmetic on it.

#include <cstdint>
#include <vector>

namespace hetcomm::sparse {

struct Triplet {
  std::int64_t row = 0;
  std::int64_t col = 0;
  double value = 1.0;
};

class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Counting assembly (see the file comment).  `enumerate(emit)` is called
  /// exactly twice.  Negative dimensions or more than INT32_MAX columns throw
  /// std::invalid_argument before either call.  An entry outside
  /// [0,rows)x[0,cols) throws std::out_of_range; a second pass that emits
  /// different rows than the first throws std::logic_error.  `with_values`
  /// false discards values (pattern-only matrix).
  template <class Enumerate>
  static CsrMatrix assemble(std::int64_t rows, std::int64_t cols,
                            bool with_values, Enumerate&& enumerate);

  /// Assemble from a triplet list; duplicates are summed in list order.
  static CsrMatrix from_triplets(std::int64_t rows, std::int64_t cols,
                                 const std::vector<Triplet>& triplets,
                                 bool with_values = true);

  [[nodiscard]] std::int64_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::int64_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::int64_t nnz() const noexcept {
    return static_cast<std::int64_t>(col_idx_.size());
  }
  [[nodiscard]] bool has_values() const noexcept { return !values_.empty(); }

  [[nodiscard]] const std::vector<std::int64_t>& row_ptr() const noexcept {
    return row_ptr_;
  }
  [[nodiscard]] const std::vector<std::int32_t>& col_idx() const noexcept {
    return col_idx_;
  }
  [[nodiscard]] const std::vector<double>& values() const noexcept {
    return values_;
  }

  [[nodiscard]] std::int64_t row_nnz(std::int64_t row) const;

  /// Calls f(row, col, value) for every stored entry, row by row; value is
  /// 1.0 in a pattern-only matrix.  Feeds one matrix into another's
  /// assemble() enumerator.
  template <class F>
  void for_each_entry(F&& f) const {
    for (std::int64_t r = 0; r < rows_; ++r) {
      for (std::int64_t k = row_ptr_[static_cast<std::size_t>(r)];
           k < row_ptr_[static_cast<std::size_t>(r) + 1]; ++k) {
        const auto i = static_cast<std::size_t>(k);
        f(r, std::int64_t{col_idx_[i]}, values_.empty() ? 1.0 : values_[i]);
      }
    }
  }

  /// Mean nonzeros per row.
  [[nodiscard]] double mean_degree() const noexcept {
    return rows_ == 0 ? 0.0
                      : static_cast<double>(nnz()) / static_cast<double>(rows_);
  }

  /// Structural bandwidth: max |row - col| over nonzeros.
  [[nodiscard]] std::int64_t bandwidth() const;

  /// True when the *pattern* is structurally symmetric.
  [[nodiscard]] bool pattern_symmetric() const;

  /// Internal consistency check; throws std::logic_error on violation.
  void validate() const;

 private:
  // The steps of assemble(), defined in csr.cpp apart from the two per-entry
  // ones, which run once per emitted entry.
  CsrMatrix(std::int64_t rows, std::int64_t cols);
  void count_entry(std::int64_t row, std::int64_t col) {
    if (row < 0 || row >= rows_ || col < 0 || col >= cols_) {
      throw_out_of_range(row, col);
    }
    ++row_ptr_[static_cast<std::size_t>(row) + 1];
  }
  /// Prefix-sums the counts and sizes the slots; returns each row's cursor.
  std::vector<std::int64_t> begin_fill(bool with_values);
  void fill_entry(std::vector<std::int64_t>& next, std::int64_t row,
                  std::int64_t col, double value) {
    // Checked in every build: a second pass that disagrees with the first
    // must throw, never write outside its row.
    if (row < 0 || row >= rows_ || col < 0 || col >= cols_ ||
        next[static_cast<std::size_t>(row)] ==
            row_ptr_[static_cast<std::size_t>(row) + 1]) {
      throw_pass_mismatch();
    }
    const auto k =
        static_cast<std::size_t>(next[static_cast<std::size_t>(row)]++);
    col_idx_[k] = static_cast<std::int32_t>(col);
    if (!values_.empty()) values_[k] = value;
  }
  /// Checks every row is full, then sorts, merges and compacts each row.
  void finish_assembly(const std::vector<std::int64_t>& next);
  [[noreturn]] static void throw_out_of_range(std::int64_t row,
                                              std::int64_t col);
  [[noreturn]] static void throw_pass_mismatch();

  std::int64_t rows_ = 0;
  std::int64_t cols_ = 0;
  std::vector<std::int64_t> row_ptr_{0};
  std::vector<std::int32_t> col_idx_;
  std::vector<double> values_;
};

template <class Enumerate>
CsrMatrix CsrMatrix::assemble(std::int64_t rows, std::int64_t cols,
                              bool with_values, Enumerate&& enumerate) {
  CsrMatrix m(rows, cols);
  enumerate([&m](std::int64_t r, std::int64_t c, double) {
    m.count_entry(r, c);
  });
  std::vector<std::int64_t> next = m.begin_fill(with_values);
  enumerate([&m, &next](std::int64_t r, std::int64_t c, double v) {
    m.fill_entry(next, r, c, v);
  });
  m.finish_assembly(next);
  return m;
}

/// y = A * x (reference sequential kernel; A must carry values).
std::vector<double> spmv(const CsrMatrix& a, const std::vector<double>& x);

}  // namespace hetcomm::sparse
