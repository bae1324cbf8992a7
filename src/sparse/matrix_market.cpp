#include "sparse/matrix_market.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace hetcomm::sparse {

namespace {

/// Largest row or column count a file may declare: 2^26, about 47x the
/// largest Figure 5.1 matrix (Geo_1438, 1.44M rows).  Capping both keeps
/// rows * cols far from int64 overflow.
constexpr std::int64_t kMaxDimension = std::int64_t{1} << 26;

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

[[noreturn]] void fail(std::int64_t line_no, const std::string& what) {
  throw std::invalid_argument("matrix market: line " +
                              std::to_string(line_no) + ": " + what);
}

}  // namespace

CsrMatrix read_matrix_market(std::istream& in) {
  std::string line;
  std::int64_t line_no = 0;
  const auto next_line = [&] {
    ++line_no;
    return static_cast<bool>(std::getline(in, line));
  };
  if (!next_line()) {
    throw std::invalid_argument("matrix market: empty stream");
  }
  std::istringstream header(line);
  std::string tag, object, format, field, symmetry;
  header >> tag >> object >> format >> field >> symmetry;
  if (tag != "%%MatrixMarket" || lower(object) != "matrix" ||
      lower(format) != "coordinate") {
    fail(line_no, "unsupported header: " + line);
  }
  field = lower(field);
  symmetry = lower(symmetry);
  const bool has_values = field == "real" || field == "integer";
  if (!has_values && field != "pattern") {
    fail(line_no, "unsupported field: " + field);
  }
  const bool symmetric = symmetry == "symmetric";
  if (!symmetric && symmetry != "general") {
    fail(line_no, "unsupported symmetry: " + symmetry);
  }

  // Skip comments, read the size line, and check it before allocating.
  bool have_sizes = false;
  while (next_line()) {
    if (!line.empty() && line[0] != '%') {
      have_sizes = true;
      break;
    }
  }
  if (!have_sizes) {
    throw std::invalid_argument("matrix market: missing size line");
  }
  std::int64_t rows = 0, cols = 0, entries = 0;
  std::istringstream sizes(line);
  if (!(sizes >> rows >> cols >> entries)) {
    fail(line_no, "bad size line: " + line);
  }
  if (rows < 1 || cols < 1 || rows > kMaxDimension || cols > kMaxDimension) {
    fail(line_no, "dimensions " + std::to_string(rows) + " x " +
                      std::to_string(cols) + " outside [1, " +
                      std::to_string(kMaxDimension) + "]");
  }
  if (symmetric && rows != cols) {
    fail(line_no, "a symmetric matrix must be square");
  }
  if (entries < 0 || entries > rows * cols) {
    fail(line_no, "entry count " + std::to_string(entries) + " outside [0, " +
                      std::to_string(rows * cols) + "]");
  }

  // No reserve from the declared count: the list grows only with the lines
  // the file actually holds.
  std::vector<Triplet> triplets;
  std::int64_t seen = 0;
  while (seen < entries && next_line()) {
    if (line.empty() || line[0] == '%') continue;
    std::istringstream entry(line);
    std::int64_t r = 0, c = 0;
    double v = 1.0;
    if (!(entry >> r >> c)) fail(line_no, "bad entry line: " + line);
    if (has_values && !(entry >> v)) fail(line_no, "missing value: " + line);
    if (r < 1 || r > rows || c < 1 || c > cols) {
      fail(line_no, "entry (" + std::to_string(r) + "," + std::to_string(c) +
                        ") outside the " + std::to_string(rows) + " x " +
                        std::to_string(cols) + " matrix");
    }
    --r;  // 1-based to 0-based
    --c;
    triplets.push_back({r, c, v});
    if (symmetric && r != c) triplets.push_back({c, r, v});
    ++seen;
  }
  if (seen != entries) {
    throw std::invalid_argument("matrix market: truncated entry list: " +
                                std::to_string(seen) + " of " +
                                std::to_string(entries) + " entries");
  }
  return CsrMatrix::from_triplets(rows, cols, triplets, has_values);
}

CsrMatrix read_matrix_market_file(const std::string& path) {
  std::ifstream in(path);
  // invalid_argument, as for machine and fault files: an unreadable or
  // malformed matrix is an input error (CLI exit code 2).
  if (!in) {
    throw std::invalid_argument("cannot open matrix market file " + path);
  }
  try {
    return read_matrix_market(in);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(path + ": " + e.what());
  }
}

void write_matrix_market(std::ostream& out, const CsrMatrix& m) {
  const bool hv = m.has_values();
  out << "%%MatrixMarket matrix coordinate " << (hv ? "real" : "pattern")
      << " general\n";
  out << m.rows() << " " << m.cols() << " " << m.nnz() << "\n";
  const auto& rp = m.row_ptr();
  const auto& ci = m.col_idx();
  for (std::int64_t r = 0; r < m.rows(); ++r) {
    for (std::int64_t k = rp[static_cast<std::size_t>(r)];
         k < rp[static_cast<std::size_t>(r) + 1]; ++k) {
      out << (r + 1) << " "
          << (std::int64_t{ci[static_cast<std::size_t>(k)]} + 1);
      if (hv) out << " " << m.values()[static_cast<std::size_t>(k)];
      out << "\n";
    }
  }
}

void write_matrix_market_file(const std::string& path, const CsrMatrix& m) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("matrix market: cannot open " + path);
  write_matrix_market(out, m);
}

}  // namespace hetcomm::sparse
