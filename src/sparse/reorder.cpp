#include "sparse/reorder.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>
#include <string>

namespace hetcomm::sparse {

Permutation::Permutation(std::vector<std::int64_t> new_to_old)
    : new_to_old_(std::move(new_to_old)) {
  const auto n = static_cast<std::int64_t>(new_to_old_.size());
  old_to_new_.assign(static_cast<std::size_t>(n), -1);
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t old = new_to_old_[static_cast<std::size_t>(i)];
    if (old < 0 || old >= n) {
      throw std::invalid_argument("Permutation: index out of range");
    }
    if (old_to_new_[static_cast<std::size_t>(old)] != -1) {
      throw std::invalid_argument("Permutation: duplicate index " +
                                  std::to_string(old));
    }
    old_to_new_[static_cast<std::size_t>(old)] = i;
  }
}

Permutation Permutation::identity(std::int64_t n) {
  if (n < 0) throw std::invalid_argument("Permutation::identity: negative n");
  std::vector<std::int64_t> v(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) v[static_cast<std::size_t>(i)] = i;
  return Permutation(std::move(v));
}

std::int64_t Permutation::old_of(std::int64_t new_index) const {
  if (new_index < 0 || new_index >= size()) {
    throw std::out_of_range("Permutation::old_of: out of range");
  }
  return new_to_old_[static_cast<std::size_t>(new_index)];
}

std::int64_t Permutation::new_of(std::int64_t old_index) const {
  if (old_index < 0 || old_index >= size()) {
    throw std::out_of_range("Permutation::new_of: out of range");
  }
  return old_to_new_[static_cast<std::size_t>(old_index)];
}

Permutation Permutation::inverse() const {
  return Permutation(old_to_new_);
}

std::vector<double> Permutation::apply(const std::vector<double>& in) const {
  if (static_cast<std::int64_t>(in.size()) != size()) {
    throw std::invalid_argument("Permutation::apply: size mismatch");
  }
  std::vector<double> out(in.size());
  for (std::int64_t i = 0; i < size(); ++i) {
    out[static_cast<std::size_t>(i)] =
        in[static_cast<std::size_t>(new_to_old_[static_cast<std::size_t>(i)])];
  }
  return out;
}

CsrMatrix permute_symmetric(const CsrMatrix& a, const Permutation& perm) {
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("permute_symmetric: matrix must be square");
  }
  if (perm.size() != a.rows()) {
    throw std::invalid_argument("permute_symmetric: permutation size mismatch");
  }
  return CsrMatrix::assemble(
      a.rows(), a.cols(), a.has_values(), [&](auto&& emit) {
        a.for_each_entry([&](std::int64_t r, std::int64_t c, double v) {
          emit(perm.new_of(r), perm.new_of(c), v);
        });
      });
}

Permutation reverse_cuthill_mckee(const CsrMatrix& a) {
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("reverse_cuthill_mckee: matrix must be square");
  }
  const std::int64_t n = a.rows();
  const auto& rp = a.row_ptr();
  const auto& ci = a.col_idx();

  auto degree = [&](std::int64_t v) {
    return rp[static_cast<std::size_t>(v) + 1] - rp[static_cast<std::size_t>(v)];
  };

  std::vector<bool> visited(static_cast<std::size_t>(n), false);
  std::vector<std::int64_t> order;
  order.reserve(static_cast<std::size_t>(n));

  // Vertices sorted by degree: cheap pseudo-peripheral start per component.
  std::vector<std::int64_t> by_degree(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) by_degree[static_cast<std::size_t>(i)] = i;
  std::stable_sort(by_degree.begin(), by_degree.end(),
                   [&](std::int64_t x, std::int64_t y) {
                     return degree(x) < degree(y);
                   });

  std::vector<std::int64_t> neighbors;
  for (const std::int64_t start : by_degree) {
    if (visited[static_cast<std::size_t>(start)]) continue;
    std::queue<std::int64_t> frontier;
    frontier.push(start);
    visited[static_cast<std::size_t>(start)] = true;
    while (!frontier.empty()) {
      const std::int64_t v = frontier.front();
      frontier.pop();
      order.push_back(v);
      neighbors.clear();
      for (std::int64_t k = rp[static_cast<std::size_t>(v)];
           k < rp[static_cast<std::size_t>(v) + 1]; ++k) {
        const std::int64_t w = ci[static_cast<std::size_t>(k)];
        if (w == v || visited[static_cast<std::size_t>(w)]) continue;
        visited[static_cast<std::size_t>(w)] = true;
        neighbors.push_back(w);
      }
      std::stable_sort(neighbors.begin(), neighbors.end(),
                       [&](std::int64_t x, std::int64_t y) {
                         return degree(x) < degree(y);
                       });
      for (const std::int64_t w : neighbors) frontier.push(w);
    }
  }

  std::reverse(order.begin(), order.end());
  return Permutation(std::move(order));
}

}  // namespace hetcomm::sparse
