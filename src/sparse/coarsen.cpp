#include "sparse/coarsen.hpp"

#include <stdexcept>

namespace hetcomm::sparse {

Aggregation aggregate_greedy(const CsrMatrix& a) {
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("aggregate_greedy: matrix must be square");
  }
  const std::int64_t n = a.rows();
  Aggregation agg;
  agg.aggregate_of.assign(static_cast<std::size_t>(n), -1);
  const auto& rp = a.row_ptr();
  const auto& ci = a.col_idx();

  for (std::int64_t r = 0; r < n; ++r) {
    if (agg.aggregate_of[static_cast<std::size_t>(r)] != -1) continue;
    const std::int64_t id = agg.num_aggregates++;
    agg.aggregate_of[static_cast<std::size_t>(r)] = id;
    for (std::int64_t k = rp[static_cast<std::size_t>(r)];
         k < rp[static_cast<std::size_t>(r) + 1]; ++k) {
      const std::int64_t c = ci[static_cast<std::size_t>(k)];
      if (agg.aggregate_of[static_cast<std::size_t>(c)] == -1) {
        agg.aggregate_of[static_cast<std::size_t>(c)] = id;
      }
    }
  }
  return agg;
}

CsrMatrix coarsen(const CsrMatrix& a, const Aggregation& agg) {
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("coarsen: matrix must be square");
  }
  if (static_cast<std::int64_t>(agg.aggregate_of.size()) != a.rows()) {
    throw std::invalid_argument("coarsen: aggregation size mismatch");
  }
  const auto& agg_of = agg.aggregate_of;
  return CsrMatrix::assemble(
      agg.num_aggregates, agg.num_aggregates, a.has_values(),
      [&](auto&& emit) {
        a.for_each_entry([&](std::int64_t r, std::int64_t c, double v) {
          emit(agg_of[static_cast<std::size_t>(r)],
               agg_of[static_cast<std::size_t>(c)], v);
        });
      });
}

Hierarchy build_hierarchy(const CsrMatrix& fine, std::int64_t min_rows,
                          int max_levels) {
  if (min_rows < 1 || max_levels < 1) {
    throw std::invalid_argument("build_hierarchy: bad limits");
  }
  Hierarchy h;
  h.levels.push_back(fine);
  while (static_cast<int>(h.levels.size()) < max_levels &&
         h.levels.back().rows() > min_rows) {
    const Aggregation agg = aggregate_greedy(h.levels.back());
    if (agg.num_aggregates >= h.levels.back().rows()) break;  // stalled
    h.levels.push_back(coarsen(h.levels.back(), agg));
  }
  return h;
}

}  // namespace hetcomm::sparse
