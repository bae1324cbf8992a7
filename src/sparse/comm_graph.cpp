#include "sparse/comm_graph.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <stdexcept>
#include <utility>

namespace hetcomm::sparse {

HaloMap halo_map(const CsrMatrix& a, const RowPartition& partition) {
  if (partition.rows() != a.rows()) {
    throw std::invalid_argument("halo_map: partition does not cover matrix");
  }
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("halo_map: matrix must be square (SpMV halo)");
  }
  HaloMap halo;
  halo.needed.resize(static_cast<std::size_t>(partition.parts()));
  const auto& rp = a.row_ptr();
  const auto& ci = a.col_idx();
  // One bit per column.  A part marks its off-part columns, then reads back
  // the words between the first and last it touched, in order, clearing
  // them for the next part.
  std::vector<std::uint64_t> marked(static_cast<std::size_t>(a.cols() + 63) /
                                    64);
  for (int p = 0; p < partition.parts(); ++p) {
    const std::int64_t lo = partition.first_row(p);
    const std::int64_t hi = partition.last_row(p);
    std::size_t first = marked.size();
    std::size_t last = 0;
    for (std::int64_t k = rp[static_cast<std::size_t>(lo)];
         k < rp[static_cast<std::size_t>(hi)]; ++k) {
      const std::int64_t c = ci[static_cast<std::size_t>(k)];
      if (c >= lo && c < hi) continue;
      const auto w = static_cast<std::size_t>(c) / 64;
      marked[w] |= std::uint64_t{1} << (c % 64);
      first = std::min(first, w);
      last = std::max(last, w + 1);
    }
    std::vector<std::int64_t>& need = halo.needed[static_cast<std::size_t>(p)];
    for (std::size_t w = first; w < last; ++w) {
      for (std::uint64_t bits = std::exchange(marked[w], 0); bits != 0;
           bits &= bits - 1) {
        need.push_back(static_cast<std::int64_t>(64 * w) +
                       std::countr_zero(bits));
      }
    }
  }
  return halo;
}

namespace {

/// One message per (owner, needer) pair, sized by the distinct columns the
/// needer takes from the owner.  needed[p] is sorted and parts own
/// contiguous row ranges, so each owner's columns form one run.
core::CommPattern pattern_from_halo(const HaloMap& halo,
                                    const RowPartition& partition,
                                    std::int64_t bytes_per_value) {
  if (bytes_per_value <= 0) {
    throw std::invalid_argument("spmv_comm_pattern: bad bytes_per_value");
  }
  core::CommPattern pattern(partition.parts());
  for (int p = 0; p < partition.parts(); ++p) {
    const std::vector<std::int64_t>& need =
        halo.needed[static_cast<std::size_t>(p)];
    for (std::size_t i = 0; i < need.size();) {
      const int owner = partition.owner_of(need[i]);
      const std::int64_t end = partition.last_row(owner);
      std::size_t j = i;
      while (j < need.size() && need[j] < end) ++j;
      pattern.add(owner, p, static_cast<std::int64_t>(j - i) * bytes_per_value);
      i = j;
    }
  }
  return pattern;
}

}  // namespace

core::CommPattern spmv_comm_pattern(const CsrMatrix& a,
                                    const RowPartition& partition,
                                    std::int64_t bytes_per_value) {
  return pattern_from_halo(halo_map(a, partition), partition,
                           bytes_per_value);
}

core::CommPattern spmv_comm_pattern(const CsrMatrix& a,
                                    const RowPartition& partition,
                                    const hetcomm::Topology& topo,
                                    std::int64_t bytes_per_value) {
  if (topo.num_gpus() != partition.parts()) {
    throw std::invalid_argument(
        "spmv_comm_pattern: one partition part per GPU required");
  }
  const HaloMap halo = halo_map(a, partition);
  core::CommPattern pattern =
      pattern_from_halo(halo, partition, bytes_per_value);

  // Deduplicated volumes: distinct columns of owner q needed by *any* part
  // on destination node l.  seen_by[c] == l marks column c as counted for
  // node l.
  const int parts = partition.parts();
  std::vector<int> seen_by(static_cast<std::size_t>(a.cols()), -1);
  std::vector<std::int64_t> distinct(static_cast<std::size_t>(parts));
  for (int node = 0; node < topo.num_nodes(); ++node) {
    std::fill(distinct.begin(), distinct.end(), 0);
    for (int p = 0; p < parts; ++p) {
      if (topo.gpu_location(p).node != node) continue;
      for (const std::int64_t c : halo.needed[static_cast<std::size_t>(p)]) {
        int& seen = seen_by[static_cast<std::size_t>(c)];
        if (seen == node) continue;
        seen = node;
        const int owner = partition.owner_of(c);
        if (topo.gpu_location(owner).node != node) {
          ++distinct[static_cast<std::size_t>(owner)];
        }
      }
    }
    for (int owner = 0; owner < parts; ++owner) {
      const std::int64_t count = distinct[static_cast<std::size_t>(owner)];
      if (count > 0) {
        pattern.set_node_dedup(owner, node, count * bytes_per_value);
      }
    }
  }
  return pattern;
}

std::vector<double> distributed_spmv(const CsrMatrix& a,
                                     const RowPartition& partition,
                                     const std::vector<double>& x) {
  if (!a.has_values()) {
    throw std::invalid_argument("distributed_spmv: matrix has no values");
  }
  if (static_cast<std::int64_t>(x.size()) != a.cols()) {
    throw std::invalid_argument("distributed_spmv: vector length mismatch");
  }
  const HaloMap halo = halo_map(a, partition);
  std::vector<double> y(static_cast<std::size_t>(a.rows()), 0.0);
  const auto& rp = a.row_ptr();
  const auto& ci = a.col_idx();
  const auto& v = a.values();

  for (int p = 0; p < partition.parts(); ++p) {
    const std::int64_t lo = partition.first_row(p);
    const std::int64_t hi = partition.last_row(p);

    // "Halo exchange": assemble the ghost values this part received.  Each
    // ghost column is looked up only through the halo map, proving the map
    // is sufficient for the computation.
    std::map<std::int64_t, double> ghost;
    for (const std::int64_t c : halo.needed[static_cast<std::size_t>(p)]) {
      ghost[c] = x[static_cast<std::size_t>(c)];
    }

    for (std::int64_t r = lo; r < hi; ++r) {
      double acc = 0.0;
      for (std::int64_t k = rp[static_cast<std::size_t>(r)];
           k < rp[static_cast<std::size_t>(r) + 1]; ++k) {
        const std::int64_t c = ci[static_cast<std::size_t>(k)];
        const double xv = (c >= lo && c < hi)
                              ? x[static_cast<std::size_t>(c)]
                              : ghost.at(c);
        acc += v[static_cast<std::size_t>(k)] * xv;
      }
      y[static_cast<std::size_t>(r)] = acc;
    }
  }
  return y;
}

}  // namespace hetcomm::sparse
