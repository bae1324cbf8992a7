// Distributed BFS frontier exchange (the intro's second motivating domain:
// graph algorithms).
//
//   $ ./bfs_frontier [n_vertices] [num_gpus]
//
// Runs a level-synchronous BFS on a random-geometric-like graph partitioned
// across GPUs.  Each level's frontier induces a *different* irregular
// communication pattern (remote neighbors of the current frontier); the
// example extracts that per-level pattern, simulates every strategy on it,
// and reports how the best strategy changes as the frontier sweeps through
// the graph -- small fringe levels favor latency-lean strategies, the bulge
// favors volume-efficient ones.  A bad argument prints
// `bfs_frontier: <error>` and exits 2.

#include <exception>
#include <iostream>
#include <queue>
#include <stdexcept>
#include <vector>

#include "benchutil/bench_options.hpp"
#include "benchutil/table.hpp"
#include "core/executor.hpp"
#include "core/strategy.hpp"
#include "sparse/generators.hpp"
#include "sparse/partition.hpp"

using namespace hetcomm;

namespace {

int run(int argc, char** argv) {
  const std::int64_t n =
      argc > 1 ? benchutil::parse_number<std::int64_t>(argv[1], "n_vertices")
               : 20000;
  const int num_gpus =
      argc > 2 ? benchutil::parse_number<int>(argv[2], "num_gpus") : 32;
  if (num_gpus < 4 || num_gpus % 4 != 0) {
    throw std::invalid_argument("num_gpus must be a positive multiple of 4");
  }

  // Graph: banded structure (geometric locality) plus long-range edges
  // (shortcuts), adjacency as a pattern-only CSR.
  const sparse::CsrMatrix band =
      sparse::banded_fem(n, n / 200, 8, 77, /*with_values=*/false);
  const sparse::CsrMatrix graph = sparse::with_long_range(band, 2, 0.05, 78);
  const sparse::RowPartition part = sparse::RowPartition::contiguous(n, num_gpus);
  const Topology topo(presets::lassen(num_gpus / 4));
  const ParamSet params = lassen_params();

  std::cout << "BFS on " << n << " vertices, " << graph.nnz() << " edges, "
            << num_gpus << " GPUs.\n\n";

  // Level-synchronous BFS from vertex 0 (sequential reference traversal;
  // the communication of the distributed version is what we simulate).
  std::vector<std::int64_t> level(static_cast<std::size_t>(n), -1);
  std::vector<std::int64_t> frontier{0};
  level[0] = 0;
  const auto& rp = graph.row_ptr();
  const auto& ci = graph.col_idx();

  benchutil::Table table({"level", "frontier", "inter msgs", "volume [B]",
                          "best strategy", "best [s]", "standard [s]"});
  core::MeasureOptions mopts;
  mopts.reps = 5;
  mopts.noise_sigma = 0.02;

  double total_best = 0.0, total_standard = 0.0;
  for (std::int64_t depth = 0; !frontier.empty() && depth < 40; ++depth) {
    // The level's communication: every frontier vertex pushes its state to
    // the owners of its remote neighbors (8 B per crossing edge, the
    // "visited" updates of a push-style BFS).
    core::CommPattern pattern(num_gpus);
    std::vector<std::int64_t> next;
    for (const std::int64_t v : frontier) {
      const int owner_v = part.owner_of(v);
      for (std::int64_t k = rp[static_cast<std::size_t>(v)];
           k < rp[static_cast<std::size_t>(v) + 1]; ++k) {
        const std::int64_t w = ci[static_cast<std::size_t>(k)];
        const int owner_w = part.owner_of(w);
        if (owner_w != owner_v) pattern.add(owner_v, owner_w, 8);
        if (level[static_cast<std::size_t>(w)] == -1) {
          level[static_cast<std::size_t>(w)] = depth + 1;
          next.push_back(w);
        }
      }
    }
    if (pattern.total_messages() > 0) {
      double best = 1e99, standard = 0.0;
      std::string best_name;
      for (const core::StrategyConfig& cfg : core::table5_strategies()) {
        if (cfg.transport == MemSpace::Device) continue;
        const core::CommPlan plan =
            core::build_plan(pattern, topo, params, cfg);
        const double t = core::measure(plan, topo, params, mopts).max_avg;
        if (cfg.kind == core::StrategyKind::Standard) standard = t;
        if (t < best) {
          best = t;
          best_name = cfg.name();
        }
      }
      total_best += best;
      total_standard += standard;
      table.add_row({std::to_string(depth), std::to_string(frontier.size()),
                     std::to_string(pattern.total_messages()),
                     std::to_string(pattern.total_bytes()), best_name,
                     benchutil::Table::sci(best),
                     benchutil::Table::sci(standard)});
    }
    frontier = std::move(next);
  }
  table.print(std::cout);
  std::cout << "\nWhole traversal: per-level best strategies sum to "
            << benchutil::Table::sci(total_best) << " s vs "
            << benchutil::Table::sci(total_standard)
            << " s all-standard ("
            << benchutil::Table::num(total_standard / total_best, 2)
            << "x) -- adapting the strategy per level pays off when the\n"
               "frontier shape changes this much.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "bfs_frontier: " << e.what() << "\n";
    return 2;
  }
}
