// Figure 5.1: measured irregular point-to-point communication time of a
// distributed SpMV for the six SuiteSparse stand-in matrices, every Table 5
// strategy, over each matrix's GPU-count sweep.  Prints per matrix the GPU
// count, the max number of receive nodes of any node (Recv Nodes), the
// standard-communication inter-node message volume, and the minimum
// strategy (the paper's circles).
//
// Expected shape (paper §5.1): staged strategies beat device-aware ones;
// "Split + MD" is typically fastest, except for small GPU counts or low
// inter-node message counts where standard staged wins; "Split + DD" is
// consistently worse than "Split + MD".

#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "core/executor.hpp"
#include "core/strategy.hpp"
#include "runtime/sweep.hpp"
#include "machine/machine.hpp"
#include "sparse/comm_graph.hpp"
#include "sparse/suitesparse_profiles.hpp"

using namespace hetcomm;
using namespace hetcomm::benchutil;
using namespace hetcomm::core;

int main(int argc, char** argv) {
  const BenchOptions opts = BenchOptions::parse(argc, argv);
  const machine::MachineModel mach = machine::lassen_machine();
  const ParamSet& params = mach.params;
  const double scale = opts.quick ? 0.004 : 0.015;
  // Volume-preserving scaling: the stand-in has scale*n rows for
  // tractability; multiplying the per-value payload by 1/scale restores the
  // full-size matrix's per-partition communication volumes (node fan-out is
  // already preserved because the band is a fraction of n).
  const std::int64_t bytes_per_value = std::llround(8.0 / scale);

  MeasureOptions mopts;
  mopts.reps = opts.reps > 0 ? opts.reps : (opts.quick ? 3 : 15);
  mopts.seed = opts.seed;
  mopts.noise_sigma = 0.02;

  const std::vector<StrategyConfig> strategies = table5_strategies();

  int split_md_wins = 0;
  int total_points = 0;

  for (const sparse::MatrixProfile& profile : sparse::figure51_profiles()) {
    const sparse::CsrMatrix matrix =
        sparse::generate_standin(profile, scale, 11);

    std::vector<std::string> headers{"strategy"};
    std::vector<int> gpu_counts = profile.gpu_counts;
    if (opts.quick && gpu_counts.size() > 2) {
      gpu_counts = {gpu_counts.front(), gpu_counts.back()};
    }
    for (const int g : gpu_counts) {
      headers.push_back(std::to_string(g) + " GPUs [s]");
    }
    Table table(std::move(headers));

    // Grid: strategy x GPU count, fanned across the sweep pool.  The first
    // strategy's cells additionally collect the pattern statistics footer.
    struct Cell {
      std::size_t si = 0;
      std::size_t gi = 0;
    };
    std::vector<Cell> grid;
    for (std::size_t si = 0; si < strategies.size(); ++si) {
      for (std::size_t gi = 0; gi < gpu_counts.size(); ++gi) {
        grid.push_back({si, gi});
      }
    }

    std::vector<std::string> footer(gpu_counts.size());
    struct CellResult {
      double seconds = 0.0;
    };
    const std::vector<CellResult> results = runtime::sweep(
        grid,
        [&](const Cell& cell) {
          const int g = gpu_counts[cell.gi];
          const Topology topo = mach.topology(mach.nodes_for_gpus(g));
          const sparse::RowPartition part =
              sparse::RowPartition::contiguous(matrix.rows(), g);
          const CommPattern pattern =
              sparse::spmv_comm_pattern(matrix, part, topo, bytes_per_value);
          const CommPlan plan =
              build_plan(pattern, topo, params, strategies[cell.si]);
          CellResult r;
          r.seconds = measure(plan, topo, params, mopts).max_avg;
          if (cell.si == 0) {  // pattern statistics, once per GPU count
            const PatternStats st = compute_stats(pattern, topo);
            footer[cell.gi] =
                std::to_string(g) + " GPUs: Recv Nodes=" +
                std::to_string(st.num_internode_nodes) + ", volume=" +
                Table::bytes(st.total_internode_bytes) + ", msgs=" +
                std::to_string(st.total_internode_messages);
          }
          return r;
        },
        opts.sweep_options());

    std::vector<double> best(gpu_counts.size(), 1e99);
    std::vector<std::string> best_name(gpu_counts.size());
    for (std::size_t si = 0; si < strategies.size(); ++si) {
      std::vector<std::string> row{strategies[si].name()};
      for (std::size_t gi = 0; gi < gpu_counts.size(); ++gi) {
        const double t = results[si * gpu_counts.size() + gi].seconds;
        row.push_back(Table::sci(t));
        if (t < best[gi]) {
          best[gi] = t;
          best_name[gi] = strategies[si].name();
        }
      }
      table.add_row(std::move(row));
    }

    opts.emit(table, "Figure 5.1 -- " + profile.name + " (stand-in, scale " +
                         Table::num(scale, 3) + ")");
    for (const std::string& f : footer) std::cout << "  " << f << "\n";
    std::cout << "  minimum: ";
    for (std::size_t gi = 0; gi < gpu_counts.size(); ++gi) {
      std::cout << gpu_counts[gi] << " GPUs -> " << best_name[gi] << "   ";
      ++total_points;
      if (best_name[gi] == "split+MD") ++split_md_wins;
    }
    std::cout << "\n";
  }

  std::cout << "\nSplit+MD is the fastest strategy at " << split_md_wins
            << "/" << total_points
            << " sweep points (the paper: 'typically the fastest').\n";
  return 0;
}
