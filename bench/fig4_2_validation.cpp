// Figure 4.2: model validation -- measured SpMV communication time vs model
// prediction for every strategy, on the audikw_1 stand-in, over a GPU-count
// sweep.
//
// Expected shape (paper §4.5): node-aware models are a tight upper bound
// (within ~an order of magnitude, usually much closer); the standard model
// overshoots by roughly an order of magnitude.

#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "core/executor.hpp"
#include "core/models/strategy_models.hpp"
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
  const double scale = opts.quick ? 0.005 : 0.02;
  // Volume-preserving scaling: the stand-in has scale*n rows for
  // tractability; multiplying the per-value payload by 1/scale restores the
  // full-size matrix's per-partition communication volumes (node fan-out is
  // already preserved because the band is a fraction of n).
  const std::int64_t bytes_per_value = std::llround(8.0 / scale);
  const sparse::MatrixProfile& profile = sparse::profile_by_name("audikw_1");
  const sparse::CsrMatrix matrix = sparse::generate_standin(profile, scale, 7);

  std::cout << "audikw_1 stand-in at scale " << scale << ": n=" << matrix.rows()
            << " nnz=" << matrix.nnz() << " (published: n=" << profile.rows
            << " nnz=" << profile.nnz << ")\n";

  MeasureOptions mopts;
  mopts.reps = opts.reps > 0 ? opts.reps : (opts.quick ? 3 : 25);
  mopts.seed = opts.seed;
  mopts.noise_sigma = 0.02;

  const std::vector<int> gpu_counts =
      opts.quick ? std::vector<int>{16, 32} : std::vector<int>{8, 16, 32, 64};
  const std::vector<StrategyConfig> strategies = table5_strategies();

  // Grid: strategy x GPU count.  Cells run across the sweep pool; results
  // land in grid order regardless of completion order.
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

  struct CellResult {
    double measured = 0.0;
    double modeled = 0.0;
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
        r.measured = measure(plan, topo, params, mopts).max_avg;
        r.modeled = models::predict(strategies[cell.si],
                                    compute_stats(pattern, topo), params, topo);
        return r;
      },
      opts.sweep_options());

  for (std::size_t si = 0; si < strategies.size(); ++si) {
    Table table({"GPUs", "measured [s]", "modeled [s]", "model/measured"});
    for (std::size_t gi = 0; gi < gpu_counts.size(); ++gi) {
      const CellResult& r = results[si * gpu_counts.size() + gi];
      table.add_row({std::to_string(gpu_counts[gi]), Table::sci(r.measured),
                     Table::sci(r.modeled),
                     Table::num(r.measured > 0 ? r.modeled / r.measured : 0, 2)});
    }
    opts.emit(table, "Figure 4.2 -- " + strategies[si].name());
  }
  return 0;
}
