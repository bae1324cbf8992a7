// Extension: weak-scaling study.
//
// Fixed per-GPU subdomain (rows per GPU constant), node count scaling
// 2 -> 32: how does each strategy's communication time grow, and when does
// the ranking flip?  The classic way an application team would read the
// paper's results.

#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "core/executor.hpp"
#include "core/strategy.hpp"
#include "machine/machine.hpp"
#include "runtime/sweep.hpp"
#include "sparse/comm_graph.hpp"
#include "sparse/generators.hpp"

using namespace hetcomm;
using namespace hetcomm::benchutil;
using namespace hetcomm::core;

int main(int argc, char** argv) {
  const BenchOptions opts = BenchOptions::parse(argc, argv);
  const machine::MachineModel mach = machine::lassen_machine();
  const ParamSet& params = mach.params;

  const std::int64_t rows_per_gpu = opts.quick ? 400 : 800;
  MeasureOptions mopts;
  mopts.reps = opts.reps > 0 ? opts.reps : (opts.quick ? 3 : 10);
  mopts.seed = opts.seed;
  mopts.noise_sigma = 0.02;

  const std::vector<int> node_counts =
      opts.quick ? std::vector<int>{2, 8, 32} : std::vector<int>{2, 4, 8, 16, 32};
  const std::vector<StrategyKind> kinds = {
      StrategyKind::Standard, StrategyKind::ThreeStep, StrategyKind::TwoStep,
      StrategyKind::SplitMD};

  // One sweep cell per node count: matrix generation, pattern extraction
  // and all four strategy measurements for that machine size.
  struct RowResult {
    int gpus = 0;
    std::int64_t inter_msgs = 0;
    std::vector<double> times;
  };
  const std::vector<RowResult> rows = runtime::sweep(
      node_counts,
      [&](const int nodes) {
        const Topology topo = mach.topology(nodes);
        const int gpus = topo.num_gpus();
        const std::int64_t n = rows_per_gpu * gpus;
        // Fixed-width band (constant per-GPU halo) plus an arrow head whose
        // couplings span the whole matrix: the head's fan-out grows with the
        // machine, like the boundary/interface rows of real FEM systems.
        const sparse::CsrMatrix band =
            sparse::banded_fem(n, rows_per_gpu * 3, 10, 71, /*with_values=*/false);
        const sparse::CsrMatrix m =
            sparse::with_arrow(band, /*head=*/rows_per_gpu / 2,
                               /*arrow_degree=*/24, 72);
        const sparse::RowPartition part =
            sparse::RowPartition::contiguous(n, gpus);
        const CommPattern pattern = sparse::spmv_comm_pattern(m, part, topo, 800);
        RowResult r;
        r.gpus = gpus;
        r.inter_msgs = compute_stats(pattern, topo).total_internode_messages;
        for (const StrategyKind kind : kinds) {
          const CommPlan plan =
              build_plan(pattern, topo, params, {kind, MemSpace::Host});
          r.times.push_back(measure(plan, topo, params, mopts).max_avg);
        }
        return r;
      },
      opts.sweep_options());

  Table table({"nodes", "GPUs", "inter msgs", "standard [s]",
               "3-step [s]", "2-step [s]", "split+MD [s]", "min"});
  for (std::size_t i = 0; i < node_counts.size(); ++i) {
    const RowResult& r = rows[i];
    std::vector<std::string> row{std::to_string(node_counts[i]),
                                 std::to_string(r.gpus),
                                 std::to_string(r.inter_msgs)};
    double best = 1e99;
    std::string best_name;
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      row.push_back(Table::sci(r.times[k]));
      if (r.times[k] < best) {
        best = r.times[k];
        best_name = to_string(kinds[k]);
      }
    }
    row.push_back(best_name);
    table.add_row(std::move(row));
  }
  opts.emit(table, "Weak scaling -- fixed " + std::to_string(rows_per_gpu) +
                       " rows/GPU, staged strategies");
  std::cout << "\nReading: per-GPU work is constant, but the communication\n"
               "term grows with machine size; flat(ter) curves scale better.\n";
  return 0;
}
