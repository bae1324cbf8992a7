// Extension: strategy choice across an AMG hierarchy (paper ref [15]'s
// setting).  Coarse multigrid levels have fewer rows but relatively denser
// stencils and wider partition fan-out; communication dominates there, and
// the best strategy shifts level by level.  For every level of an
// aggregation hierarchy this bench reports the pattern statistics, each
// strategy's time, the winner, and the advisor's pick.

#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "core/advisor.hpp"
#include "core/executor.hpp"
#include "core/strategy.hpp"
#include "machine/machine.hpp"
#include "sparse/coarsen.hpp"
#include "sparse/comm_graph.hpp"
#include "sparse/generators.hpp"

using namespace hetcomm;
using namespace hetcomm::benchutil;
using namespace hetcomm::core;

int main(int argc, char** argv) {
  const BenchOptions opts = BenchOptions::parse(argc, argv);
  const machine::MachineModel mach = machine::lassen_machine();
  const ParamSet& params = mach.params;
  const int gpus = opts.quick ? 32 : 64;
  const Topology topo = mach.topology(mach.nodes_for_gpus(gpus));

  const std::int64_t n = opts.quick ? 20000 : 60000;
  const sparse::CsrMatrix fine =
      sparse::banded_fem(n, n / 100, 10, 61, /*with_values=*/false);
  const sparse::Hierarchy hierarchy =
      sparse::build_hierarchy(fine, /*min_rows=*/gpus * 8, /*max_levels=*/6);

  MeasureOptions mopts;
  mopts.reps = opts.reps > 0 ? opts.reps : (opts.quick ? 3 : 10);
  mopts.noise_sigma = 0.02;

  const Advisor advisor(topo, params);
  Table table({"level", "rows", "nnz/row", "inter msgs", "best (measured)",
               "advisor pick", "standard/best"});

  for (std::size_t l = 0; l < hierarchy.levels.size(); ++l) {
    const sparse::CsrMatrix& m = hierarchy.levels[l];
    const sparse::RowPartition part =
        sparse::RowPartition::contiguous(m.rows(), gpus);
    // Level-independent payload: coarse vector entries carry the same 8 B,
    // scaled x100 to keep volumes in the interesting regime.
    const CommPattern pattern = sparse::spmv_comm_pattern(m, part, topo, 800);
    const PatternStats stats = compute_stats(pattern, topo);

    double best = 1e99, standard = 0.0;
    std::string best_name;
    for (const StrategyConfig& cfg : table5_strategies()) {
      if (cfg.transport == MemSpace::Device) continue;  // staged study
      const CommPlan plan = build_plan(pattern, topo, params, cfg);
      const double t = measure(plan, topo, params, mopts).max_avg;
      if (cfg.kind == StrategyKind::Standard) standard = t;
      if (t < best) {
        best = t;
        best_name = cfg.name();
      }
    }
    AdvisorOptions aopts;
    aopts.staged_only = true;
    table.add_row({std::to_string(l), std::to_string(m.rows()),
                   Table::num(m.mean_degree(), 1),
                   std::to_string(stats.total_internode_messages), best_name,
                   advisor.best(pattern, aopts).config.name(),
                   Table::num(standard / best, 2) + "x"});
  }
  opts.emit(table, "AMG hierarchy -- strategy choice per level (" +
                       std::to_string(gpus) + " GPUs)");
  std::cout << "\nReading: fine levels are neighbor-local; coarse levels\n"
               "spread each part's halo over many nodes, which is where\n"
               "node-aware strategies take over -- the AMG setting that\n"
               "motivated node-aware communication (paper ref [15]).\n";
  return 0;
}
