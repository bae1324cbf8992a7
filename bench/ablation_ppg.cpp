// Ablation B: Split+DD's host-processes-per-GPU (ppg) trade-off.  More
// holders spread the on-node distribution load but multiply the number of
// duplicate-device-pointer copies, each paying the shared-copy latency.
// The paper fixes ppg = 4; this sweep shows why more does not help
// (consistent with Figure 3.1's "no benefit past four processes").

#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "core/executor.hpp"
#include "core/strategy.hpp"
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
  const int gpus = opts.quick ? 32 : 128;
  const Topology topo = mach.topology(mach.nodes_for_gpus(gpus));

  const double scale = opts.quick ? 0.004 : 0.01;
  const sparse::CsrMatrix matrix = sparse::generate_standin(
      sparse::profile_by_name("Serena"), scale, 29);
  // Volume-preserving scaling: the stand-in has scale*n rows for
  // tractability; multiplying the per-value payload by 1/scale restores the
  // full-size matrix's per-partition communication volumes (node fan-out is
  // already preserved because the band is a fraction of n).
  const std::int64_t bytes_per_value = std::llround(8.0 / scale);
  const sparse::RowPartition part =
      sparse::RowPartition::contiguous(matrix.rows(), gpus);
  const CommPattern pattern =
            sparse::spmv_comm_pattern(matrix, part, topo, bytes_per_value);

  MeasureOptions mopts;
  mopts.reps = opts.reps > 0 ? opts.reps : (opts.quick ? 3 : 15);
  mopts.noise_sigma = 0.02;

  // Split+MD as the baseline.
  double md_time = 0.0;
  {
    const CommPlan plan = build_plan(pattern, topo, params,
                                     {StrategyKind::SplitMD, MemSpace::Host});
    md_time = measure(plan, topo, params, mopts).max_avg;
  }

  Table table({"ppg", "time [s]", "copies", "vs Split+MD"});
  table.add_row({"(MD)", Table::sci(md_time), "-", "1.000"});
  for (const int ppg : {1, 2, 4, 8}) {
    StrategyConfig cfg{StrategyKind::SplitDD, MemSpace::Host};
    cfg.ppg = ppg;
    const CommPlan plan = build_plan(pattern, topo, params, cfg);
    const double t = measure(plan, topo, params, mopts).max_avg;
    table.add_row({std::to_string(ppg), Table::sci(t),
                   std::to_string(plan.summarize(topo).copies),
                   Table::num(t / md_time, 3)});
  }
  opts.emit(table, "Ablation B -- Split+DD holders per GPU (" +
                       std::to_string(gpus) + " GPUs, Serena stand-in)");
  std::cout << "\nExpected: every DD variant is slower than Split+MD -- the\n"
               "duplicate-device-pointer copy latency dominates the on-node\n"
               "messaging it saves (paper §5.1).\n";
  return 0;
}
