// Ablation E: communication/computation overlap (paper §2.3.3: Algorithm 2
// steps "can be overlapped with various pieces of the computation").
//
// Sweeps the local compute grain relative to the communication time and
// reports how much of the exchange each strategy hides when the compute is
// issued while inter-node traffic is in flight.

#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "core/neighborhood.hpp"
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
  const int gpus = opts.quick ? 32 : 64;
  const Topology topo = mach.topology(mach.nodes_for_gpus(gpus));

  const double scale = opts.quick ? 0.004 : 0.008;
  const sparse::CsrMatrix matrix = sparse::generate_standin(
      sparse::profile_by_name("Serena"), scale, 37);
  const sparse::RowPartition part =
      sparse::RowPartition::contiguous(matrix.rows(), gpus);
  const CommPattern pattern = sparse::spmv_comm_pattern(
      matrix, part, topo, static_cast<std::int64_t>(std::llround(8.0 / scale)));

  MeasureOptions mopts;
  mopts.reps = opts.reps > 0 ? opts.reps : (opts.quick ? 3 : 10);
  mopts.noise_sigma = 0.02;

  for (const StrategyConfig& cfg :
       {StrategyConfig{StrategyKind::Standard, MemSpace::Host},
        StrategyConfig{StrategyKind::ThreeStep, MemSpace::Host},
        StrategyConfig{StrategyKind::SplitMD, MemSpace::Host}}) {
    const NeighborhoodExchange exchange(pattern, topo, params, cfg);
    const double comm = exchange.measure(mopts).max_avg;

    Table table({"compute/comm", "sequential [s]", "overlapped [s]",
                 "hidden fraction"});
    for (const double ratio : {0.25, 0.5, 1.0, 2.0, 4.0}) {
      const double compute = ratio * comm;
      const double sequential = comm + compute;
      const double overlapped =
          exchange.measure_overlapped(compute, mopts).max_avg;
      const double hidden =
          comm > 0 ? (sequential - overlapped) / comm : 0.0;
      table.add_row({Table::num(ratio, 2), Table::sci(sequential),
                     Table::sci(overlapped), Table::num(hidden, 2)});
    }
    opts.emit(table, "Ablation E -- overlap, " + cfg.name() + " (comm=" +
                         Table::sci(comm) + " s)");
  }
  std::cout << "\nReading: standard communication hides the most (its whole\n"
               "exchange is the inter-node phase), while split has already\n"
               "shrunk the exposed inter-node time to a few percent of the\n"
               "total -- overlap and node-awareness attack the same cost\n"
               "from different sides.\n";
  return 0;
}
