// Ablation A: sensitivity of Split+MD to the message cap.  The paper (§2.3.3)
// sets the cap at the rendezvous protocol switch point but notes it "can be
// determined via tuning or any other chosen criteria" -- this sweep measures
// how much tuning matters and where the default lands.

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
      sparse::profile_by_name("audikw_1"), scale, 13);
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

  Table table({"message cap", "time [s]", "inter-node msgs", "vs default"});
  double default_time = 0.0;
  {
    StrategyConfig cfg{StrategyKind::SplitMD, MemSpace::Host};
    cfg.message_cap = params.thresholds.eager_max;
    const CommPlan plan = build_plan(pattern, topo, params, cfg);
    default_time = measure(plan, topo, params, mopts).max_avg;
  }

  double best = 1e99;
  long long best_cap = 0;
  for (const long long cap : pow2_sizes(512, 1LL << 22)) {
    StrategyConfig cfg{StrategyKind::SplitMD, MemSpace::Host};
    cfg.message_cap = cap;
    const CommPlan plan = build_plan(pattern, topo, params, cfg);
    const double t = measure(plan, topo, params, mopts).max_avg;
    table.add_row({Table::bytes(cap), Table::sci(t),
                   std::to_string(plan.summarize(topo).internode_messages),
                   Table::num(t / default_time, 3)});
    if (t < best) {
      best = t;
      best_cap = cap;
    }
  }
  opts.emit(table, "Ablation A -- Split+MD message-cap sweep (" +
                       std::to_string(gpus) + " GPUs, audikw_1 stand-in)");
  std::cout << "\nDefault cap (rendezvous switch, "
            << Table::bytes(params.thresholds.eager_max)
            << "): " << Table::sci(default_time) << " s; tuned best cap "
            << Table::bytes(best_cap) << ": " << Table::sci(best) << " s ("
            << Table::num(default_time / best, 2) << "x of tuned).\n";
  return 0;
}
