// Ablation H: process mapping x communication strategy.
//
// Two complementary levers on inter-node traffic: *where* communicating
// GPUs are placed (mapping) and *how* the remaining inter-node data moves
// (strategy).  Workload: coupled subdomain "teams" (e.g. multi-physics
// surface coupling) whose team structure does not match the allocation
// order -- the scheduler placed ranks round-robin, so every team straddles
// all nodes.  Greedy locality mapping recovers the team structure before
// any strategy runs.

#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "core/executor.hpp"
#include "core/mapping.hpp"
#include "core/strategy.hpp"
#include "machine/machine.hpp"

using namespace hetcomm;
using namespace hetcomm::benchutil;
using namespace hetcomm::core;

int main(int argc, char** argv) {
  const BenchOptions opts = BenchOptions::parse(argc, argv);
  const machine::MachineModel mach = machine::lassen_machine();
  const ParamSet& params = mach.params;
  const int gpus = opts.quick ? 32 : 64;
  const Topology topo = mach.topology(mach.nodes_for_gpus(gpus));

  // Node-sized GPU teams exchange heavy coupling data; the allocator
  // scattered each team across nodes (round-robin placement).  Light
  // background traffic connects everyone.
  std::vector<int> team_of(static_cast<std::size_t>(gpus));
  for (int g = 0; g < gpus; ++g) {
    team_of[static_cast<std::size_t>(g)] = g % topo.num_nodes();
  }
  CommPattern pattern(gpus);
  for (int a = 0; a < gpus; ++a) {
    for (int b = 0; b < gpus; ++b) {
      if (a == b) continue;
      if (team_of[static_cast<std::size_t>(a)] ==
          team_of[static_cast<std::size_t>(b)]) {
        pattern.add(a, b, 200000);  // heavy coupling within the team
      } else if ((a + b) % 7 == 0) {
        pattern.add(a, b, 2000);    // sparse background traffic
      }
    }
  }

  const GpuMapping identity = GpuMapping::identity(gpus);
  const GpuMapping greedy = greedy_locality_mapping(pattern, topo);

  std::cout << "Inter-node volume: identity placement "
            << Table::bytes(internode_bytes_under(pattern, identity, topo))
            << ", greedy locality mapping "
            << Table::bytes(internode_bytes_under(pattern, greedy, topo))
            << "\n\n";

  MeasureOptions mopts;
  mopts.reps = opts.reps > 0 ? opts.reps : (opts.quick ? 3 : 10);
  mopts.noise_sigma = 0.02;

  Table table({"mapping", "strategy", "time [s]", "vs identity+standard"});
  double baseline = 0.0;
  for (const bool use_greedy : {false, true}) {
    const CommPattern mapped =
        apply_mapping(pattern, use_greedy ? greedy : identity, topo);
    for (const StrategyKind kind :
         {StrategyKind::Standard, StrategyKind::ThreeStep,
          StrategyKind::SplitMD}) {
      const CommPlan plan =
          build_plan(mapped, topo, params, {kind, MemSpace::Host});
      const double t = measure(plan, topo, params, mopts).max_avg;
      if (!use_greedy && kind == StrategyKind::Standard) baseline = t;
      table.add_row({use_greedy ? "greedy" : "identity", to_string(kind),
                     Table::sci(t), Table::num(baseline / t, 2) + "x"});
    }
  }
  opts.emit(table, "Ablation H -- mapping x strategy (" +
                       std::to_string(gpus) + " GPUs, scattered teams)");
  std::cout << "\nReading: placement and strategy optimize different terms;\n"
               "the mapping reduces inter-node volume itself, the strategy\n"
               "moves what remains efficiently -- combine both.\n";
  return 0;
}
