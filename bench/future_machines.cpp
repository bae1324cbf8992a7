// Extension (paper §6): strategy predictions on future-machine presets.
// Frontier-like (single socket, 64 cores, ~4x injection bandwidth) and
// Delta-like (dual 64-core sockets, PCIe GPUs).  The paper conjectures that
// split strategies "will likely be the most efficient communication
// techniques to take advantage of the high bandwidth interconnects", with
// the caveat that distributing across more cores could pose constraints.

#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "core/executor.hpp"
#include "core/models/scenario.hpp"
#include "core/models/strategy_models.hpp"
#include "core/strategy.hpp"
#include "machine/machine.hpp"
#include "runtime/sweep.hpp"
#include "sparse/comm_graph.hpp"
#include "sparse/suitesparse_profiles.hpp"

using namespace hetcomm;
using namespace hetcomm::benchutil;
using namespace hetcomm::core;

namespace {

const std::vector<StrategyKind> kKinds = {
    StrategyKind::Standard, StrategyKind::ThreeStep, StrategyKind::TwoStep,
    StrategyKind::SplitMD, StrategyKind::SplitDD};

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opts = BenchOptions::parse(argc, argv);

  // Machine descriptions are data now: the same rows could be loaded from
  // machines/*.json without recompiling this driver.
  const std::vector<machine::MachineModel> machines = {
      machine::lassen_machine(),
      machine::frontier_machine(),
      machine::delta_machine(),
      machine::nvisland_machine(),
  };
  const std::vector<long long> sizes =
      opts.quick ? pow2_sizes(64, 1 << 14) : pow2_sizes(16, 1 << 18);

  // ---- Modeled Figure 4.3-style scenario on each machine. ----
  // One sweep cell per machine, producing that machine's table rows.
  using Rows = std::vector<std::vector<std::string>>;
  const std::vector<Rows> modeled = runtime::sweep(
      machines,
      [&](const machine::MachineModel& mc) {
        const Topology topo = mc.topology(17);

        models::Scenario sc;
        sc.num_dest_nodes = 16;
        sc.num_messages = 256;

        Rows rows;
        for (const long long size : sizes) {
          sc.msg_bytes = size;
          const PatternStats st = models::scenario_stats(topo, sc);
          std::vector<std::string> row{Table::bytes(size)};
          double best = 1e99;
          std::string best_name;
          for (const StrategyKind kind : kKinds) {
            const StrategyConfig cfg{kind, MemSpace::Host};
            const double t = models::predict(cfg, st, mc.params, topo);
            row.push_back(Table::sci(t));
            if (t < best) {
              best = t;
              best_name = to_string(kind);
            }
          }
          row.push_back(best_name);
          rows.push_back(std::move(row));
        }
        return rows;
      },
      opts.sweep_options());

  for (std::size_t mi = 0; mi < machines.size(); ++mi) {
    Table table({"size", "standard (staged)", "3-step (staged)",
                 "2-step (staged)", "split+MD", "split+DD", "min"});
    for (const std::vector<std::string>& row : modeled[mi]) table.add_row(row);
    opts.emit(table, "Future machines (modeled) -- " + machines[mi].name +
                         ", 256 msgs to 16 nodes, staged strategies");
  }

  // ---- Measured SpMV communication on each machine. ----
  const double scale = opts.quick ? 0.003 : 0.008;
  const sparse::CsrMatrix matrix = sparse::generate_standin(
      sparse::profile_by_name("audikw_1"), scale, 31);
  // Volume-preserving scaling: the stand-in has scale*n rows for
  // tractability; multiplying the per-value payload by 1/scale restores the
  // full-size matrix's per-partition communication volumes (node fan-out is
  // already preserved because the band is a fraction of n).
  const std::int64_t bytes_per_value = std::llround(8.0 / scale);
  MeasureOptions mopts;
  mopts.reps = opts.reps > 0 ? opts.reps : (opts.quick ? 3 : 10);
  mopts.seed = opts.seed;
  mopts.noise_sigma = 0.02;

  // Grid: machine x strategy, measured cells fanned across the pool.
  struct Cell {
    std::size_t mi = 0;
    std::size_t ki = 0;
  };
  std::vector<Cell> grid;
  for (std::size_t mi = 0; mi < machines.size(); ++mi) {
    for (std::size_t ki = 0; ki < kKinds.size(); ++ki) grid.push_back({mi, ki});
  }
  const std::vector<double> measured = runtime::sweep(
      grid,
      [&](const Cell& cell) {
        const machine::MachineModel& mc = machines[cell.mi];
        const Topology topo = mc.topology(16);
        const sparse::RowPartition part =
            sparse::RowPartition::contiguous(matrix.rows(), topo.num_gpus());
        const CommPattern pattern =
            sparse::spmv_comm_pattern(matrix, part, topo, bytes_per_value);
        const CommPlan plan = build_plan(pattern, topo, mc.params,
                                         {kKinds[cell.ki], MemSpace::Host});
        return measure(plan, topo, mc.params, mopts).max_avg;
      },
      opts.sweep_options());

  Table table({"machine", "standard", "3-step", "2-step", "split+MD",
               "split+DD", "min"});
  for (std::size_t mi = 0; mi < machines.size(); ++mi) {
    std::vector<std::string> row{machines[mi].name};
    double best = 1e99;
    std::string best_name;
    for (std::size_t ki = 0; ki < kKinds.size(); ++ki) {
      const double t = measured[mi * kKinds.size() + ki];
      row.push_back(Table::sci(t));
      if (t < best) {
        best = t;
        best_name = to_string(kKinds[ki]);
      }
    }
    row.push_back(best_name);
    table.add_row(std::move(row));
  }
  opts.emit(table, "Future machines (measured) -- audikw_1 stand-in SpMV, "
                   "16 nodes, staged strategies");
  return 0;
}
