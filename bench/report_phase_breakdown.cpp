// Diagnostic report: where does each strategy spend its time?
//
// Attributes the makespan of every strategy to its phases (copies, local
// exchange, gather/scatter, inter-node, redistribution) on a common SpMV
// workload -- the per-phase view behind the paper's modeling decisions
// (e.g. why Split+DD loses on copies and 3-step pays for gathering).

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
  const BenchOptions opts =
      BenchOptions::parse(argc, argv, /*metrics_supported=*/true);
  const machine::MachineModel mach = machine::lassen_machine();
  const ParamSet& params = mach.params;
  const int gpus = opts.quick ? 32 : 128;
  const Topology topo = mach.topology(mach.nodes_for_gpus(gpus));

  const double scale = opts.quick ? 0.004 : 0.01;
  const sparse::CsrMatrix matrix = sparse::generate_standin(
      sparse::profile_by_name("audikw_1"), scale, 19);
  const sparse::RowPartition part =
      sparse::RowPartition::contiguous(matrix.rows(), gpus);
  const CommPattern pattern = sparse::spmv_comm_pattern(
      matrix, part, topo, static_cast<std::int64_t>(std::llround(8.0 / scale)));

  MeasureOptions mopts;
  mopts.reps = opts.reps > 0 ? opts.reps : (opts.quick ? 3 : 10);
  mopts.noise_sigma = 0.02;
  mopts.jobs = opts.jobs;
  mopts.collect_metrics = opts.wants_metrics();

  std::vector<obs::RunReport> reports;
  for (const StrategyConfig& cfg : table5_strategies()) {
    const CommPlan plan = build_plan(pattern, topo, params, cfg);
    const std::vector<PhaseCost> costs =
        report_phases(plan, topo, params, mopts);
    Table table({"phase", "time [s]", "share"});
    double total = 0.0;
    for (const PhaseCost& c : costs) {
      table.add_row({c.label, Table::sci(c.seconds),
                     Table::num(100.0 * c.fraction, 1) + "%"});
      total += c.seconds;
    }
    table.add_row({"total", Table::sci(total), "100%"});
    opts.emit(table, "Phase breakdown -- " + cfg.name());

    if (opts.wants_metrics()) {
      MeasureResult mr = measure(plan, topo, params, mopts);
      mr.metrics->name = cfg.name();
      reports.push_back(std::move(*mr.metrics));
    }
  }
  if (opts.wants_metrics()) write_metrics_file(opts.metrics_path, reports);
  return 0;
}
