// Distributed SpMV communication study (the paper's case study, §5).
//
//   $ ./spmv_communication [matrix.mtx | pattern.pattern | profile-name] [num_gpus]
//
// Loads a Matrix Market file, replays a saved communication pattern
// (core/pattern_io format), or generates a SuiteSparse stand-in by name
// (audikw_1, Serena, ldoor, thermal2, bone010, Geo_1438), partitions it
// row-wise across GPUs of a Lassen-like machine, extracts the halo-exchange
// communication pattern -- including duplicate-data annotations -- and
// compares every strategy, separating the wire volume a node-aware scheme
// ships from the payload standard communication ships.  An unreadable or
// malformed input, an unknown profile name, or a num_gpus that is not a
// positive multiple of 4 or not a replayed pattern's GPU count prints
// `spmv_communication: <error>` and exits 2.

#include <exception>
#include <iostream>
#include <stdexcept>
#include <string>

#include "benchutil/bench_options.hpp"
#include "benchutil/table.hpp"
#include "core/executor.hpp"
#include "core/pattern_io.hpp"
#include "core/strategy.hpp"
#include "sparse/comm_graph.hpp"
#include "sparse/matrix_market.hpp"
#include "sparse/suitesparse_profiles.hpp"

using namespace hetcomm;

namespace {

int run(int argc, char** argv) {
  const std::string source = argc > 1 ? argv[1] : "thermal2";
  const int num_gpus =
      argc > 2 ? benchutil::parse_number<int>(argv[2], "num_gpus") : 64;
  if (num_gpus < 4 || num_gpus % 4 != 0) {
    throw std::invalid_argument(
        "num_gpus must be a positive multiple of 4 (Lassen nodes)");
  }

  // Replay a saved pattern directly, bypassing matrix construction.
  if (source.size() > 8 &&
      source.substr(source.size() - 8) == ".pattern") {
    const core::CommPattern pattern = core::read_pattern_file(source);
    if (pattern.num_gpus() != num_gpus) {
      const std::string gpus = std::to_string(pattern.num_gpus());
      throw std::invalid_argument("pattern has " + gpus + " GPUs; pass " +
                                  gpus + " as num_gpus");
    }
    const Topology topo(presets::lassen(num_gpus / 4));
    const ParamSet params = lassen_params();
    benchutil::Table table({"strategy", "time [s]"});
    core::MeasureOptions mopts;
    mopts.reps = 15;
    mopts.noise_sigma = 0.02;
    for (const core::StrategyConfig& cfg : core::table5_strategies()) {
      const core::CommPlan plan = core::build_plan(pattern, topo, params, cfg);
      table.add_row({cfg.name(), benchutil::Table::sci(
                                     core::measure(plan, topo, params, mopts)
                                         .max_avg)});
    }
    table.print(std::cout);
    return 0;
  }

  // Load or synthesize the matrix.
  sparse::CsrMatrix matrix;
  if (source.size() > 4 && source.substr(source.size() - 4) == ".mtx") {
    matrix = sparse::read_matrix_market_file(source);
    std::cout << "Loaded " << source << ": ";
  } else {
    const sparse::MatrixProfile& profile = sparse::profile_by_name(source);
    matrix = sparse::generate_standin(profile, /*scale=*/0.02, /*seed=*/3);
    std::cout << "Generated " << source << " stand-in (2% scale): ";
  }
  std::cout << matrix.rows() << " rows, " << matrix.nnz() << " nonzeros, "
            << "mean degree " << matrix.mean_degree() << "\n";

  // Partition row-wise across GPUs and extract the halo-exchange pattern.
  const Topology topo(presets::lassen(num_gpus / 4));
  const ParamSet params = lassen_params();
  const sparse::RowPartition part =
      sparse::RowPartition::contiguous(matrix.rows(), num_gpus);
  const core::CommPattern pattern =
      sparse::spmv_comm_pattern(matrix, part, topo);
  const core::PatternStats stats = core::compute_stats(pattern, topo);

  std::cout << "SpMV halo exchange on " << num_gpus << " GPUs ("
            << topo.num_nodes() << " nodes):\n"
            << "  inter-node messages (standard): "
            << stats.total_internode_messages << "\n"
            << "  inter-node payload:             "
            << stats.total_internode_bytes << " B\n"
            << "  max node fan-out (Recv Nodes):  "
            << stats.num_internode_nodes << "\n"
            << "  duplicate data a node-aware scheme avoids: "
            << (stats.s_node > 0
                    ? benchutil::Table::num(
                          100.0 * (1.0 - static_cast<double>(stats.dedup_s_node) /
                                             static_cast<double>(stats.s_node)),
                          1)
                    : "0")
            << " % of the busiest node's injection\n\n";

  benchutil::Table table({"strategy", "time [s]", "wire bytes", "vs best"});
  core::MeasureOptions opts;
  opts.reps = 15;
  opts.noise_sigma = 0.02;

  struct Row {
    std::string name;
    double time;
    std::int64_t wire;
  };
  std::vector<Row> rows;
  double best = 1e99;
  for (const core::StrategyConfig& cfg : core::table5_strategies()) {
    const core::CommPlan plan = core::build_plan(pattern, topo, params, cfg);
    const core::MeasureResult r = core::measure(plan, topo, params, opts);
    rows.push_back({cfg.name(), r.max_avg, r.summary.internode_bytes});
    best = std::min(best, r.max_avg);
  }
  for (const Row& r : rows) {
    table.add_row({r.name, benchutil::Table::sci(r.time),
                   std::to_string(r.wire),
                   benchutil::Table::num(r.time / best, 2)});
  }
  table.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "spmv_communication: " << e.what() << "\n";
    return 2;
  }
}
