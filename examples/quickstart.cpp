// Quickstart: simulate irregular point-to-point communication on a
// Lassen-like machine and compare all node-aware strategies.
//
//   $ ./quickstart [num_nodes] [msgs_per_gpu] [msg_bytes]
//
// Walks through the core API: build a Topology + ParamSet, describe traffic
// as a CommPattern, compile it into per-strategy CommPlans, execute them on
// the discrete-event simulator, and ask the model-driven Advisor which
// strategy it would have picked.  A bad argument prints
// `quickstart: <error>` and exits 2.

#include <exception>
#include <iostream>

#include "benchutil/bench_options.hpp"
#include "benchutil/table.hpp"
#include "core/advisor.hpp"
#include "core/executor.hpp"
#include "core/strategy.hpp"

using namespace hetcomm;

namespace {

int run(int argc, char** argv) {
  const int num_nodes =
      argc > 1 ? benchutil::parse_number<int>(argv[1], "num_nodes") : 8;
  const int msgs_per_gpu =
      argc > 2 ? benchutil::parse_number<int>(argv[2], "msgs_per_gpu") : 32;
  const std::int64_t msg_bytes =
      argc > 3 ? benchutil::parse_number<std::int64_t>(argv[3], "msg_bytes")
               : 4096;

  // 1. A machine: Lassen nodes (2 sockets x [Power9 + 2 V100], 40 cores)
  //    with the paper's measured communication parameters.
  const Topology topo(presets::lassen(num_nodes));
  const ParamSet params = lassen_params();
  std::cout << "Machine: " << num_nodes << " Lassen-like nodes, "
            << topo.num_gpus() << " GPUs, " << topo.num_ranks()
            << " host ranks\n";

  // 2. A workload: every GPU sends msgs_per_gpu messages of msg_bytes to
  //    random other GPUs (an irregular point-to-point pattern).
  const core::CommPattern pattern =
      core::random_pattern(topo, msgs_per_gpu, msg_bytes, /*seed=*/2024);
  const core::PatternStats stats = core::compute_stats(pattern, topo);
  std::cout << "Pattern: " << pattern.total_messages() << " messages, "
            << pattern.total_bytes() << " B total, max "
            << stats.m_proc << " inter-node messages per GPU, fan-out "
            << stats.num_internode_nodes << " nodes\n\n";

  // 3. Compile and execute every strategy; report the paper's metric
  //    (max over ranks of the mean communication time).
  benchutil::Table table({"strategy", "time [s]", "net msgs", "net bytes",
                          "vs best"});
  double best = 1e99;
  std::vector<std::pair<std::string, double>> rows;
  core::MeasureOptions opts;
  opts.reps = 20;
  opts.noise_sigma = 0.02;

  std::vector<core::PlanSummary> summaries;
  for (const core::StrategyConfig& cfg : core::table5_strategies()) {
    const core::CommPlan plan = core::build_plan(pattern, topo, params, cfg);
    const core::MeasureResult r = core::measure(plan, topo, params, opts);
    rows.push_back({cfg.name(), r.max_avg});
    summaries.push_back(r.summary);
    best = std::min(best, r.max_avg);
  }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    table.add_row({rows[i].first, benchutil::Table::sci(rows[i].second),
                   std::to_string(summaries[i].internode_messages),
                   std::to_string(summaries[i].internode_bytes),
                   benchutil::Table::num(rows[i].second / best, 2)});
  }
  table.print(std::cout);

  // 4. What would the model have picked, without running anything?
  const core::Advisor advisor(topo, params);
  const core::Recommendation rec = advisor.best(pattern);
  std::cout << "\nAdvisor pick (model-driven): " << rec.config.name()
            << " (predicted " << benchutil::Table::sci(rec.predicted_seconds)
            << " s)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "quickstart: " << e.what() << "\n";
    return 2;
  }
}
