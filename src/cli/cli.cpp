#include "cli/cli.hpp"

#include <algorithm>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "benchutil/bench_options.hpp"
#include "benchutil/table.hpp"
#include "core/advisor.hpp"
#include "core/executor.hpp"
#include "core/models/strategy_models.hpp"
#include "core/models/submodels.hpp"
#include "core/pattern_io.hpp"
#include "core/strategy.hpp"
#include "fault/fault_json.hpp"
#include "fault/stability.hpp"
#include "hetsim/engine.hpp"
#include "hetsim/faults.hpp"
#include "machine/machine_json.hpp"
#include "obs/trace.hpp"
#include "runtime/sweep.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/service.hpp"
#include "hetsim/trace_export.hpp"
#include "sparse/comm_graph.hpp"
#include "sparse/matrix_market.hpp"
#include "sparse/suitesparse_profiles.hpp"

namespace hetcomm::cli {

namespace {

using benchutil::parse_number;
using benchutil::Table;

/// The single subcommand table: usage(), the unknown-command diagnostic and
/// parse validation all enumerate this, so a new subcommand registered here
/// shows up everywhere at once (test_cli holds that contract).
struct Subcommand {
  const char* name;
  const char* summary;
};

constexpr Subcommand kSubcommands[] = {
    {"compare", "run every strategy on a workload and rank measured times"},
    {"advise", "model-driven strategy recommendation (no simulation)"},
    {"model", "print the Table 6 model decomposition for a pattern"},
    {"params", "print a machine's calibrated parameter set"},
    {"trace", "execute one strategy; dump a Chrome trace / ASCII Gantt "
              "(trace report|export inspect hetcomm.trace.v1 artifacts)"},
    {"report", "measure one strategy with per-phase/path/contention metrics"},
    {"machine", "list/describe/export/validate machine descriptions"},
    {"ranking-stability",
     "sweep a fault ensemble; report nominal-winner survival"},
    {"serve", "persistent strategy-advisor service (NDJSON on stdin/socket)"},
};

bool known_command(const std::string& name) {
  for (const Subcommand& sub : kSubcommands) {
    if (name == sub.name) return true;
  }
  return false;
}

std::string command_list() {
  std::string out;
  for (const Subcommand& sub : kSubcommands) {
    if (!out.empty()) out += '|';
    out += sub.name;
  }
  return out;
}

}  // namespace

std::string usage() {
  std::string text = "usage: hetcomm <command> [flags]\ncommands:\n";
  for (const Subcommand& sub : kSubcommands) {
    const std::string name(sub.name);
    text += "  " + name + std::string(19 - name.size(), ' ');
    text += sub.summary;
    text += '\n';
  }
  text +=
      "flags:\n"
      "  --machine NAME|FILE.json   preset (lassen summit frontier delta\n"
      "                             nvisland) or hetcomm.machine.v1 file\n"
      "                             (default lassen)\n"
      "  --out FILE           for `machine export` (default: stdout)\n"
      "  --nodes N            machine size          (default 8)\n"
      "  --pattern F.pattern | --matrix F.mtx | --standin NAME\n"
      "  --gpus N             partition width for matrix inputs\n"
      "  --strategy NAME      for `trace`/`report` (e.g. \"split+MD\")\n"
      "  --taper T            attach a T:1 tapered fat-tree fabric\n"
      "  --jobs N             worker threads (default: hardware concurrency)\n"
      "  --metrics FILE       for `report`/`serve`: write the JSON metrics\n"
      "  --faults FILE.json   attach a hetcomm.fault.v1 degradation plan\n"
      "                       (compare, trace, report, ranking-stability)\n"
      "  --fault-seeds N      for `ranking-stability`: ensemble size\n"
      "                       (default 4); --out FILE writes the\n"
      "                       hetcomm.stability.v1 report\n"
      "  --socket PATH        for `serve`: listen on a unix socket instead\n"
      "                       of stdin/stdout\n"
      "  --window N           for `serve`: max requests per batch window\n"
      "                       (default 64)\n"
      "  --cache-entries N    for `serve`: compiled-plan cache capacity\n"
      "                       (default 256; 0 disables caching)\n"
      "  --cache-shards N     for `serve`: plan cache shards (default 8)\n"
      "  --max-requests N     for `serve`: stop after N data requests\n"
      "  --max-queue N        for `serve`: pending-queue bound; requests\n"
      "                       beyond it are shed per --shed-policy\n"
      "                       (default 0 = unbounded)\n"
      "  --shed-policy P      for `serve`: reject (structured `overloaded`\n"
      "                       errors, default) or degrade (model-only\n"
      "                       answers with \"degraded\": true)\n"
      "  --default-deadline MS  for `serve`: deadline for requests without\n"
      "                       their own deadline_ms (default 0 = none)\n"
      "  --trace FILE         for `serve`/`report`: write the\n"
      "                       hetcomm.trace.v1 span artifact on exit\n"
      "  --trace-sample N     keep every Nth trace (default 1 = all)\n"
      "  --in FILE            for `trace report`/`trace export`: the\n"
      "                       hetcomm.trace.v1 artifact to inspect\n"
      "  --top K              for `trace report`: slowest span trees shown\n"
      "                       (default 10)\n"
      "  --reps N --seed S --csv\n";
  return text;
}

Options Options::parse(const std::vector<std::string>& args) {
  if (args.empty()) {
    throw std::invalid_argument("missing command\n" + usage());
  }
  Options opts;
  opts.command = args[0];
  if (!known_command(opts.command)) {
    throw std::invalid_argument("unknown command '" + opts.command + "' (" +
                                command_list() + ")\n" + usage());
  }
  std::size_t first_flag = 1;
  if (opts.command == "machine") {
    if (args.size() < 2) {
      throw std::invalid_argument(
          "machine: missing action (list|describe|export|validate)\n" +
          usage());
    }
    opts.action = args[1];
    if (opts.action != "list" && opts.action != "describe" &&
        opts.action != "export" && opts.action != "validate") {
      throw std::invalid_argument("machine: unknown action '" + opts.action +
                                  "' (list|describe|export|validate)\n" +
                                  usage());
    }
    first_flag = 2;
  }
  if (opts.command == "trace" && args.size() >= 2 && !args[1].empty() &&
      args[1][0] != '-') {
    // Optional artifact actions; no action keeps the original behavior
    // (simulate one strategy and dump its engine trace).
    opts.action = args[1];
    if (opts.action != "report" && opts.action != "export") {
      throw std::invalid_argument(
          "trace: unknown action '" + opts.action +
          "' (report|export, or no action to simulate a strategy)\n" +
          usage());
    }
    first_flag = 2;
  }
  for (std::size_t i = first_flag; i < args.size(); ++i) {
    const std::string& flag = args[i];
    auto value = [&]() -> const std::string& {
      if (i + 1 >= args.size()) {
        throw std::invalid_argument("missing value for " + flag);
      }
      return args[++i];
    };
    if (flag == "--machine") {
      opts.machine = value();
    } else if (flag == "--out") {
      opts.out_file = value();
    } else if (flag == "--nodes") {
      opts.nodes = parse_number<int>(value(), "--nodes");
    } else if (flag == "--pattern") {
      opts.pattern_file = value();
    } else if (flag == "--matrix") {
      opts.matrix_file = value();
    } else if (flag == "--standin") {
      opts.standin = value();
    } else if (flag == "--gpus") {
      opts.gpus = parse_number<int>(value(), "--gpus");
    } else if (flag == "--strategy") {
      opts.strategy = value();
    } else if (flag == "--taper") {
      opts.taper = parse_number<double>(value(), "--taper");
    } else if (flag == "--reps") {
      opts.reps = parse_number<int>(value(), "--reps");
    } else if (flag == "--jobs") {
      opts.jobs = parse_number<int>(value(), "--jobs");
    } else if (flag == "--seed") {
      opts.seed = parse_number<std::uint64_t>(value(), "--seed");
    } else if (flag == "--csv") {
      opts.csv = true;
    } else if (flag == "--metrics") {
      opts.metrics_file = value();
      if (opts.metrics_file.empty()) {
        throw std::invalid_argument("--metrics needs a non-empty file path");
      }
    } else if (flag == "--faults") {
      opts.faults_file = value();
      if (opts.faults_file.empty()) {
        throw std::invalid_argument("--faults needs a non-empty file path");
      }
    } else if (flag == "--fault-seeds") {
      opts.fault_seeds = parse_number<int>(value(), "--fault-seeds");
    } else if (flag == "--socket") {
      opts.socket_path = value();
      if (opts.socket_path.empty()) {
        throw std::invalid_argument("--socket needs a non-empty path");
      }
    } else if (flag == "--window") {
      opts.window = parse_number<int>(value(), "--window");
    } else if (flag == "--cache-entries") {
      opts.cache_entries =
          parse_number<std::int64_t>(value(), "--cache-entries");
    } else if (flag == "--cache-shards") {
      opts.cache_shards = parse_number<int>(value(), "--cache-shards");
    } else if (flag == "--max-requests") {
      opts.max_requests =
          parse_number<std::int64_t>(value(), "--max-requests");
    } else if (flag == "--max-queue") {
      opts.max_queue = parse_number<std::int64_t>(value(), "--max-queue");
    } else if (flag == "--shed-policy") {
      opts.shed_policy = value();
    } else if (flag == "--default-deadline") {
      opts.default_deadline =
          parse_number<std::int64_t>(value(), "--default-deadline");
    } else if (flag == "--trace") {
      opts.trace_file = value();
      if (opts.trace_file.empty()) {
        throw std::invalid_argument("--trace needs a non-empty file path");
      }
    } else if (flag == "--trace-sample") {
      opts.trace_sample =
          parse_number<std::uint64_t>(value(), "--trace-sample");
    } else if (flag == "--in") {
      opts.in_file = value();
      if (opts.in_file.empty()) {
        throw std::invalid_argument("--in needs a non-empty file path");
      }
    } else if (flag == "--top") {
      opts.top = parse_number<int>(value(), "--top");
    } else {
      throw std::invalid_argument("unknown flag '" + flag + "'\n" + usage());
    }
  }
  if (opts.nodes < 1) throw std::invalid_argument("--nodes must be >= 1");
  if (opts.reps < 1) throw std::invalid_argument("--reps must be >= 1");
  if (opts.fault_seeds < 1) {
    throw std::invalid_argument("--fault-seeds must be >= 1");
  }
  if (opts.jobs < 0) {
    throw std::invalid_argument("--jobs must be >= 1 (or 0 for hardware)");
  }
  if (opts.window < 1) throw std::invalid_argument("--window must be >= 1");
  if (opts.cache_entries < 0) {
    throw std::invalid_argument("--cache-entries must be >= 0");
  }
  if (opts.cache_shards < 1) {
    throw std::invalid_argument("--cache-shards must be >= 1");
  }
  if (opts.max_requests < 0) {
    throw std::invalid_argument("--max-requests must be >= 0");
  }
  if (opts.max_queue < 0) {
    throw std::invalid_argument("--max-queue must be >= 0");
  }
  if (opts.shed_policy != "reject" && opts.shed_policy != "degrade") {
    throw std::invalid_argument("--shed-policy must be reject or degrade");
  }
  if (opts.default_deadline < 0) {
    throw std::invalid_argument("--default-deadline must be >= 0");
  }
  if (opts.trace_sample < 1) {
    throw std::invalid_argument("--trace-sample must be >= 1");
  }
  if (opts.top < 1) throw std::invalid_argument("--top must be >= 1");
  // Only these modes read --faults; any other would accept the file and
  // ignore it (serve requests name their own fault plans).
  const bool reads_faults =
      opts.command == "compare" || opts.command == "report" ||
      opts.command == "ranking-stability" ||
      (opts.command == "trace" && opts.action.empty());
  if (!opts.faults_file.empty() && !reads_faults) {
    const std::string mode =
        opts.action.empty() ? opts.command : opts.command + " " + opts.action;
    throw std::invalid_argument(
        "--faults applies to compare, trace, report and ranking-stability, "
        "not " + mode);
  }
  const int sources = (opts.pattern_file.empty() ? 0 : 1) +
                      (opts.matrix_file.empty() ? 0 : 1) +
                      (opts.standin.empty() ? 0 : 1);
  if (sources > 1) {
    throw std::invalid_argument(
        "pass at most one of --pattern / --matrix / --standin");
  }
  return opts;
}

machine::MachineModel make_machine(const Options& opts) {
  // One strict lookup for topology and parameters alike: an unknown name
  // is an error here, never a silent fallback to the Lassen calibration.
  return machine::resolve_machine(opts.machine);
}

Topology make_topology(const Options& opts) {
  return make_machine(opts).topology(opts.nodes);
}

ParamSet make_params(const Options& opts) {
  return make_machine(opts).params;
}

core::CommPattern make_workload(const Options& opts, const Topology& topo) {
  if (!opts.pattern_file.empty()) {
    core::CommPattern p = core::read_pattern_file(opts.pattern_file);
    if (p.num_gpus() != topo.num_gpus()) {
      throw std::invalid_argument("pattern GPU count (" +
                                  std::to_string(p.num_gpus()) +
                                  ") does not match the machine (" +
                                  std::to_string(topo.num_gpus()) + ")");
    }
    core::check_dedup(p, topo);
    return p;
  }
  const int gpus = opts.gpus > 0 ? opts.gpus : topo.num_gpus();
  if (gpus != topo.num_gpus()) {
    throw std::invalid_argument("--gpus must equal the machine's GPU count (" +
                                std::to_string(topo.num_gpus()) + ")");
  }
  if (!opts.matrix_file.empty()) {
    const sparse::CsrMatrix m =
        sparse::read_matrix_market_file(opts.matrix_file);
    const sparse::RowPartition part =
        sparse::RowPartition::contiguous(m.rows(), gpus);
    return sparse::spmv_comm_pattern(m, part, topo);
  }
  if (!opts.standin.empty()) {
    const sparse::CsrMatrix m = sparse::generate_standin(
        sparse::profile_by_name(opts.standin), 0.01, opts.seed);
    const sparse::RowPartition part =
        sparse::RowPartition::contiguous(m.rows(), gpus);
    return sparse::spmv_comm_pattern(m, part, topo, /*bytes_per_value=*/800);
  }
  return core::random_pattern(topo, 16, 4096, opts.seed);
}

namespace {

void emit(const Options& opts, std::ostream& os, const Table& table,
          const std::string& title) {
  if (opts.csv) {
    os << "# " << title << "\n";
    table.print_csv(os);
  } else {
    benchutil::banner(os, title);
    table.print(os);
  }
}

core::MeasureOptions measure_options(const Options& opts,
                                     const Topology& topo) {
  core::MeasureOptions mopts;
  mopts.reps = opts.reps;
  mopts.seed = opts.seed;
  mopts.noise_sigma = 0.02;
  if (opts.taper > 0.0) {
    FatTreeConfig cfg;
    cfg.taper = opts.taper;
    cfg.nodes_per_pod = std::max(1, std::min(18, topo.num_nodes() / 2));
    mopts.fabric = cfg;
  }
  return mopts;
}

/// Load + compile --faults against the resolved machine; nullopt when no
/// plan was requested.  Loading/scope errors are std::invalid_argument
/// (exit 2): a bad fault file is an input error, not a simulation failure.
std::optional<FaultModel> make_faults(const Options& opts,
                                      const Topology& topo,
                                      const ParamSet& params) {
  if (opts.faults_file.empty()) return std::nullopt;
  const fault::FaultPlan plan = fault::load_fault_file(opts.faults_file);
  try {
    return plan.compile(topo, params);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(opts.faults_file + ": " + e.what());
  }
}

int cmd_compare(const Options& opts, std::ostream& os) {
  const machine::MachineModel mach = make_machine(opts);
  const Topology topo = mach.topology(opts.nodes);
  const ParamSet& params = mach.params;
  const core::CommPattern pattern = make_workload(opts, topo);
  const std::optional<FaultModel> faults = make_faults(opts, topo, params);
  core::MeasureOptions mopts = measure_options(opts, topo);
  if (faults) mopts.faults = &*faults;

  Table table({"strategy", "time [s]", "net msgs", "net bytes", "vs best"});
  struct Row {
    std::string name;
    double time = 0.0;
    core::PlanSummary summary;
  };
  // One sweep cell per measured strategy; each cell compiles and simulates
  // its plan.  A variant that lowers to its base strategy's plan on this
  // machine is not run: its row names the base it aliases.
  const std::vector<core::StrategyConfig> strategies =
      core::all_strategies();
  const std::vector<int> alias = core::identity_aliases(strategies, params);
  std::vector<core::StrategyConfig> measured;
  for (std::size_t i = 0; i < strategies.size(); ++i) {
    if (alias[i] < 0) measured.push_back(strategies[i]);
  }
  const std::vector<Row> rows = runtime::sweep(
      measured,
      [&](const core::StrategyConfig& cfg) {
        const core::CommPlan plan =
            core::build_plan(pattern, topo, params, cfg);
        const core::MeasureResult r = core::measure(plan, topo, params, mopts);
        return Row{cfg.name(), r.max_avg, r.summary};
      },
      runtime::SweepOptions{opts.jobs, /*progress=*/false, nullptr});
  double best = 1e99;
  for (const Row& r : rows) best = std::min(best, r.time);
  auto row = rows.begin();
  for (std::size_t i = 0; i < strategies.size(); ++i) {
    if (alias[i] >= 0) {
      const core::StrategyConfig& base =
          strategies[static_cast<std::size_t>(alias[i])];
      table.add_row({strategies[i].name(), "= " + base.name(), "", "", ""});
      continue;
    }
    const Row& r = *row++;
    table.add_row({r.name, Table::sci(r.time),
                   std::to_string(r.summary.internode_messages),
                   std::to_string(r.summary.internode_bytes),
                   Table::num(r.time / best, 2)});
  }
  emit(opts, os, table, "strategy comparison (" + mach.name + ", " +
                            std::to_string(opts.nodes) + " nodes)");
  return 0;
}

int cmd_advise(const Options& opts, std::ostream& os) {
  const machine::MachineModel mach = make_machine(opts);
  const Topology topo = mach.topology(opts.nodes);
  const core::Advisor advisor(topo, mach.params);
  const core::CommPattern pattern = make_workload(opts, topo);
  Table table({"rank", "strategy", "predicted [s]", "relative"});
  int rank = 1;
  for (const core::Recommendation& r : advisor.rank(pattern)) {
    table.add_row({std::to_string(rank++), r.config.name(),
                   Table::sci(r.predicted_seconds), Table::num(r.relative, 2)});
  }
  emit(opts, os, table, "model-driven ranking");
  return 0;
}

int cmd_model(const Options& opts, std::ostream& os) {
  const machine::MachineModel mach = make_machine(opts);
  const Topology topo = mach.topology(opts.nodes);
  const ParamSet& params = mach.params;
  const core::CommPattern pattern = make_workload(opts, topo);
  const core::PatternStats st = core::compute_stats(pattern, topo);
  Table stats_table({"Table 7 statistic", "value"});
  stats_table.add_row({"s_proc [B]", std::to_string(st.s_proc)});
  stats_table.add_row({"s_node [B]", std::to_string(st.s_node)});
  stats_table.add_row({"s_node->node [B]", std::to_string(st.s_node_node)});
  stats_table.add_row({"m_proc", std::to_string(st.m_proc)});
  stats_table.add_row({"m_proc->node", std::to_string(st.m_proc_node)});
  stats_table.add_row({"m_node->node", std::to_string(st.m_node_node)});
  stats_table.add_row({"dedup s_node [B]", std::to_string(st.dedup_s_node)});
  emit(opts, os, stats_table, "pattern statistics");

  // Model evaluation fans across the sweep pool too -- cheap per cell, but
  // the same --jobs plumbing as `compare`, and rows stay in Table 5 order.
  // A variant that lowers to its base strategy's plan on this machine is
  // not predicted: its row names the base it aliases, as in `compare`.
  const std::vector<core::StrategyConfig> strategies =
      core::all_strategies();
  const std::vector<int> alias = core::identity_aliases(strategies, params);
  std::vector<core::StrategyConfig> modeled;
  for (std::size_t i = 0; i < strategies.size(); ++i) {
    if (alias[i] < 0) modeled.push_back(strategies[i]);
  }
  const std::vector<double> predicted = runtime::sweep(
      modeled,
      [&](const core::StrategyConfig& cfg) {
        return core::models::predict(cfg, st, params, topo);
      },
      runtime::SweepOptions{opts.jobs, /*progress=*/false, nullptr});
  Table table({"strategy", "predicted [s]"});
  auto seconds = predicted.begin();
  for (std::size_t i = 0; i < strategies.size(); ++i) {
    if (alias[i] >= 0) {
      const core::StrategyConfig& base =
          strategies[static_cast<std::size_t>(alias[i])];
      table.add_row({strategies[i].name(), "= " + base.name()});
      continue;
    }
    table.add_row({strategies[i].name(), Table::sci(*seconds++)});
  }
  emit(opts, os, table, "Table 6 model predictions");
  return 0;
}

int cmd_params(const Options& opts, std::ostream& os) {
  const ParamSet params = make_params(opts);
  Table table({"space", "protocol", "path", "alpha [s]", "beta [s/B]"});
  for (const MemSpace space : {MemSpace::Host, MemSpace::Device}) {
    for (const Protocol proto :
         {Protocol::Short, Protocol::Eager, Protocol::Rendezvous}) {
      if (space == MemSpace::Device && proto == Protocol::Short) continue;
      for (int path = 0; path < params.taxonomy.num_classes(); ++path) {
        const PostalParams& pp = params.messages.get(space, proto, path);
        table.add_row({to_string(space), to_string(proto),
                       params.taxonomy.cls(path).name, Table::sci(pp.alpha),
                       Table::sci(pp.beta)});
      }
    }
  }
  emit(opts, os, table, "message parameters (" + params.name + ")");

  Table copies({"procs", "dir", "alpha [s]", "beta [s/B]"});
  for (const int np : {1, params.copies.shared_procs}) {
    for (const CopyDir dir : {CopyDir::HostToDevice, CopyDir::DeviceToHost}) {
      const PostalParams cp = copy_params_for(params.copies, dir, np);
      copies.add_row({std::to_string(np), to_string(dir),
                      Table::sci(cp.alpha), Table::sci(cp.beta)});
    }
  }
  emit(opts, os, copies, "copy parameters");
  os << "R_N^-1 = " << Table::sci(params.injection.inv_rate_cpu)
     << " s/B; eager limit = " << params.thresholds.eager_max << " B\n";
  return 0;
}

// `trace report` / `trace export`: offline inspection of a
// hetcomm.trace.v1 artifact (written by `serve --trace` / `report
// --trace` or snapshotted live via the serve {"cmd": "trace"} line).
int cmd_trace_artifact(const Options& opts, std::ostream& os) {
  if (opts.in_file.empty()) {
    throw std::invalid_argument("trace " + opts.action +
                                " requires --in TRACE.json\n" + usage());
  }
  std::ifstream in(opts.in_file);
  if (!in) {
    throw std::invalid_argument("trace: cannot open " + opts.in_file);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const obs::JsonValue doc = obs::JsonValue::parse(buffer.str());
  if (!doc.is_object() || doc.find("schema") == nullptr ||
      doc.at("schema").as_string() != obs::kTraceSchema) {
    throw std::invalid_argument(opts.in_file + ": not a " +
                                std::string(obs::kTraceSchema) +
                                " artifact");
  }

  if (opts.action == "export") {
    if (opts.out_file.empty()) {
      obs::write_chrome_trace_artifact(os, doc);
      return 0;
    }
    std::ofstream out(opts.out_file);
    if (!out) {
      throw std::runtime_error("trace export: cannot open " + opts.out_file);
    }
    obs::write_chrome_trace_artifact(out, doc);
    os << "chrome trace written to " << opts.out_file
       << " (open in Perfetto / chrome://tracing)\n";
    return 0;
  }

  // report: per-trace span trees, slowest roots first.
  const obs::JsonValue& spans = doc.at("spans");
  const std::size_t n = spans.size();
  std::vector<std::vector<std::size_t>> kids(n);
  std::vector<std::size_t> roots;
  std::map<std::pair<std::int64_t, std::int64_t>, std::size_t> by_id;
  for (std::size_t i = 0; i < n; ++i) {
    const obs::JsonValue& s = spans.at(i);
    by_id.emplace(std::make_pair(s.at("trace").as_int(), s.at("span").as_int()),
                  i);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const obs::JsonValue& s = spans.at(i);
    const std::int64_t parent = s.at("parent").as_int();
    const auto it =
        parent == 0 ? by_id.end()
                    : by_id.find(std::make_pair(s.at("trace").as_int(), parent));
    // A span whose parent was dropped from the ring reports as a root.
    if (it == by_id.end() || it->second == i) {
      roots.push_back(i);
    } else {
      kids[it->second].push_back(i);
    }
  }
  const auto duration = [&](std::size_t i) {
    const obs::JsonValue& s = spans.at(i);
    return s.at("t_end").as_double() - s.at("t_start").as_double();
  };
  std::sort(roots.begin(), roots.end(), [&](std::size_t a, std::size_t b) {
    return duration(a) > duration(b);
  });

  const obs::JsonValue& meta = doc.at("meta");
  os << "hetcomm.trace.v1: " << n << " spans, "
     << meta.at("dropped").as_int() << " dropped, sample period "
     << meta.at("sample_period").as_int() << "; " << roots.size()
     << " root spans, slowest "
     << std::min<std::size_t>(roots.size(),
                              static_cast<std::size_t>(opts.top))
     << " shown\n";

  const std::function<void(std::size_t, int)> print = [&](std::size_t i,
                                                          int depth) {
    const obs::JsonValue& s = spans.at(i);
    os << std::string(static_cast<std::size_t>(2 * depth), ' ')
       << s.at("name").as_string() << "  " << Table::sci(duration(i)) << " s";
    if (const obs::JsonValue* attrs = s.find("attrs")) {
      std::string text;
      for (const auto& [key, value] : attrs->members()) {
        if (!text.empty()) text += ", ";
        text += key + "=" +
                (value.is_string() ? value.as_string()
                                   : std::to_string(value.as_int()));
      }
      if (!text.empty()) os << "  {" << text << "}";
    }
    os << "\n";
    for (const std::size_t k : kids[i]) print(k, depth + 1);
  };
  int shown = 0;
  for (const std::size_t r : roots) {
    if (shown++ >= opts.top) break;
    os << "-- trace " << spans.at(r).at("trace").as_int() << " --\n";
    print(r, 0);
  }
  return 0;
}

int cmd_trace(const Options& opts, std::ostream& os) {
  if (!opts.action.empty()) return cmd_trace_artifact(opts, os);
  const machine::MachineModel mach = make_machine(opts);
  const Topology topo = mach.topology(opts.nodes);
  const ParamSet& params = mach.params;
  const core::CommPattern pattern = make_workload(opts, topo);
  const core::StrategyConfig cfg = core::parse_strategy(opts.strategy);
  const core::CommPlan plan = core::build_plan(pattern, topo, params, cfg);
  const std::optional<FaultModel> faults = make_faults(opts, topo, params);

  Engine engine(topo, params, NoiseModel(opts.seed, 0.0));
  if (faults) engine.set_faults(&*faults);
  engine.set_tracing(true);
  core::run_plan(engine, plan);
  if (opts.csv) {
    write_chrome_trace(os, engine.trace(), topo);
  } else {
    os << "strategy: " << cfg.name() << ", makespan "
       << Table::sci(engine.max_clock()) << " s\n";
    write_ascii_gantt(os, engine.trace());
  }
  return 0;
}

// Fig 4.2-style breakdown from *measured* simulation metrics: where each
// phase of one strategy's plan spends the makespan, what traffic each path
// class carries, and where transfers queue.
int cmd_report(const Options& opts, std::ostream& os) {
  const machine::MachineModel mach = make_machine(opts);
  const Topology topo = mach.topology(opts.nodes);
  const ParamSet& params = mach.params;
  const core::CommPattern pattern = make_workload(opts, topo);
  const core::StrategyConfig cfg = core::parse_strategy(opts.strategy);
  const core::CommPlan plan = core::build_plan(pattern, topo, params, cfg);

  const std::optional<FaultModel> faults = make_faults(opts, topo, params);
  core::MeasureOptions mopts = measure_options(opts, topo);
  mopts.jobs = opts.jobs;
  mopts.collect_metrics = true;
  if (faults) mopts.faults = &*faults;
  std::optional<obs::Tracer> tracer;
  if (!opts.trace_file.empty()) {
    obs::Tracer::Options topts;
    const int jobs = opts.jobs == 0 ? runtime::hardware_jobs() : opts.jobs;
    topts.rings = std::max(1, std::min(jobs, opts.reps));
    topts.sample_period = opts.trace_sample;
    tracer.emplace(topts);
    for (int w = 0; w < topts.rings; ++w) {
      tracer->name_track(static_cast<std::uint16_t>(w),
                         "worker " + std::to_string(w));
    }
    mopts.tracer = &*tracer;
  }
  core::MeasureResult result = core::measure(plan, topo, params, mopts);
  obs::RunReport& report = *result.metrics;
  report.name = cfg.name() + " (" + mach.name + ", " +
                std::to_string(opts.nodes) + " nodes)";

  os << "strategy: " << cfg.name() << ", " << report.reps
     << " reps, makespan mean " << Table::sci(report.makespan.mean)
     << " s (p99 " << Table::sci(report.makespan.p99) << " s), max-avg "
     << Table::sci(report.max_avg) << " s\n";

  // Repetition 0's phase times, laid out as report_phase_breakdown's.
  Table phases({"phase", "time [s]", "share"});
  for (const obs::PhaseStat& p : report.phases) {
    phases.add_row({std::to_string(p.phase), Table::sci(p.makespan.mean),
                    Table::num(100.0 * p.share, 1) + "%"});
  }
  emit(opts, os, phases, "phase breakdown (measured)");

  Table traffic({"path", "protocol", "messages", "bytes"});
  for (const obs::TrafficStat& t : report.traffic) {
    traffic.add_row({t.path, t.proto, std::to_string(t.messages),
                     std::to_string(t.bytes)});
  }
  traffic.add_row({"total", "", std::to_string(report.total_messages),
                   std::to_string(report.total_bytes)});
  emit(opts, os, traffic, "traffic by path class");

  Table contention(
      {"resource", "waits", "wait p50 [s]", "wait p99 [s]", "busy [s]"});
  for (const obs::ResourceStat& r : report.resources) {
    contention.add_row({r.resource, std::to_string(r.waits),
                        Table::sci(r.wait_p50), Table::sci(r.wait_p99),
                        Table::sci(r.occupancy_seconds)});
  }
  emit(opts, os, contention, "contention by resource");

  if (!report.nic.empty()) {
    // Rail balance: striped runs should show near-even striped bytes
    // across each node's lanes; a skewed column means the stripe lowering
    // or the machine's rail count is off.
    Table nics({"nic", "node", "lane", "bytes", "striped", "stripe share"});
    for (const obs::NicStat& n : report.nic) {
      const double share =
          n.bytes_injected > 0
              ? 100.0 * static_cast<double>(n.striped_bytes) /
                    static_cast<double>(n.bytes_injected)
              : 0.0;
      nics.add_row({std::to_string(n.nic), std::to_string(n.node),
                    std::to_string(n.lane), std::to_string(n.bytes_injected),
                    std::to_string(n.striped_bytes),
                    Table::num(share, 1) + "%"});
    }
    emit(opts, os, nics, "NIC egress by rail (per repetition)");
  }

  if (!report.copies.empty()) {
    Table copies({"dir", "sharing", "count", "bytes", "time [s]"});
    for (const obs::CopyStat& c : report.copies) {
      copies.add_row({c.dir, c.sharing, std::to_string(c.count),
                      std::to_string(c.bytes), Table::sci(c.seconds)});
    }
    emit(opts, os, copies, "host<->device copies");
  }

  if (report.has_faults()) {
    Table fault_table({"fault metric", "value"});
    fault_table.add_row({"retries", std::to_string(report.faults.retries)});
    fault_table.add_row(
        {"retry delay [s]", Table::sci(report.faults.retry_seconds)});
    fault_table.add_row(
        {"NIC failovers", std::to_string(report.faults.failovers)});
    fault_table.add_row(
        {"degraded msgs", std::to_string(report.faults.degraded_msgs)});
    for (const obs::FaultPathStat& f : report.faults.degraded) {
      fault_table.add_row({"degraded time [s] (" + f.path + ")",
                           Table::sci(f.degraded_seconds)});
    }
    for (std::size_t r = 0; r < report.faults.rail_retries.size(); ++r) {
      if (report.faults.rail_retries[r] == 0) continue;
      fault_table.add_row(
          {"retries (rail " + std::to_string(r) + ")",
           std::to_string(report.faults.rail_retries[r])});
    }
    emit(opts, os, fault_table, "fault activity (repetition 0)");
  }

  if (!opts.metrics_file.empty()) {
    benchutil::write_metrics_file(opts.metrics_file, {report});
    os << "metrics report written to " << opts.metrics_file << "\n";
  }
  if (tracer) {
    std::ofstream out(opts.trace_file);
    if (!out) {
      throw std::runtime_error("report: cannot open " + opts.trace_file);
    }
    tracer->write_json(out);
    os << "trace written to " << opts.trace_file
       << " (inspect with `hetcomm trace report --in " << opts.trace_file
       << "`)\n";
  }
  return 0;
}

// Does the nominal (fault-free) Table 5 winner survive a degradation
// ensemble?  Runs fault::ranking_stability and prints the per-strategy
// record; --out writes the machine-readable hetcomm.stability.v1 report.
int cmd_ranking_stability(const Options& opts, std::ostream& os) {
  if (opts.faults_file.empty()) {
    throw std::invalid_argument(
        "ranking-stability requires --faults FILE.json\n" + usage());
  }
  const machine::MachineModel mach = make_machine(opts);
  const Topology topo = mach.topology(opts.nodes);
  const ParamSet& params = mach.params;
  const core::CommPattern pattern = make_workload(opts, topo);
  fault::FaultPlan plan = fault::load_fault_file(opts.faults_file);
  if (plan.name.empty()) plan.name = opts.faults_file;

  fault::StabilityOptions sopts;
  sopts.instances = opts.fault_seeds;
  sopts.measure = measure_options(opts, topo);
  sopts.measure.jobs = opts.jobs;
  fault::StabilityReport report;
  try {
    report = fault::ranking_stability(pattern, topo, params, plan, sopts);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(opts.faults_file + ": " + e.what());
  }

  os << "fault plan: " << report.fault_plan << " (" << report.instances
     << " instance" << (report.instances == 1 ? "" : "s") << ", machine "
     << mach.name << ", " << opts.nodes << " nodes)\n";
  os << "nominal winner: " << report.nominal.winner << "\n";

  Table table({"strategy", "nominal [s]", "wins", "failures"});
  for (std::size_t i = 0; i < report.strategies.size(); ++i) {
    const fault::StrategyOutcome& nom = report.nominal.outcomes[i];
    if (!nom.alias_of.empty()) {
      table.add_row({nom.strategy, "= " + nom.alias_of, "", ""});
      continue;
    }
    table.add_row({nom.strategy,
                   nom.failed ? std::string("failed") : Table::sci(nom.max_avg),
                   std::to_string(report.strategies[i].wins),
                   std::to_string(report.strategies[i].failures)});
  }
  emit(opts, os, table, "ranking stability under '" + report.fault_plan + "'");
  os << "winner survived " << report.winner_survived << "/"
     << report.instances << " instances (survival rate "
     << Table::num(100.0 * report.survival_rate, 1) << "%)\n";
  if (report.plans_precompiled) {
    os << "plans compiled once (" << Table::sci(report.compile_seconds)
       << " s), reused across the ensemble (saved "
       << Table::sci(report.saved_compile_seconds) << " s of recompiles)\n";
  }

  if (!opts.out_file.empty()) {
    std::ofstream out(opts.out_file);
    if (!out) {
      throw std::runtime_error("ranking-stability: cannot open " +
                               opts.out_file);
    }
    report.to_json().dump(out);
    out << "\n";
    os << "stability report written to " << opts.out_file << "\n";
  }
  return 0;
}

// Long-running advisor service: NDJSON requests on stdin (or a unix
// socket with --socket), one JSON response line each.  The heavy lifting
// -- plan caching, window batching, metrics -- lives in serve::Service;
// this driver only maps flags and writes the metrics artifact on exit.
int cmd_serve(const Options& opts, std::ostream& os) {
  serve::ServiceOptions sopts;
  sopts.jobs = opts.jobs;
  sopts.window = opts.window;
  sopts.cache_shards = opts.cache_shards;
  sopts.cache_capacity = static_cast<std::size_t>(opts.cache_entries);
  sopts.max_requests = opts.max_requests;
  sopts.max_queue = static_cast<std::size_t>(opts.max_queue);
  sopts.shed_policy = opts.shed_policy == "degrade"
                          ? serve::ShedPolicy::Degrade
                          : serve::ShedPolicy::Reject;
  sopts.default_deadline_ms = opts.default_deadline;
  sopts.default_machine = opts.machine;
  sopts.trace = !opts.trace_file.empty();
  sopts.trace_sample = opts.trace_sample;
  serve::Service service(std::move(sopts));
  if (!opts.socket_path.empty()) {
    service.run_socket(opts.socket_path);
  } else {
    // Unsynced cin owns its own buffer, so Service::run can see how many
    // request lines are already buffered and batch them into one window;
    // with stdio sync on, in_avail() is always 0 and every window is one
    // request.
    std::ios::sync_with_stdio(false);
    service.run(std::cin, os);
  }
  if (!opts.metrics_file.empty()) {
    std::ofstream out(opts.metrics_file);
    if (!out) {
      throw std::runtime_error("serve: cannot open " + opts.metrics_file);
    }
    service.metrics_json().dump(out);
    out << "\n";
  }
  if (!opts.trace_file.empty()) {
    std::ofstream out(opts.trace_file);
    if (!out) {
      throw std::runtime_error("serve: cannot open " + opts.trace_file);
    }
    service.trace_json().dump(out);
    out << "\n";
  }
  return 0;
}

std::string predicate_str(std::int8_t v) {
  if (v < 0) return "*";
  return v ? "yes" : "no";
}

int cmd_machine(const Options& opts, std::ostream& os) {
  if (opts.action == "list") {
    Table table({"machine", "shape", "paths", "description"});
    for (const std::string& name : machine::preset_machine_names()) {
      const machine::MachineModel m = machine::preset_machine(name);
      table.add_row({m.name,
                     std::to_string(m.node.sockets_per_node) + "s x " +
                         std::to_string(m.node.gpus_per_socket) + "g x " +
                         std::to_string(m.node.cores_per_socket) + "c",
                     std::to_string(m.params.taxonomy.num_classes()),
                     m.description});
    }
    emit(opts, os, table, "machine presets (--machine also takes FILE.json)");
    return 0;
  }
  if (opts.action == "describe") {
    const machine::MachineModel m = make_machine(opts);
    os << "machine: " << m.name << "\n";
    if (!m.description.empty()) os << "  " << m.description << "\n";
    os << "node shape: " << m.node.sockets_per_node << " sockets x "
       << m.node.gpus_per_socket << " GPUs x " << m.node.cores_per_socket
       << " cores\n";
    const int rails = std::max(1, m.params.injection.nics_per_node);
    os << "NIC rails: " << rails << " lane(s) per node";
    if (m.params.injection.inv_rate_cpu > 0.0) {
      os << "; per-lane rate " << Table::sci(
             1.0 / m.params.injection.inv_rate_cpu) << " B/s staged";
      if (m.params.injection.inv_rate_gpu > 0.0) {
        os << ", " << Table::sci(1.0 / m.params.injection.inv_rate_gpu)
           << " B/s device-aware";
      }
    }
    os << "\n";
    os << "thresholds: short <= " << m.params.thresholds.short_max
       << " B, eager <= " << m.params.thresholds.eager_max << " B\n";
    // Per-path-class rail/lane view: off-node classes fan out across the
    // node's NIC rails (home lane = socket % rails, stripable above the
    // rendezvous switch point); on-node classes ride the port pair and
    // never touch a NIC lane.
    Table classes(
        {"id", "path class", "locality", "rails", "home lane", "striping"});
    for (int c = 0; c < m.params.taxonomy.num_classes(); ++c) {
      const PathClassDef& def = m.params.taxonomy.cls(c);
      const bool off = def.locality == PathClass::OffNode;
      std::string lane = "port pair (no NIC)";
      std::string stripe = "n/a (on-node)";
      if (off) {
        lane = rails > 1
                   ? "node*" + std::to_string(rails) + " + socket%" +
                         std::to_string(rails)
                   : "node";
        stripe = rails > 1 ? "rendezvous msgs (> " +
                                 std::to_string(m.params.thresholds.eager_max) +
                                 " B)"
                           : "n/a (single rail)";
      }
      classes.add_row({std::to_string(c), def.name, to_string(def.locality),
                       off ? std::to_string(rails) : "1", lane, stripe});
    }
    emit(opts, os, classes, "path classes (rail/lane topology)");
    Table rules({"#", "same node", "same socket", "both GPU owners", "path"});
    int idx = 0;
    for (const PathRule& r : m.params.taxonomy.rules()) {
      rules.add_row({std::to_string(idx++), predicate_str(r.same_node),
                     predicate_str(r.same_socket),
                     predicate_str(r.both_gpu_owners),
                     m.params.taxonomy.cls(r.path).name});
    }
    emit(opts, os, rules, "placement -> path rules (first match wins)");
    return 0;
  }
  if (opts.action == "export") {
    const machine::MachineModel m = make_machine(opts);
    const obs::JsonValue doc = machine::to_json(m);
    if (opts.out_file.empty()) {
      doc.dump(os);
      os << "\n";
    } else {
      std::ofstream out(opts.out_file);
      if (!out) {
        throw std::runtime_error("machine export: cannot open " +
                                 opts.out_file);
      }
      doc.dump(out);
      out << "\n";
      os << "machine '" << m.name << "' written to " << opts.out_file << "\n";
    }
    return 0;
  }
  if (opts.action == "validate") {
    const machine::MachineModel m = make_machine(opts);
    m.validate();
    os << "machine '" << m.name << "' ("
       << m.params.taxonomy.num_classes() << " path classes): OK\n";
    return 0;
  }
  throw std::logic_error("unreachable machine action");
}

}  // namespace

int run(const Options& opts, std::ostream& os) {
  if (opts.command == "compare") return cmd_compare(opts, os);
  if (opts.command == "advise") return cmd_advise(opts, os);
  if (opts.command == "model") return cmd_model(opts, os);
  if (opts.command == "params") return cmd_params(opts, os);
  if (opts.command == "trace") return cmd_trace(opts, os);
  if (opts.command == "report") return cmd_report(opts, os);
  if (opts.command == "machine") return cmd_machine(opts, os);
  if (opts.command == "ranking-stability") {
    return cmd_ranking_stability(opts, os);
  }
  if (opts.command == "serve") return cmd_serve(opts, os);
  throw std::logic_error("unreachable command");
}

int main_guarded(const std::vector<std::string>& args, std::ostream& out,
                 std::ostream& err) {
  try {
    const Options opts = Options::parse(args);
    return run(opts, out);
  } catch (const std::invalid_argument& e) {
    // Usage / input errors: bad flags, unknown machines, malformed JSON.
    err << "hetcomm: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    // Simulation failures (FaultAbort and friends): still a structured
    // one-line diagnostic, but distinguishable from input errors.
    err << "hetcomm: " << e.what() << "\n";
    return 3;
  }
}

}  // namespace hetcomm::cli
