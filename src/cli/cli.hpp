#pragma once
// hetcomm command-line interface (library part, testable without a process).
//
// Subcommands:
//   compare  run every strategy on a pattern/matrix and print the ranking
//   advise   model-driven recommendation without simulation
//   model    print the Table 6 model decomposition for a pattern
//   params   print a machine's calibrated parameter set
//   trace    execute one strategy and dump a Chrome-tracing JSON / Gantt;
//            `trace report --in T.json` prints the span-tree breakdown of
//            a hetcomm.trace.v1 artifact (top-k slowest requests) and
//            `trace export --in T.json` converts one to Chrome/Perfetto
//            trace-event JSON (see docs/tracing.md)
//   report   measure one strategy with metrics and print the per-phase /
//            per-path / contention breakdown (optionally write the
//            hetcomm.metrics.v1 JSON with --metrics FILE)
//   machine  list/describe/export/validate machine descriptions
//            (hetcomm.machine.v1, see docs/machines.md)
//   ranking-stability
//            sweep a fault-plan ensemble (--faults, --fault-seeds) across
//            every Table 5 strategy and report how often the nominal
//            winner survives (hetcomm.stability.v1 with --out FILE; see
//            docs/faults.md)
//   serve    persistent strategy-advisor service: NDJSON requests on
//            stdin/stdout or a unix socket (--socket), with a sharded
//            compiled-plan cache and windowed request execution (see
//            docs/serve.md; --metrics FILE writes the serve artifact on
//            exit)
//
// Common flags:
//   --machine NAME|FILE.json                 (default lassen; presets:
//                                            lassen summit frontier delta
//                                            nvisland)
//   --nodes N                                (default 8)
//   --pattern FILE.pattern | --matrix FILE.mtx | --standin NAME
//   --gpus N          partition width for matrix inputs (default all GPUs)
//   --strategy NAME   (trace, report; names per StrategyConfig::name())
//   --taper T         attach a tapered fat-tree fabric
//   --jobs N          sweep/measure worker threads (default: hardware)
//   --metrics FILE    (report) also write the JSON run report
//   --faults FILE.json  attach a hetcomm.fault.v1 degradation plan
//                       (compare, trace, report, ranking-stability)
//   --fault-seeds N   (ranking-stability) ensemble size (default 4)
//   --trace FILE      (serve, report) write the hetcomm.trace.v1 span
//                     artifact on exit; --trace-sample N keeps every Nth
//                     trace
//   --in FILE         (trace report/export) the artifact to inspect
//   --top K           (trace report) slowest span trees to print
//   --reps N  --seed S  --csv

#include <iosfwd>
#include <string>
#include <vector>

#include "core/comm_pattern.hpp"
#include "hetsim/params.hpp"
#include "hetsim/topology.hpp"
#include "machine/machine.hpp"

namespace hetcomm::cli {

struct Options {
  std::string command;
  std::string action;  ///< `machine`/`trace` action (list/.../report/export)
  std::string machine = "lassen";
  std::string out_file;  ///< `machine export`: output path ("" = stdout)
  int nodes = 8;
  std::string pattern_file;
  std::string matrix_file;
  std::string standin;
  int gpus = 0;  ///< 0 = all GPUs of the machine
  std::string strategy = "split+MD";
  double taper = 0.0;  ///< 0 = no fabric
  int reps = 15;
  int jobs = 0;        ///< worker threads; 0 = hardware concurrency
  std::uint64_t seed = 1;
  bool csv = false;
  std::string metrics_file;  ///< report/serve: also write the JSON metrics
  std::string faults_file;   ///< hetcomm.fault.v1 plan ("" = unfaulted)
  int fault_seeds = 4;       ///< ranking-stability: ensemble size
  std::string socket_path;   ///< serve: unix socket ("" = stdin/stdout)
  int window = 64;           ///< serve: max requests per batch window
  std::int64_t cache_entries = 256;  ///< serve: plan cache capacity (0 = off)
  int cache_shards = 8;      ///< serve: plan cache shards
  std::int64_t max_requests = 0;  ///< serve: stop after N requests (0 = inf)
  std::int64_t max_queue = 0;  ///< serve: pending-queue bound (0 = unbounded)
  std::string shed_policy = "reject";  ///< serve: reject | degrade
  std::int64_t default_deadline = 0;  ///< serve: default deadline_ms (0 = off)
  std::string trace_file;    ///< serve/report: write hetcomm.trace.v1 spans
  std::uint64_t trace_sample = 1;  ///< keep every Nth trace (1 = all)
  std::string in_file;       ///< `trace report`/`trace export`: input artifact
  int top = 10;              ///< `trace report`: slowest span trees shown

  /// Parse argv (excluding the program name).  Throws std::invalid_argument
  /// with a usage-style message on errors.
  static Options parse(const std::vector<std::string>& args);
};

/// Resolve --machine: a preset name or a hetcomm.machine.v1 JSON file.
/// The single machine lookup every subcommand shares; unknown names throw
/// std::invalid_argument (the hetcomm binary exits 2 with the message).
[[nodiscard]] machine::MachineModel make_machine(const Options& opts);

/// Convenience projections of make_machine (kept for callers that only
/// need one half; both resolve through the same strict lookup).
[[nodiscard]] Topology make_topology(const Options& opts);
[[nodiscard]] ParamSet make_params(const Options& opts);

/// Load/generate the workload pattern per the options (exactly one of
/// --pattern / --matrix / --standin; --standin also accepts the six
/// Figure 5.1 names).  Defaults to a random pattern when none is given.
[[nodiscard]] core::CommPattern make_workload(const Options& opts,
                                              const Topology& topo);

/// Execute the requested subcommand, writing human/CSV output to `os`.
/// Returns a process exit code.
int run(const Options& opts, std::ostream& os);

/// Usage text.
[[nodiscard]] std::string usage();

/// The hetcomm process entry point with the exit-code contract applied:
/// 0 on success, 2 on usage/input errors (std::invalid_argument), 3 on
/// simulation failures (any other std::exception, including FaultAbort) --
/// always with a one-line "hetcomm: ..." diagnostic on `err`, never an
/// abort.  The binary's main() is a thin wrapper; tests drive this
/// directly.
int main_guarded(const std::vector<std::string>& args, std::ostream& out,
                 std::ostream& err);

}  // namespace hetcomm::cli
