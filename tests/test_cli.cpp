#include "cli/cli.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/pattern_io.hpp"
#include "core/strategy.hpp"
#include "obs/json.hpp"

namespace hetcomm::cli {
namespace {

Options parse(std::initializer_list<const char*> args) {
  return Options::parse(std::vector<std::string>(args.begin(), args.end()));
}

TEST(CliParse, DefaultsAndFlags) {
  const Options opts = parse({"compare", "--machine", "summit", "--nodes",
                              "4", "--reps", "7", "--seed", "42", "--csv"});
  EXPECT_EQ(opts.command, "compare");
  EXPECT_EQ(opts.machine, "summit");
  EXPECT_EQ(opts.nodes, 4);
  EXPECT_EQ(opts.reps, 7);
  EXPECT_EQ(opts.seed, 42u);
  EXPECT_TRUE(opts.csv);
}

TEST(CliParse, JobsFlag) {
  EXPECT_EQ(parse({"compare"}).jobs, 0);  // default: hardware concurrency
  EXPECT_EQ(parse({"compare", "--jobs", "3"}).jobs, 3);
  EXPECT_THROW((void)parse({"compare", "--jobs"}), std::invalid_argument);
  EXPECT_THROW((void)parse({"compare", "--jobs", "-1"}), std::invalid_argument);
  EXPECT_THROW((void)parse({"compare", "--jobs", "two"}),
               std::invalid_argument);
}

TEST(CliParse, RejectsBadInput) {
  EXPECT_THROW((void)parse({}), std::invalid_argument);
  EXPECT_THROW((void)parse({"frobnicate"}), std::invalid_argument);
  EXPECT_THROW((void)parse({"compare", "--nodes"}), std::invalid_argument);
  EXPECT_THROW((void)parse({"compare", "--nodes", "abc"}), std::invalid_argument);
  EXPECT_THROW((void)parse({"compare", "--nodes", "0"}), std::invalid_argument);
  EXPECT_THROW((void)parse({"compare", "--bogus", "1"}), std::invalid_argument);
  EXPECT_THROW((void)parse({"compare", "--matrix", "a.mtx", "--standin", "ldoor"}),
               std::invalid_argument);
  // Every numeric flag takes the whole token and must fit its field: no
  // trailing garbage, no truncated fractions, no narrowing or wrap-around.
  for (const std::vector<std::string>& args :
       std::vector<std::vector<std::string>>{
           {"compare", "--nodes", "4294967298"},
           {"compare", "--nodes", "2x"},
           {"compare", "--reps", "1.9"},
           {"compare", "--jobs", "4294967296"},
           {"compare", "--seed", "-1"},
           {"compare", "--taper", "2x"},
           {"serve", "--trace-sample", "-1"},
           {"serve", "--max-queue", "9223372036854775808"}}) {
    EXPECT_THROW((void)Options::parse(args), std::invalid_argument)
        << args[1] << " " << args[2];
  }
}

TEST(CliParse, UsageMentionsAllCommands) {
  const std::string u = usage();
  for (const char* cmd :
       {"compare", "advise", "model", "params", "trace", "report"}) {
    EXPECT_NE(u.find(cmd), std::string::npos) << cmd;
  }
}

TEST(CliParse, MetricsFlag) {
  EXPECT_EQ(parse({"report"}).metrics_file, "");
  EXPECT_EQ(parse({"report", "--metrics", "out.json"}).metrics_file,
            "out.json");
  EXPECT_THROW((void)parse({"report", "--metrics"}), std::invalid_argument);
  EXPECT_THROW((void)parse({"report", "--metrics", ""}),
               std::invalid_argument);
}

TEST(CliMachine, PresetsResolve) {
  for (const char* machine :
       {"lassen", "summit", "frontier", "delta", "nvisland"}) {
    Options opts = parse({"params", "--machine", machine, "--nodes", "2"});
    const Topology topo = make_topology(opts);
    EXPECT_GE(topo.num_gpus(), 8) << machine;
    EXPECT_NO_THROW(make_params(opts));
  }
}

TEST(CliMachine, UnknownNameErrorsLoudlyEverywhere) {
  // One strict lookup for topology and params alike: no silent fallback to
  // the Lassen calibration anywhere.
  Options bad = parse({"params"});
  bad.machine = "cray1";
  EXPECT_THROW((void)make_topology(bad), std::invalid_argument);
  EXPECT_THROW((void)make_params(bad), std::invalid_argument);
  try {
    (void)make_machine(bad);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    // Usage-style message: names the bad machine and lists the presets.
    const std::string what = e.what();
    EXPECT_NE(what.find("cray1"), std::string::npos);
    EXPECT_NE(what.find("lassen"), std::string::npos);
  }
}

TEST(CliMachine, MachineFileResolvesThroughFlag) {
  const std::string path = ::testing::TempDir() + "/cli_machine.json";
  {
    std::ostringstream os;
    EXPECT_EQ(run(Options::parse({"machine", "export", "--machine",
                                  "nvisland", "--out", path}),
                  os),
              0);
  }
  Options opts = parse({"params", "--machine", path.c_str()});
  const ParamSet params = make_params(opts);
  EXPECT_EQ(params.taxonomy.num_classes(), 4);
  EXPECT_EQ(params.injection.nics_per_node, 2);
  std::remove(path.c_str());
}

TEST(CliWorkload, DefaultIsRandomPattern) {
  const Options opts = parse({"compare", "--nodes", "2"});
  const Topology topo = make_topology(opts);
  const core::CommPattern p = make_workload(opts, topo);
  EXPECT_GT(p.total_bytes(), 0);
  EXPECT_EQ(p.num_gpus(), topo.num_gpus());
}

TEST(CliWorkload, PatternFileMustMatchMachine) {
  const std::string path = ::testing::TempDir() + "/cli_pattern.pattern";
  core::CommPattern p(8);  // 2 Lassen nodes
  p.add(0, 4, 100);
  core::write_pattern_file(path, p);

  Options opts = parse({"compare", "--nodes", "2", "--pattern", path.c_str()});
  const Topology topo = make_topology(opts);
  EXPECT_EQ(make_workload(opts, topo).bytes(0, 4), 100);

  Options mismatched =
      parse({"compare", "--nodes", "4", "--pattern", path.c_str()});
  EXPECT_THROW((void)make_workload(mismatched, make_topology(mismatched)),
               std::invalid_argument);
}

TEST(CliWorkload, DedupAnnotationsMustFitTheMachine) {
  // Two Lassen nodes: GPU 0 sends 100 payload bytes to node 1.
  const std::string path = ::testing::TempDir() + "/cli_dedup.pattern";
  for (const char* dedup : {"dedup 0 1 1000000", "dedup 0 1 101",
                            "dedup 0 9 7", "dedup 0 1 100"}) {
    {
      std::ofstream f(path);
      f << "hetcomm-pattern v1\ngpus 8\nmsg 0 4 100 1\n" << dedup << "\n";
    }
    const Options opts =
        parse({"model", "--nodes", "2", "--pattern", path.c_str()});
    const Topology topo = make_topology(opts);
    if (std::string(dedup) == "dedup 0 1 100") {
      EXPECT_EQ(make_workload(opts, topo).node_dedup_bytes(0, 1), 100);
    } else {
      EXPECT_THROW((void)make_workload(opts, topo), std::invalid_argument)
          << dedup;
    }
  }
  std::remove(path.c_str());
}

class CliRunTest : public ::testing::Test {
 protected:
  std::string run_cli(std::initializer_list<const char*> args) {
    std::ostringstream os;
    EXPECT_EQ(run(Options::parse(
                      std::vector<std::string>(args.begin(), args.end())),
                  os),
              0);
    return os.str();
  }
};

TEST_F(CliRunTest, CompareListsAllStrategies) {
  const std::string out =
      run_cli({"compare", "--nodes", "2", "--reps", "2"});
  EXPECT_NE(out.find("split+MD"), std::string::npos);
  EXPECT_NE(out.find("3-step (device-aware)"), std::string::npos);
  EXPECT_NE(out.find("vs best"), std::string::npos);
}

TEST_F(CliRunTest, AdviseRanksEight) {
  const std::string out = run_cli({"advise", "--nodes", "4"});
  EXPECT_NE(out.find("predicted"), std::string::npos);
  EXPECT_NE(out.find("8"), std::string::npos);  // rank column reaches 8
}

TEST_F(CliRunTest, ModelPrintsTable7AndPredictions) {
  const std::string out = run_cli({"model", "--nodes", "2"});
  EXPECT_NE(out.find("s_node->node"), std::string::npos);
  EXPECT_NE(out.find("Table 6 model predictions"), std::string::npos);
}

TEST_F(CliRunTest, ModelPrintsSingleRailStripedVariantsAsAliases) {
  const auto row = [](const std::string& out, const std::string& name) {
    const std::size_t at = out.find("\n" + name + " ");
    return at == std::string::npos
               ? std::string()
               : out.substr(at + 1, out.find('\n', at + 1) - at - 1);
  };
  // Lassen has one NIC per node, so striping lowers to the base plan: the
  // row names its base instead of a prediction.
  const std::string lassen = run_cli({"model", "--nodes", "4"});
  const std::string aliased = row(lassen, "3-step (staged, striped)");
  EXPECT_NE(aliased.find("= 3-step (staged)"), std::string::npos) << aliased;
  EXPECT_EQ(aliased.find("e-"), std::string::npos) << aliased;
  // nvisland has two NICs per node: every striped variant is predicted.
  const std::string nvisland =
      run_cli({"model", "--machine", "nvisland", "--nodes", "4"});
  for (const char* name :
       {"3-step (staged, striped)", "3-step (device-aware, striped)",
        "2-step (staged, striped)", "standard (device-aware, striped)"}) {
    const std::string predicted = row(nvisland, name);
    EXPECT_NE(predicted.find("e-"), std::string::npos) << name;
    EXPECT_EQ(predicted.find("= "), std::string::npos) << predicted;
  }
}

TEST_F(CliRunTest, ParamsPrintsCalibration) {
  const std::string out = run_cli({"params"});
  EXPECT_NE(out.find("rendezvous"), std::string::npos);
  EXPECT_NE(out.find("R_N^-1"), std::string::npos);
}

TEST_F(CliRunTest, TraceEmitsGanttOrJson) {
  const std::string gantt = run_cli(
      {"trace", "--nodes", "2", "--strategy", "3-step (staged)"});
  EXPECT_NE(gantt.find("timeline horizon"), std::string::npos);
  const std::string json = run_cli(
      {"trace", "--nodes", "2", "--strategy", "split+MD", "--csv"});
  EXPECT_NE(json.find("traceEvents"), std::string::npos);
}

TEST_F(CliRunTest, TaperedFabricRuns) {
  const std::string out = run_cli(
      {"compare", "--nodes", "4", "--reps", "2", "--taper", "4"});
  EXPECT_NE(out.find("strategy"), std::string::npos);
}

TEST_F(CliRunTest, StandinWorkload) {
  const std::string out = run_cli({"model", "--nodes", "2", "--standin",
                                   "thermal2", "--gpus", "8"});
  EXPECT_NE(out.find("s_proc"), std::string::npos);
}

TEST_F(CliRunTest, ReportPrintsPhaseBreakdown) {
  const std::string out = run_cli({"report", "--nodes", "2", "--reps", "3",
                                   "--strategy", "split+MD"});
  EXPECT_NE(out.find("phase breakdown (measured)"), std::string::npos);
  // One time column per phase: the breakdown is repetition 0's.
  EXPECT_NE(out.find("phase  time [s]  share"), std::string::npos);
  EXPECT_NE(out.find("traffic by path class"), std::string::npos);
  EXPECT_NE(out.find("contention by resource"), std::string::npos);
  EXPECT_NE(out.find("makespan mean"), std::string::npos);
  EXPECT_NE(out.find("send-port"), std::string::npos);
}

TEST_F(CliRunTest, ReportWritesMetricsFile) {
  const std::string path =
      ::testing::TempDir() + "hetcomm_cli_metrics_test.json";
  const std::string out =
      run_cli({"report", "--nodes", "2", "--reps", "3", "--strategy",
               "split+MD", "--metrics", path.c_str()});
  EXPECT_NE(out.find("metrics report written"), std::string::npos);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  const obs::JsonValue doc = obs::JsonValue::parse(buf.str());
  EXPECT_EQ(doc.at("schema").as_string(), "hetcomm.metrics.v1");
  ASSERT_EQ(doc.at("reports").size(), 1u);
  const obs::JsonValue& report = doc.at("reports").at(std::size_t{0});
  EXPECT_NE(report.at("name").as_string().find("split+MD"),
            std::string::npos);
  EXPECT_EQ(report.at("reps").as_int(), 3);
  std::remove(path.c_str());
}

TEST_F(CliRunTest, MachineListNamesEveryPreset) {
  const std::string out = run_cli({"machine", "list"});
  for (const char* name :
       {"lassen", "summit", "frontier", "delta", "nvisland"}) {
    EXPECT_NE(out.find(name), std::string::npos) << name;
  }
}

TEST_F(CliRunTest, MachineDescribeShowsTaxonomy) {
  const std::string out =
      run_cli({"machine", "describe", "--machine", "nvisland"});
  EXPECT_NE(out.find("nvlink-peer"), std::string::npos);
  EXPECT_NE(out.find("first match wins"), std::string::npos);
  EXPECT_NE(out.find("2 lane(s) per node"), std::string::npos);
  // Per-path-class rail topology: off-node classes show the rail fan-out
  // and stripe eligibility, on-node classes show the port pair.
  EXPECT_NE(out.find("rail/lane topology"), std::string::npos);
  EXPECT_NE(out.find("socket%2"), std::string::npos);
  EXPECT_NE(out.find("port pair (no NIC)"), std::string::npos);
  EXPECT_NE(out.find("rendezvous msgs"), std::string::npos);
}

TEST_F(CliRunTest, MachineValidateAcceptsPresets) {
  const std::string out =
      run_cli({"machine", "validate", "--machine", "summit"});
  EXPECT_NE(out.find("OK"), std::string::npos);
}

TEST_F(CliRunTest, MachineExportRoundTripsThroughCompare) {
  const std::string path = ::testing::TempDir() + "/cli_export.json";
  run_cli(
      {"machine", "export", "--machine", "lassen", "--out", path.c_str()});
  const std::string a = run_cli({"compare", "--nodes", "2", "--reps", "2"});
  const std::string b = run_cli(
      {"compare", "--nodes", "2", "--reps", "2", "--machine", path.c_str()});
  // Identical rankings and clocks; only the machine label differs.
  EXPECT_EQ(a.substr(a.find('\n')), b.substr(b.find('\n')));
  std::remove(path.c_str());
}

TEST_F(CliRunTest, MachineActionIsValidated) {
  EXPECT_THROW((void)Options::parse({"machine"}), std::invalid_argument);
  EXPECT_THROW((void)Options::parse({"machine", "frobnicate"}),
               std::invalid_argument);
}

TEST(CliParse, FaultFlags) {
  EXPECT_EQ(parse({"compare"}).faults_file, "");
  EXPECT_EQ(parse({"compare", "--faults", "f.json"}).faults_file, "f.json");
  EXPECT_EQ(parse({"ranking-stability"}).fault_seeds, 4);
  EXPECT_EQ(parse({"ranking-stability", "--fault-seeds", "7"}).fault_seeds, 7);
  EXPECT_THROW((void)parse({"compare", "--faults"}), std::invalid_argument);
  EXPECT_THROW((void)parse({"compare", "--faults", ""}),
               std::invalid_argument);
  EXPECT_THROW((void)parse({"ranking-stability", "--fault-seeds", "0"}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Exit-code contract: every subcommand returns 0 on success, 2 on
// usage/input errors, and 3 with a one-line stderr diagnostic on
// simulation failures -- never an abort.  main_guarded is exactly what the
// hetcomm binary's main() runs.

class CliExitCodeTest : public ::testing::Test {
 protected:
  int guarded(std::initializer_list<const char*> args) {
    out_.str("");
    err_.str("");
    return main_guarded(
        std::vector<std::string>(args.begin(), args.end()), out_, err_);
  }

  /// Write a fault plan that loses every off-node message attempt.
  std::string write_fatal_plan() {
    const std::string path = ::testing::TempDir() + "/cli_fatal_faults.json";
    std::ofstream f(path);
    f << "{\"schema\": \"hetcomm.fault.v1\", \"name\": \"fatal\",\n"
         " \"message_loss\": [{\"path\": \"off-node\", \"probability\": 1.0,\n"
         "   \"retry\": {\"max_attempts\": 2}}]}\n";
    return path;
  }

  /// Write a mild degradation plan every machine can run to completion.
  std::string write_mild_plan() {
    const std::string path = ::testing::TempDir() + "/cli_mild_faults.json";
    std::ofstream f(path);
    f << "{\"schema\": \"hetcomm.fault.v1\", \"name\": \"mild\", \"seed\": 5,\n"
         " \"link_degradations\": [{\"path\": \"off-node\",\n"
         "   \"alpha_factor\": 1.5, \"beta_factor\": 2.0}]}\n";
    return path;
  }

  std::ostringstream out_;
  std::ostringstream err_;
};

TEST_F(CliExitCodeTest, SuccessReturnsZero) {
  EXPECT_EQ(guarded({"machine", "validate", "--machine", "lassen"}), 0);
  EXPECT_EQ(guarded({"machine", "list"}), 0);
  EXPECT_EQ(guarded({"report", "--nodes", "2", "--reps", "2", "--jobs", "1",
                     "--strategy", "split+MD"}),
            0);
  const std::string mild = write_mild_plan();
  EXPECT_EQ(guarded({"compare", "--nodes", "2", "--reps", "2", "--jobs", "1",
                     "--faults", mild.c_str()}),
            0);
  std::remove(mild.c_str());
}

TEST_F(CliExitCodeTest, UsageAndInputErrorsReturnTwo) {
  EXPECT_EQ(guarded({}), 2);
  EXPECT_EQ(guarded({"frobnicate"}), 2);
  EXPECT_EQ(guarded({"compare", "--bogus"}), 2);
  EXPECT_EQ(guarded({"compare", "--machine", "cray1"}), 2);
  EXPECT_EQ(guarded({"machine", "validate", "--machine", "cray1"}), 2);
  EXPECT_EQ(guarded({"report", "--faults", "/nonexistent/faults.json"}), 2);
  EXPECT_EQ(guarded({"ranking-stability", "--nodes", "2"}), 2)
      << "ranking-stability requires --faults";
  // Every failure leaves a one-line "hetcomm: ..." diagnostic on stderr.
  EXPECT_NE(err_.str().find("hetcomm: "), std::string::npos);
}

TEST_F(CliExitCodeTest, FaultsOnModesThatWouldIgnoreThemReturnTwo) {
  // These modes never read --faults, so they refuse it before opening the
  // file: a missing file gives the same answer as a valid one.
  const std::string mild = write_mild_plan();
  for (const char* plan : {mild.c_str(), "/nonexistent/faults.json"}) {
    const std::vector<std::vector<const char*>> modes = {
        {"model", "--nodes", "2"},   {"advise", "--nodes", "2"},
        {"params"},                  {"machine", "describe"},
        {"serve", "--nodes", "2"},   {"trace", "report", "--in", "t.json"},
        {"trace", "export", "--in", "t.json"}};
    for (const std::vector<const char*>& mode : modes) {
      std::vector<std::string> args(mode.begin(), mode.end());
      args.push_back("--faults");
      args.push_back(plan);
      out_.str("");
      err_.str("");
      EXPECT_EQ(main_guarded(args, out_, err_), 2) << args[0] << " " << plan;
      const std::string err = err_.str();
      EXPECT_EQ(err.rfind("hetcomm: --faults applies to compare, trace, "
                          "report and ranking-stability, not " +
                              std::string(mode[0]),
                          0),
                0u)
          << err;
      EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 1) << err;
    }
  }
  std::remove(mild.c_str());
}

TEST_F(CliExitCodeTest, ContradictoryDedupReturnsTwo) {
  const std::string path = ::testing::TempDir() + "/cli_bad_dedup.pattern";
  {
    std::ofstream f(path);
    f << "hetcomm-pattern v1\ngpus 8\nmsg 0 4 100 1\n"
         "dedup 0 1 1000000\ndedup 0 9 7\n";
  }
  EXPECT_EQ(guarded({"model", "--nodes", "2", "--pattern", path.c_str()}), 2);
  EXPECT_NE(err_.str().find("dedup annotation"), std::string::npos)
      << err_.str();
  std::remove(path.c_str());
}

TEST_F(CliExitCodeTest, SimulationFailureReturnsThreeWithMessage) {
  const std::string fatal = write_fatal_plan();
  EXPECT_EQ(guarded({"report", "--nodes", "2", "--reps", "2", "--jobs", "1",
                     "--strategy", "standard", "--faults", fatal.c_str()}),
            3);
  const std::string what = err_.str();
  EXPECT_NE(what.find("hetcomm: "), std::string::npos) << what;
  EXPECT_NE(what.find("attempt"), std::string::npos)
      << "diagnostic must carry the structured abort context: " << what;
  EXPECT_NE(what.find("off-node"), std::string::npos) << what;
  std::remove(fatal.c_str());
}

TEST_F(CliExitCodeTest, RankingStabilityEmitsValidatedReport) {
  const std::string mild = write_mild_plan();
  const std::string report_path =
      ::testing::TempDir() + "/cli_stability.json";
  EXPECT_EQ(guarded({"ranking-stability", "--nodes", "2", "--reps", "2",
                     "--jobs", "1", "--fault-seeds", "2", "--faults",
                     mild.c_str(), "--out", report_path.c_str()}),
            0);
  EXPECT_NE(out_.str().find("winner survived"), std::string::npos);
  EXPECT_NE(out_.str().find("nominal winner"), std::string::npos);

  std::ifstream in(report_path);
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  const obs::JsonValue doc = obs::JsonValue::parse(buf.str());
  EXPECT_EQ(doc.at("schema").as_string(), "hetcomm.stability.v1");
  EXPECT_EQ(doc.at("instances").as_int(), 2);
  EXPECT_EQ(doc.at("results").size(), 2u);
  EXPECT_EQ(doc.at("nominal").at("outcomes").size(),
            core::all_strategies().size());
  std::remove(report_path.c_str());
  std::remove(mild.c_str());
}

}  // namespace
}  // namespace hetcomm::cli
