// Golden simulated results.  Every strategy's max_avg and makespan
// mean/min/max on two small fixtures are pinned as hex-float literals, and
// each engine path must reproduce them bit for bit: the compiled engine at
// one and at four workers and the interpreted engine, unfaulted and under
// faults/lossy_fabric.json (link degradation and loss), and on nvisland
// also under faults/degraded_rail.json (a NIC outage with failover, NIC
// degradation and a straggler; it needs a second NIC lane, which lassen
// lacks).  The compiled==interpreted and kernel==scalar checks elsewhere
// cannot see a change that both engines share (the noise draw, the transfer
// step, the schedule order); these literals can.
//
// A deliberate change to simulated results re-records the table: a failing
// run prints every row it computed in the table's own syntax.

#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "core/executor.hpp"
#include "core/strategy.hpp"
#include "fault/fault_json.hpp"
#include "hetsim/faults.hpp"
#include "machine/machine_json.hpp"
#include "sparse/comm_graph.hpp"
#include "sparse/partition.hpp"
#include "sparse/suitesparse_profiles.hpp"

namespace hetcomm {
namespace {

struct Golden {
  const char* machine;
  const char* faults;  ///< fault plan under faults/ ("" = none)
  const char* strategy;
  double max_avg;
  double makespan_mean;
  double makespan_min;
  double makespan_max;
};

// Recorded with the audikw_1 stand-in at scale 0.005 (matrix seed 1),
// 800 bytes per value, 50 repetitions at seed 2024 and sigma 0.02.
constexpr Golden kGolden[] = {
    {"lassen", "", "standard (staged)",
     0x1.c8852435da0fbp-14, 0x1.c8852435da0fbp-14, 0x1.c46993bf1a9ep-14,
     0x1.ce43c0fab57d9p-14},
    {"lassen", "", "standard (device-aware)",
     0x1.85302f1e1c677p-13, 0x1.853afcfcfe395p-13, 0x1.84c9a3ae8da01p-13,
     0x1.86549ac57007ap-13},
    {"lassen", "", "3-step (staged)",
     0x1.f9c0378ff2c1bp-14, 0x1.f9c0378ff2c1bp-14, 0x1.f0a8a4340aed1p-14,
     0x1.003b62cfc233dp-13},
    {"lassen", "", "3-step (device-aware)",
     0x1.790d272761c51p-13, 0x1.794dc0c9a9eb1p-13, 0x1.76a3c0da3ce7fp-13,
     0x1.7d71d0b83736fp-13},
    {"lassen", "", "2-step (staged)",
     0x1.f08df1b0d36dfp-14, 0x1.f08df1b0d36dfp-14, 0x1.d847db3c8973dp-14,
     0x1.fd90da76427dcp-14},
    {"lassen", "", "2-step (device-aware)",
     0x1.5313d8daa2ee3p-13, 0x1.552b1faa3f9ap-13, 0x1.4c12663774d1ap-13,
     0x1.5b67a03c4d53ep-13},
    {"lassen", "", "split+MD",
     0x1.bf34e924a883fp-14, 0x1.cad01acd14cbbp-14, 0x1.b79ae86e325abp-14,
     0x1.e380069be5347p-14},
    {"lassen", "", "split+DD",
     0x1.a2d03805d3dbep-13, 0x1.a2d22651ae747p-13, 0x1.9e57ee89aae18p-13,
     0x1.a68ada66ec607p-13},
    {"lassen", "", "3-step (staged, striped)",
     0x1.f9c0378ff2c1bp-14, 0x1.f9c0378ff2c1bp-14, 0x1.f0a8a4340aed1p-14,
     0x1.003b62cfc233dp-13},
    {"lassen", "", "3-step (device-aware, striped)",
     0x1.790d272761c51p-13, 0x1.794dc0c9a9eb1p-13, 0x1.76a3c0da3ce7fp-13,
     0x1.7d71d0b83736fp-13},
    {"lassen", "", "2-step (staged, striped)",
     0x1.f08df1b0d36dfp-14, 0x1.f08df1b0d36dfp-14, 0x1.d847db3c8973dp-14,
     0x1.fd90da76427dcp-14},
    {"lassen", "", "standard (device-aware, striped)",
     0x1.85302f1e1c677p-13, 0x1.853afcfcfe395p-13, 0x1.84c9a3ae8da01p-13,
     0x1.86549ac57007ap-13},
    {"lassen", "", "standard (staged, chunked-pipeline)",
     0x1.325bb37d9285dp-13, 0x1.3339058d86fa4p-13, 0x1.30d94495d5b04p-13,
     0x1.367aa4a5a12cp-13},
    {"lassen", "", "2-step (staged, chunked-pipeline)",
     0x1.6f59aa4158a6ap-13, 0x1.7048fe9ef4893p-13, 0x1.60d4d247a686dp-13,
     0x1.793023aa3904bp-13},
    {"lassen", "lossy_fabric", "standard (staged)",
     0x1.6a2f1ce309c24p-12, 0x1.6a2f1ce309c24p-12, 0x1.8e0196b16f08ep-13,
     0x1.3892f8960b8f3p-11},
    {"lassen", "lossy_fabric", "standard (device-aware)",
     0x1.b3d989847c283p-12, 0x1.b3e4bc4a6f84ep-12, 0x1.1a71e1bdcc5e2p-12,
     0x1.6777eb36c18f4p-11},
    {"lassen", "lossy_fabric", "3-step (staged)",
     0x1.a25bfbe53a7dfp-13, 0x1.a80602f38e05fp-13, 0x1.237326f9f4296p-13,
     0x1.0638908af53c8p-11},
    {"lassen", "lossy_fabric", "3-step (device-aware)",
     0x1.24bf3f2e2087fp-12, 0x1.289e74d596c69p-12, 0x1.bcb74af62321ap-13,
     0x1.0043ca11dc1d6p-11},
    {"lassen", "lossy_fabric", "2-step (staged)",
     0x1.13818f3773484p-12, 0x1.13818f3773484p-12, 0x1.208c4f181ae26p-13,
     0x1.504657532dbb7p-11},
    {"lassen", "lossy_fabric", "2-step (device-aware)",
     0x1.59de8cb51c58cp-12, 0x1.59de8cb51c58cp-12, 0x1.a8dc712559582p-13,
     0x1.7a2939db99362p-11},
    {"lassen", "lossy_fabric", "split+MD",
     0x1.20a8561807735p-12, 0x1.44401a00d51e4p-12, 0x1.f1aa86446d07ap-14,
     0x1.bafa54ae23f07p-11},
    {"lassen", "lossy_fabric", "split+DD",
     0x1.7f12fc3a8cc78p-12, 0x1.88dcabef5023p-12, 0x1.bcabd0da8d5fcp-13,
     0x1.6c938b0c10fcdp-11},
    {"lassen", "lossy_fabric", "3-step (staged, striped)",
     0x1.a25bfbe53a7dfp-13, 0x1.a80602f38e05fp-13, 0x1.237326f9f4296p-13,
     0x1.0638908af53c8p-11},
    {"lassen", "lossy_fabric", "3-step (device-aware, striped)",
     0x1.24bf3f2e2087fp-12, 0x1.289e74d596c69p-12, 0x1.bcb74af62321ap-13,
     0x1.0043ca11dc1d6p-11},
    {"lassen", "lossy_fabric", "2-step (staged, striped)",
     0x1.13818f3773484p-12, 0x1.13818f3773484p-12, 0x1.208c4f181ae26p-13,
     0x1.504657532dbb7p-11},
    {"lassen", "lossy_fabric", "standard (device-aware, striped)",
     0x1.b3d989847c283p-12, 0x1.b3e4bc4a6f84ep-12, 0x1.1a71e1bdcc5e2p-12,
     0x1.6777eb36c18f4p-11},
    {"lassen", "lossy_fabric", "standard (staged, chunked-pipeline)",
     0x1.3bed8d6a68487p-11, 0x1.50bb7b593e93ep-11, 0x1.764b4698719b9p-12,
     0x1.52fe3bda72f3fp-10},
    {"lassen", "lossy_fabric", "2-step (staged, chunked-pipeline)",
     0x1.18405fec78de2p-11, 0x1.2021a41eb0158p-11, 0x1.401b64a58a428p-12,
     0x1.3e4896afa9a5cp-10},
    {"nvisland", "", "standard (staged)",
     0x1.0aea5ef1330abp-14, 0x1.0aebc0298420fp-14, 0x1.0592a1b88cbcdp-14,
     0x1.1cb178d42a5a1p-14},
    {"nvisland", "", "standard (device-aware)",
     0x1.0bf16a2b97c9ep-14, 0x1.0bf16a2b97c9ep-14, 0x1.08c7903c2b54bp-14,
     0x1.0ef1b805b23f3p-14},
    {"nvisland", "", "3-step (staged)",
     0x1.74e2ce8737a4dp-14, 0x1.757aeee02780cp-14, 0x1.6dfde1e212fbap-14,
     0x1.7c6a8c6948c3fp-14},
    {"nvisland", "", "3-step (device-aware)",
     0x1.4608bf11711b1p-14, 0x1.4608bf11711b1p-14, 0x1.3d04de8aa3146p-14,
     0x1.4ee4c68a41f16p-14},
    {"nvisland", "", "2-step (staged)",
     0x1.1ab2556901c32p-14, 0x1.1ab2556901c32p-14, 0x1.146a499121438p-14,
     0x1.273b100145b1fp-14},
    {"nvisland", "", "2-step (device-aware)",
     0x1.75b80b6aa8d41p-15, 0x1.75b80b6aa8d41p-15, 0x1.6eead9b3d1bddp-15,
     0x1.7cc28c8dd907ep-15},
    {"nvisland", "", "split+MD",
     0x1.be470bc74d86p-14, 0x1.bf30e5a7568edp-14, 0x1.b4cd88020a90dp-14,
     0x1.d131887eb592ep-14},
    {"nvisland", "", "split+DD",
     0x1.54b541c751003p-13, 0x1.54b6302ccb536p-13, 0x1.503fc4c0e6fb6p-13,
     0x1.5fc1198317f0bp-13},
    {"nvisland", "", "3-step (staged, striped)",
     0x1.9642944d07e9ap-14, 0x1.96ef1b0e4cbc7p-14, 0x1.9142ab9c53b71p-14,
     0x1.9c641074200e6p-14},
    {"nvisland", "", "3-step (device-aware, striped)",
     0x1.73921860dbdecp-14, 0x1.73921860dbdecp-14, 0x1.6ea83bb8c0aa6p-14,
     0x1.787eec409cc0dp-14},
    {"nvisland", "", "2-step (staged, striped)",
     0x1.3b652633b39e1p-14, 0x1.3b652633b39e1p-14, 0x1.3588b725419dp-14,
     0x1.46d0a907a161ep-14},
    {"nvisland", "", "standard (device-aware, striped)",
     0x1.6a2f9c3e2077fp-14, 0x1.6a2f9c3e2077fp-14, 0x1.676eb033433ap-14,
     0x1.6d3e968aab106p-14},
    {"nvisland", "", "standard (staged, chunked-pipeline)",
     0x1.32d2f0b94f31fp-13, 0x1.3312172eb1211p-13, 0x1.2fa569021fa52p-13,
     0x1.36ae5dbeee7afp-13},
    {"nvisland", "", "2-step (staged, chunked-pipeline)",
     0x1.d9c9215d17663p-14, 0x1.d9c9215d17663p-14, 0x1.c6eb4b077e0bcp-14,
     0x1.e4a3060070a09p-14},
    {"nvisland", "lossy_fabric", "standard (staged)",
     0x1.2194c5cb32549p-13, 0x1.2b342f7ea4128p-13, 0x1.7fc72c6ae9012p-14,
     0x1.b82fee716b9a7p-12},
    {"nvisland", "lossy_fabric", "standard (device-aware)",
     0x1.9dc0b77aa633ap-13, 0x1.9dc3c225cc29p-13, 0x1.30061e7f90234p-13,
     0x1.5ae6b5b0d2432p-11},
    {"nvisland", "lossy_fabric", "3-step (staged)",
     0x1.2c5f2f87b15a1p-13, 0x1.2cc52586e60dap-13, 0x1.01a3b5558ef28p-13,
     0x1.2ccf4593887acp-12},
    {"nvisland", "lossy_fabric", "3-step (device-aware)",
     0x1.6a07c22d25725p-13, 0x1.6a07c22d25725p-13, 0x1.37730d093bc29p-13,
     0x1.92e7d80c94779p-12},
    {"nvisland", "lossy_fabric", "2-step (staged)",
     0x1.e1230e56d01a5p-14, 0x1.e1230e56d01a5p-14, 0x1.59cca49725422p-14,
     0x1.c6a1676bb4be3p-13},
    {"nvisland", "lossy_fabric", "2-step (device-aware)",
     0x1.cfb94f41921eap-14, 0x1.cfec368224d41p-14, 0x1.4a3d40ee87b9dp-14,
     0x1.c2be10d65921bp-13},
    {"nvisland", "lossy_fabric", "split+MD",
     0x1.d4338b58b4d21p-13, 0x1.ee0381cb3df9ap-13, 0x1.f03877c5f7118p-14,
     0x1.39d635a527a61p-11},
    {"nvisland", "lossy_fabric", "split+DD",
     0x1.1e5e227d90d43p-12, 0x1.20b861234297cp-12, 0x1.6ba11f5a0c6f1p-13,
     0x1.407ada7057bddp-11},
    {"nvisland", "lossy_fabric", "3-step (staged, striped)",
     0x1.68b1f295da0eap-13, 0x1.68feec4d955cp-13, 0x1.1c2c95e895426p-13,
     0x1.53b33afacce3ap-11},
    {"nvisland", "lossy_fabric", "3-step (device-aware, striped)",
     0x1.adfc3018cb95bp-13, 0x1.adfc3018cb95bp-13, 0x1.5fc37df9b0d81p-13,
     0x1.980ebe9714978p-11},
    {"nvisland", "lossy_fabric", "2-step (staged, striped)",
     0x1.3b05c610e065ap-13, 0x1.3b05c610e065ap-13, 0x1.8e2fc53768bb3p-14,
     0x1.be918bbb2bdfep-12},
    {"nvisland", "lossy_fabric", "standard (device-aware, striped)",
     0x1.03ef88ce1083bp-12, 0x1.03f325fe11618p-12, 0x1.77f48f4fa6f01p-13,
     0x1.17742db245335p-11},
    {"nvisland", "lossy_fabric", "standard (staged, chunked-pipeline)",
     0x1.462f6ab72bda5p-12, 0x1.5e4dc03229631p-12, 0x1.d3929df7fefabp-13,
     0x1.61a34a54d987ap-11},
    {"nvisland", "lossy_fabric", "2-step (staged, chunked-pipeline)",
     0x1.c51ab971cabb6p-13, 0x1.c51ab971cabb6p-13, 0x1.25393e022912bp-13,
     0x1.d6f34cf95d55bp-12},
    {"nvisland", "degraded_rail", "standard (staged)",
     0x1.6e45def00a171p-14, 0x1.6e45def00a171p-14, 0x1.6887fc6fb2bd4p-14,
     0x1.742745fde11e3p-14},
    {"nvisland", "degraded_rail", "standard (device-aware)",
     0x1.0bf16a2b97c9ep-14, 0x1.0bf16a2b97c9ep-14, 0x1.08c7903c2b54bp-14,
     0x1.0ef1b805b23f3p-14},
    {"nvisland", "degraded_rail", "3-step (staged)",
     0x1.9fb4308ee231cp-14, 0x1.9fb4308ee231cp-14, 0x1.9937468046aeap-14,
     0x1.a76f63495b582p-14},
    {"nvisland", "degraded_rail", "3-step (device-aware)",
     0x1.4608bf11711b1p-14, 0x1.4608bf11711b1p-14, 0x1.3d04de8aa3146p-14,
     0x1.4ee4c68a41f16p-14},
    {"nvisland", "degraded_rail", "2-step (staged)",
     0x1.6630f0e0a564ap-14, 0x1.6630f0e0a564ap-14, 0x1.5e160bdcd4546p-14,
     0x1.6c61d4b32e7bep-14},
    {"nvisland", "degraded_rail", "2-step (device-aware)",
     0x1.6d6d98072a9b7p-15, 0x1.6d7df3eda2417p-15, 0x1.68010c679530fp-15,
     0x1.7790f2bbd29d3p-15},
    {"nvisland", "degraded_rail", "split+MD",
     0x1.00c080388e346p-13, 0x1.00c080388e346p-13, 0x1.f8004ae83634cp-14,
     0x1.0ade8676e2c6fp-13},
    {"nvisland", "degraded_rail", "split+DD",
     0x1.a92ffbd3ca971p-13, 0x1.a92ffbd3ca971p-13, 0x1.a03a91d2a92a5p-13,
     0x1.b6b013ff4f3ebp-13},
    {"nvisland", "degraded_rail", "3-step (staged, striped)",
     0x1.c182c3767ef15p-14, 0x1.c182c3767ef15p-14, 0x1.ba7116ffc18e2p-14,
     0x1.c91a6b7a53a2cp-14},
    {"nvisland", "degraded_rail", "3-step (device-aware, striped)",
     0x1.73921860dbdecp-14, 0x1.73921860dbdecp-14, 0x1.6ea83bb8c0aa6p-14,
     0x1.787eec409cc0dp-14},
    {"nvisland", "degraded_rail", "2-step (staged, striped)",
     0x1.88f75ee001877p-14, 0x1.88f75ee001877p-14, 0x1.8101756ff574bp-14,
     0x1.8e4c5ea4a247bp-14},
    {"nvisland", "degraded_rail", "standard (device-aware, striped)",
     0x1.6a2f9c3e2077fp-14, 0x1.6a2f9c3e2077fp-14, 0x1.676eb033433ap-14,
     0x1.6d3e968aab106p-14},
    {"nvisland", "degraded_rail", "standard (staged, chunked-pipeline)",
     0x1.32d2f0b94f31fp-13, 0x1.3312172eb1211p-13, 0x1.2fa569021fa52p-13,
     0x1.36ae5dbeee7afp-13},
    {"nvisland", "degraded_rail", "2-step (staged, chunked-pipeline)",
     0x1.07293776c4908p-13, 0x1.07293776c4908p-13, 0x1.0258b262a536ep-13,
     0x1.0a94ded5f1982p-13},
};

struct Case {
  const char* machine;
  int nodes;
  const char* faults;  ///< fault plan under faults/ ("" = none)
};
constexpr Case kCases[] = {{"lassen", 4, ""},
                           {"lassen", 4, "lossy_fabric"},
                           {"nvisland", 2, ""},
                           {"nvisland", 2, "lossy_fabric"},
                           {"nvisland", 2, "degraded_rail"}};

struct Run {
  core::ExecMode engine;
  int jobs;
};

std::string literal(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// Measures every strategy in every case and compares each against its row
/// of kGolden.
void expect_golden(const Run& run) {
  std::string computed;
  bool mismatch = false;
  const Golden* row = kGolden;
  const Golden* const end = kGolden + std::size(kGolden);
  for (const Case& c : kCases) {
    const std::string machine_name = c.machine;
    const std::string faults_name = c.faults;
    const machine::MachineModel mach = machine::resolve_machine(machine_name);
    const Topology topo = mach.topology(c.nodes);
    const sparse::CsrMatrix matrix = sparse::generate_standin(
        sparse::profile_by_name("audikw_1"), 0.005, 1);
    const sparse::RowPartition part =
        sparse::RowPartition::contiguous(matrix.rows(), topo.num_gpus());
    const core::CommPattern pattern =
        sparse::spmv_comm_pattern(matrix, part, topo, /*bytes_per_value=*/800);
    std::optional<FaultModel> faults;
    if (!faults_name.empty()) {
      faults = fault::load_fault_file(std::string(HETCOMM_FAULTS_DIR "/") +
                                      faults_name + ".json")
                   .compile(topo, mach.params);
    }
    core::MeasureOptions opts;
    opts.reps = 50;
    opts.seed = 2024;
    opts.noise_sigma = 0.02;
    opts.jobs = run.jobs;
    opts.engine = run.engine;
    opts.faults = faults ? &*faults : nullptr;
    for (const core::StrategyConfig& cfg : core::all_strategies()) {
      const core::MeasureResult r = core::measure(
          core::build_plan(pattern, topo, mach.params, cfg), topo, mach.params,
          opts);
      const std::string name = cfg.name();
      computed += std::string("    {\"") + c.machine + "\", \"" + c.faults +
                  "\", \"" + name + "\",\n     " + literal(r.max_avg) + ", " +
                  literal(r.makespan_mean) + ", " + literal(r.makespan_min) +
                  ",\n     " + literal(r.makespan_max) + "},\n";
      const bool pinned = row != end && row->machine == machine_name &&
                          row->faults == faults_name && row->strategy == name;
      if (!pinned) {
        ADD_FAILURE() << "no golden row for " << c.machine << " " << c.faults
                      << " " << name;
        mismatch = true;
        continue;
      }
      EXPECT_EQ(r.max_avg, row->max_avg) << name;
      EXPECT_EQ(r.makespan_mean, row->makespan_mean) << name;
      EXPECT_EQ(r.makespan_min, row->makespan_min) << name;
      EXPECT_EQ(r.makespan_max, row->makespan_max) << name;
      mismatch = mismatch || r.max_avg != row->max_avg ||
                 r.makespan_mean != row->makespan_mean ||
                 r.makespan_min != row->makespan_min ||
                 r.makespan_max != row->makespan_max;
      ++row;
    }
  }
  EXPECT_EQ(row, end) << "golden rows left unchecked";
  if (mismatch) ADD_FAILURE() << "computed table:\n" << computed;
}

TEST(GoldenResults, CompiledOneWorker) {
  expect_golden({core::ExecMode::Compiled, 1});
}

TEST(GoldenResults, CompiledFourWorkers) {
  expect_golden({core::ExecMode::Compiled, 4});
}

TEST(GoldenResults, Interpreted) {
  expect_golden({core::ExecMode::Interpreted, 1});
}

}  // namespace
}  // namespace hetcomm
