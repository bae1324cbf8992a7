// Golden simulated results.  Every strategy's max_avg and makespan
// mean/min/max on three small fixtures are pinned as hex-float literals,
// and each engine path must reproduce them bit for bit: the compiled engine
// at one and at four workers and the interpreted engine, unfaulted and
// under faults/lossy_fabric.json (link degradation and loss), and on
// nvisland also under faults/degraded_rail.json (a NIC outage with
// failover, NIC degradation and a straggler; it needs a second NIC lane,
// which lassen lacks).  The compiled==interpreted and kernel==scalar checks
// elsewhere cannot see a change that both engines share (the noise draw,
// the transfer step, the schedule order); these literals can.  The
// audikw_1 fixtures keep every phase at 128 messages or fewer; the CLI's
// default pattern sends phases of 129-256 messages on 4 lassen nodes and of
// up to 512 on 8, so the schedule order's large phases are pinned too.
//
// A deliberate change to simulated results re-records the table: a failing
// run prints every row it computed in the table's own syntax.

#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "core/compiled_plan.hpp"
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
  const char* pattern;  ///< "audikw_1" stand-in or the CLI's "default"
  const char* machine;
  const char* faults;  ///< fault plan under faults/ ("" = none)
  const char* strategy;
  double max_avg;
  double makespan_mean;
  double makespan_min;
  double makespan_max;
};

// Recorded with the audikw_1 stand-in at scale 0.005 (matrix seed 1),
// 800 bytes per value, and with the CLI's default pattern (16 messages of
// 4096 bytes per GPU, pattern seed 1); 50 repetitions at seed 2024 and
// sigma 0.02.
constexpr Golden kGolden[] = {
    {"audikw_1", "lassen", "", "standard (staged)",
     0x1.c8852435da0fbp-14, 0x1.c8852435da0fbp-14, 0x1.c46993bf1a9ep-14,
     0x1.ce43c0fab57d9p-14},
    {"audikw_1", "lassen", "", "standard (device-aware)",
     0x1.85302f1e1c677p-13, 0x1.853afcfcfe395p-13, 0x1.84c9a3ae8da01p-13,
     0x1.86549ac57007ap-13},
    {"audikw_1", "lassen", "", "3-step (staged)",
     0x1.f9c0378ff2c1bp-14, 0x1.f9c0378ff2c1bp-14, 0x1.f0a8a4340aed1p-14,
     0x1.003b62cfc233dp-13},
    {"audikw_1", "lassen", "", "3-step (device-aware)",
     0x1.790d272761c51p-13, 0x1.794dc0c9a9eb1p-13, 0x1.76a3c0da3ce7fp-13,
     0x1.7d71d0b83736fp-13},
    {"audikw_1", "lassen", "", "2-step (staged)",
     0x1.f08df1b0d36dfp-14, 0x1.f08df1b0d36dfp-14, 0x1.d847db3c8973dp-14,
     0x1.fd90da76427dcp-14},
    {"audikw_1", "lassen", "", "2-step (device-aware)",
     0x1.5313d8daa2ee3p-13, 0x1.552b1faa3f9ap-13, 0x1.4c12663774d1ap-13,
     0x1.5b67a03c4d53ep-13},
    {"audikw_1", "lassen", "", "split+MD",
     0x1.bf34e924a883fp-14, 0x1.cad01acd14cbbp-14, 0x1.b79ae86e325abp-14,
     0x1.e380069be5347p-14},
    {"audikw_1", "lassen", "", "split+DD",
     0x1.a2d03805d3dbep-13, 0x1.a2d22651ae747p-13, 0x1.9e57ee89aae18p-13,
     0x1.a68ada66ec607p-13},
    {"audikw_1", "lassen", "", "3-step (staged, striped)",
     0x1.f9c0378ff2c1bp-14, 0x1.f9c0378ff2c1bp-14, 0x1.f0a8a4340aed1p-14,
     0x1.003b62cfc233dp-13},
    {"audikw_1", "lassen", "", "3-step (device-aware, striped)",
     0x1.790d272761c51p-13, 0x1.794dc0c9a9eb1p-13, 0x1.76a3c0da3ce7fp-13,
     0x1.7d71d0b83736fp-13},
    {"audikw_1", "lassen", "", "2-step (staged, striped)",
     0x1.f08df1b0d36dfp-14, 0x1.f08df1b0d36dfp-14, 0x1.d847db3c8973dp-14,
     0x1.fd90da76427dcp-14},
    {"audikw_1", "lassen", "", "standard (device-aware, striped)",
     0x1.85302f1e1c677p-13, 0x1.853afcfcfe395p-13, 0x1.84c9a3ae8da01p-13,
     0x1.86549ac57007ap-13},
    {"audikw_1", "lassen", "", "standard (staged, chunked-pipeline)",
     0x1.325bb37d9285dp-13, 0x1.3339058d86fa4p-13, 0x1.30d94495d5b04p-13,
     0x1.367aa4a5a12cp-13},
    {"audikw_1", "lassen", "", "2-step (staged, chunked-pipeline)",
     0x1.6f59aa4158a6ap-13, 0x1.7048fe9ef4893p-13, 0x1.60d4d247a686dp-13,
     0x1.793023aa3904bp-13},
    {"audikw_1", "lassen", "lossy_fabric", "standard (staged)",
     0x1.6a2f1ce309c24p-12, 0x1.6a2f1ce309c24p-12, 0x1.8e0196b16f08ep-13,
     0x1.3892f8960b8f3p-11},
    {"audikw_1", "lassen", "lossy_fabric", "standard (device-aware)",
     0x1.b3d989847c283p-12, 0x1.b3e4bc4a6f84ep-12, 0x1.1a71e1bdcc5e2p-12,
     0x1.6777eb36c18f4p-11},
    {"audikw_1", "lassen", "lossy_fabric", "3-step (staged)",
     0x1.a25bfbe53a7dfp-13, 0x1.a80602f38e05fp-13, 0x1.237326f9f4296p-13,
     0x1.0638908af53c8p-11},
    {"audikw_1", "lassen", "lossy_fabric", "3-step (device-aware)",
     0x1.24bf3f2e2087fp-12, 0x1.289e74d596c69p-12, 0x1.bcb74af62321ap-13,
     0x1.0043ca11dc1d6p-11},
    {"audikw_1", "lassen", "lossy_fabric", "2-step (staged)",
     0x1.13818f3773484p-12, 0x1.13818f3773484p-12, 0x1.208c4f181ae26p-13,
     0x1.504657532dbb7p-11},
    {"audikw_1", "lassen", "lossy_fabric", "2-step (device-aware)",
     0x1.59de8cb51c58cp-12, 0x1.59de8cb51c58cp-12, 0x1.a8dc712559582p-13,
     0x1.7a2939db99362p-11},
    {"audikw_1", "lassen", "lossy_fabric", "split+MD",
     0x1.20a8561807735p-12, 0x1.44401a00d51e4p-12, 0x1.f1aa86446d07ap-14,
     0x1.bafa54ae23f07p-11},
    {"audikw_1", "lassen", "lossy_fabric", "split+DD",
     0x1.7f12fc3a8cc78p-12, 0x1.88dcabef5023p-12, 0x1.bcabd0da8d5fcp-13,
     0x1.6c938b0c10fcdp-11},
    {"audikw_1", "lassen", "lossy_fabric", "3-step (staged, striped)",
     0x1.a25bfbe53a7dfp-13, 0x1.a80602f38e05fp-13, 0x1.237326f9f4296p-13,
     0x1.0638908af53c8p-11},
    {"audikw_1", "lassen", "lossy_fabric", "3-step (device-aware, striped)",
     0x1.24bf3f2e2087fp-12, 0x1.289e74d596c69p-12, 0x1.bcb74af62321ap-13,
     0x1.0043ca11dc1d6p-11},
    {"audikw_1", "lassen", "lossy_fabric", "2-step (staged, striped)",
     0x1.13818f3773484p-12, 0x1.13818f3773484p-12, 0x1.208c4f181ae26p-13,
     0x1.504657532dbb7p-11},
    {"audikw_1", "lassen", "lossy_fabric", "standard (device-aware, striped)",
     0x1.b3d989847c283p-12, 0x1.b3e4bc4a6f84ep-12, 0x1.1a71e1bdcc5e2p-12,
     0x1.6777eb36c18f4p-11},
    {"audikw_1", "lassen", "lossy_fabric", "standard (staged, chunked-pipeline)",
     0x1.3bed8d6a68487p-11, 0x1.50bb7b593e93ep-11, 0x1.764b4698719b9p-12,
     0x1.52fe3bda72f3fp-10},
    {"audikw_1", "lassen", "lossy_fabric", "2-step (staged, chunked-pipeline)",
     0x1.18405fec78de2p-11, 0x1.2021a41eb0158p-11, 0x1.401b64a58a428p-12,
     0x1.3e4896afa9a5cp-10},
    {"audikw_1", "nvisland", "", "standard (staged)",
     0x1.0aea5ef1330abp-14, 0x1.0aebc0298420fp-14, 0x1.0592a1b88cbcdp-14,
     0x1.1cb178d42a5a1p-14},
    {"audikw_1", "nvisland", "", "standard (device-aware)",
     0x1.0bf16a2b97c9ep-14, 0x1.0bf16a2b97c9ep-14, 0x1.08c7903c2b54bp-14,
     0x1.0ef1b805b23f3p-14},
    {"audikw_1", "nvisland", "", "3-step (staged)",
     0x1.74e2ce8737a4dp-14, 0x1.757aeee02780cp-14, 0x1.6dfde1e212fbap-14,
     0x1.7c6a8c6948c3fp-14},
    {"audikw_1", "nvisland", "", "3-step (device-aware)",
     0x1.4608bf11711b1p-14, 0x1.4608bf11711b1p-14, 0x1.3d04de8aa3146p-14,
     0x1.4ee4c68a41f16p-14},
    {"audikw_1", "nvisland", "", "2-step (staged)",
     0x1.1ab2556901c32p-14, 0x1.1ab2556901c32p-14, 0x1.146a499121438p-14,
     0x1.273b100145b1fp-14},
    {"audikw_1", "nvisland", "", "2-step (device-aware)",
     0x1.75b80b6aa8d41p-15, 0x1.75b80b6aa8d41p-15, 0x1.6eead9b3d1bddp-15,
     0x1.7cc28c8dd907ep-15},
    {"audikw_1", "nvisland", "", "split+MD",
     0x1.be470bc74d86p-14, 0x1.bf30e5a7568edp-14, 0x1.b4cd88020a90dp-14,
     0x1.d131887eb592ep-14},
    {"audikw_1", "nvisland", "", "split+DD",
     0x1.54b541c751003p-13, 0x1.54b6302ccb536p-13, 0x1.503fc4c0e6fb6p-13,
     0x1.5fc1198317f0bp-13},
    {"audikw_1", "nvisland", "", "3-step (staged, striped)",
     0x1.9642944d07e9ap-14, 0x1.96ef1b0e4cbc7p-14, 0x1.9142ab9c53b71p-14,
     0x1.9c641074200e6p-14},
    {"audikw_1", "nvisland", "", "3-step (device-aware, striped)",
     0x1.73921860dbdecp-14, 0x1.73921860dbdecp-14, 0x1.6ea83bb8c0aa6p-14,
     0x1.787eec409cc0dp-14},
    {"audikw_1", "nvisland", "", "2-step (staged, striped)",
     0x1.3b652633b39e1p-14, 0x1.3b652633b39e1p-14, 0x1.3588b725419dp-14,
     0x1.46d0a907a161ep-14},
    {"audikw_1", "nvisland", "", "standard (device-aware, striped)",
     0x1.6a2f9c3e2077fp-14, 0x1.6a2f9c3e2077fp-14, 0x1.676eb033433ap-14,
     0x1.6d3e968aab106p-14},
    {"audikw_1", "nvisland", "", "standard (staged, chunked-pipeline)",
     0x1.32d2f0b94f31fp-13, 0x1.3312172eb1211p-13, 0x1.2fa569021fa52p-13,
     0x1.36ae5dbeee7afp-13},
    {"audikw_1", "nvisland", "", "2-step (staged, chunked-pipeline)",
     0x1.d9c9215d17663p-14, 0x1.d9c9215d17663p-14, 0x1.c6eb4b077e0bcp-14,
     0x1.e4a3060070a09p-14},
    {"audikw_1", "nvisland", "lossy_fabric", "standard (staged)",
     0x1.2194c5cb32549p-13, 0x1.2b342f7ea4128p-13, 0x1.7fc72c6ae9012p-14,
     0x1.b82fee716b9a7p-12},
    {"audikw_1", "nvisland", "lossy_fabric", "standard (device-aware)",
     0x1.9dc0b77aa633ap-13, 0x1.9dc3c225cc29p-13, 0x1.30061e7f90234p-13,
     0x1.5ae6b5b0d2432p-11},
    {"audikw_1", "nvisland", "lossy_fabric", "3-step (staged)",
     0x1.2c5f2f87b15a1p-13, 0x1.2cc52586e60dap-13, 0x1.01a3b5558ef28p-13,
     0x1.2ccf4593887acp-12},
    {"audikw_1", "nvisland", "lossy_fabric", "3-step (device-aware)",
     0x1.6a07c22d25725p-13, 0x1.6a07c22d25725p-13, 0x1.37730d093bc29p-13,
     0x1.92e7d80c94779p-12},
    {"audikw_1", "nvisland", "lossy_fabric", "2-step (staged)",
     0x1.e1230e56d01a5p-14, 0x1.e1230e56d01a5p-14, 0x1.59cca49725422p-14,
     0x1.c6a1676bb4be3p-13},
    {"audikw_1", "nvisland", "lossy_fabric", "2-step (device-aware)",
     0x1.cfb94f41921eap-14, 0x1.cfec368224d41p-14, 0x1.4a3d40ee87b9dp-14,
     0x1.c2be10d65921bp-13},
    {"audikw_1", "nvisland", "lossy_fabric", "split+MD",
     0x1.d4338b58b4d21p-13, 0x1.ee0381cb3df9ap-13, 0x1.f03877c5f7118p-14,
     0x1.39d635a527a61p-11},
    {"audikw_1", "nvisland", "lossy_fabric", "split+DD",
     0x1.1e5e227d90d43p-12, 0x1.20b861234297cp-12, 0x1.6ba11f5a0c6f1p-13,
     0x1.407ada7057bddp-11},
    {"audikw_1", "nvisland", "lossy_fabric", "3-step (staged, striped)",
     0x1.68b1f295da0eap-13, 0x1.68feec4d955cp-13, 0x1.1c2c95e895426p-13,
     0x1.53b33afacce3ap-11},
    {"audikw_1", "nvisland", "lossy_fabric", "3-step (device-aware, striped)",
     0x1.adfc3018cb95bp-13, 0x1.adfc3018cb95bp-13, 0x1.5fc37df9b0d81p-13,
     0x1.980ebe9714978p-11},
    {"audikw_1", "nvisland", "lossy_fabric", "2-step (staged, striped)",
     0x1.3b05c610e065ap-13, 0x1.3b05c610e065ap-13, 0x1.8e2fc53768bb3p-14,
     0x1.be918bbb2bdfep-12},
    {"audikw_1", "nvisland", "lossy_fabric", "standard (device-aware, striped)",
     0x1.03ef88ce1083bp-12, 0x1.03f325fe11618p-12, 0x1.77f48f4fa6f01p-13,
     0x1.17742db245335p-11},
    {"audikw_1", "nvisland", "lossy_fabric", "standard (staged, chunked-pipeline)",
     0x1.462f6ab72bda5p-12, 0x1.5e4dc03229631p-12, 0x1.d3929df7fefabp-13,
     0x1.61a34a54d987ap-11},
    {"audikw_1", "nvisland", "lossy_fabric", "2-step (staged, chunked-pipeline)",
     0x1.c51ab971cabb6p-13, 0x1.c51ab971cabb6p-13, 0x1.25393e022912bp-13,
     0x1.d6f34cf95d55bp-12},
    {"audikw_1", "nvisland", "degraded_rail", "standard (staged)",
     0x1.6e45def00a171p-14, 0x1.6e45def00a171p-14, 0x1.6887fc6fb2bd4p-14,
     0x1.742745fde11e3p-14},
    {"audikw_1", "nvisland", "degraded_rail", "standard (device-aware)",
     0x1.0bf16a2b97c9ep-14, 0x1.0bf16a2b97c9ep-14, 0x1.08c7903c2b54bp-14,
     0x1.0ef1b805b23f3p-14},
    {"audikw_1", "nvisland", "degraded_rail", "3-step (staged)",
     0x1.9fb4308ee231cp-14, 0x1.9fb4308ee231cp-14, 0x1.9937468046aeap-14,
     0x1.a76f63495b582p-14},
    {"audikw_1", "nvisland", "degraded_rail", "3-step (device-aware)",
     0x1.4608bf11711b1p-14, 0x1.4608bf11711b1p-14, 0x1.3d04de8aa3146p-14,
     0x1.4ee4c68a41f16p-14},
    {"audikw_1", "nvisland", "degraded_rail", "2-step (staged)",
     0x1.6630f0e0a564ap-14, 0x1.6630f0e0a564ap-14, 0x1.5e160bdcd4546p-14,
     0x1.6c61d4b32e7bep-14},
    {"audikw_1", "nvisland", "degraded_rail", "2-step (device-aware)",
     0x1.6d6d98072a9b7p-15, 0x1.6d7df3eda2417p-15, 0x1.68010c679530fp-15,
     0x1.7790f2bbd29d3p-15},
    {"audikw_1", "nvisland", "degraded_rail", "split+MD",
     0x1.00c080388e346p-13, 0x1.00c080388e346p-13, 0x1.f8004ae83634cp-14,
     0x1.0ade8676e2c6fp-13},
    {"audikw_1", "nvisland", "degraded_rail", "split+DD",
     0x1.a92ffbd3ca971p-13, 0x1.a92ffbd3ca971p-13, 0x1.a03a91d2a92a5p-13,
     0x1.b6b013ff4f3ebp-13},
    {"audikw_1", "nvisland", "degraded_rail", "3-step (staged, striped)",
     0x1.c182c3767ef15p-14, 0x1.c182c3767ef15p-14, 0x1.ba7116ffc18e2p-14,
     0x1.c91a6b7a53a2cp-14},
    {"audikw_1", "nvisland", "degraded_rail", "3-step (device-aware, striped)",
     0x1.73921860dbdecp-14, 0x1.73921860dbdecp-14, 0x1.6ea83bb8c0aa6p-14,
     0x1.787eec409cc0dp-14},
    {"audikw_1", "nvisland", "degraded_rail", "2-step (staged, striped)",
     0x1.88f75ee001877p-14, 0x1.88f75ee001877p-14, 0x1.8101756ff574bp-14,
     0x1.8e4c5ea4a247bp-14},
    {"audikw_1", "nvisland", "degraded_rail", "standard (device-aware, striped)",
     0x1.6a2f9c3e2077fp-14, 0x1.6a2f9c3e2077fp-14, 0x1.676eb033433ap-14,
     0x1.6d3e968aab106p-14},
    {"audikw_1", "nvisland", "degraded_rail", "standard (staged, chunked-pipeline)",
     0x1.32d2f0b94f31fp-13, 0x1.3312172eb1211p-13, 0x1.2fa569021fa52p-13,
     0x1.36ae5dbeee7afp-13},
    {"audikw_1", "nvisland", "degraded_rail", "2-step (staged, chunked-pipeline)",
     0x1.07293776c4908p-13, 0x1.07293776c4908p-13, 0x1.0258b262a536ep-13,
     0x1.0a94ded5f1982p-13},
    {"default", "lassen", "", "standard (staged)",
     0x1.e557f03b8a9fp-14, 0x1.ed96bea785e0cp-14, 0x1.cdf03c53934a2p-14,
     0x1.023176dcec25cp-13},
    {"default", "lassen", "", "standard (device-aware)",
     0x1.c49ae091a2f6p-13, 0x1.c49ae091a2f6p-13, 0x1.c33c2eb7b36c5p-13,
     0x1.c666596c02545p-13},
    {"default", "lassen", "", "3-step (staged)",
     0x1.aa37b7235b1e1p-14, 0x1.aa597bb8c95c3p-14, 0x1.a495277a47defp-14,
     0x1.b15205345091ap-14},
    {"default", "lassen", "", "3-step (device-aware)",
     0x1.a63580d724de1p-13, 0x1.a63580d724de1p-13, 0x1.a1bf62787e893p-13,
     0x1.a93b59ee8baa5p-13},
    {"default", "lassen", "", "2-step (staged)",
     0x1.7744518c441a9p-14, 0x1.779aab6072a1fp-14, 0x1.6ce69579a91b7p-14,
     0x1.86ed55ed47d89p-14},
    {"default", "lassen", "", "2-step (device-aware)",
     0x1.e8f5aa8693f03p-13, 0x1.e9032343966a9p-13, 0x1.dbd55dc573f42p-13,
     0x1.011f2d44fd706p-12},
    {"default", "lassen", "", "split+MD",
     0x1.97c536c8fc992p-14, 0x1.985112118a9b8p-14, 0x1.93a43a1a6d0eap-14,
     0x1.9fd46ef0f267p-14},
    {"default", "lassen", "", "split+DD",
     0x1.3b0069ab83975p-13, 0x1.3b0069ab83975p-13, 0x1.36dcc259ca24cp-13,
     0x1.3e8068507f139p-13},
    {"default", "lassen", "", "3-step (staged, striped)",
     0x1.aa37b7235b1e1p-14, 0x1.aa597bb8c95c3p-14, 0x1.a495277a47defp-14,
     0x1.b15205345091ap-14},
    {"default", "lassen", "", "3-step (device-aware, striped)",
     0x1.a63580d724de1p-13, 0x1.a63580d724de1p-13, 0x1.a1bf62787e893p-13,
     0x1.a93b59ee8baa5p-13},
    {"default", "lassen", "", "2-step (staged, striped)",
     0x1.7744518c441a9p-14, 0x1.779aab6072a1fp-14, 0x1.6ce69579a91b7p-14,
     0x1.86ed55ed47d89p-14},
    {"default", "lassen", "", "standard (device-aware, striped)",
     0x1.c49ae091a2f6p-13, 0x1.c49ae091a2f6p-13, 0x1.c33c2eb7b36c5p-13,
     0x1.c666596c02545p-13},
    {"default", "lassen", "", "standard (staged, chunked-pipeline)",
     0x1.e557f03b8a9fp-14, 0x1.ed96bea785e0cp-14, 0x1.cdf03c53934a2p-14,
     0x1.023176dcec25cp-13},
    {"default", "lassen", "", "2-step (staged, chunked-pipeline)",
     0x1.56934390c9384p-13, 0x1.573cb960d7c29p-13, 0x1.540281893f674p-13,
     0x1.59fc62d84de67p-13},
    {"default", "lassen", "lossy_fabric", "standard (staged)",
     0x1.3b6fbe6862524p-10, 0x1.400647e8e6fc5p-10, 0x1.721cb7b832364p-11,
     0x1.15313ac1c8f8bp-9},
    {"default", "lassen", "lossy_fabric", "standard (device-aware)",
     0x1.507995906b11cp-10, 0x1.5594011c91584p-10, 0x1.a3d04798e7bf4p-11,
     0x1.10a04dd35fac8p-9},
    {"default", "lassen", "lossy_fabric", "3-step (staged)",
     0x1.834d61305a0ccp-13, 0x1.881ea9ad78f47p-13, 0x1.02c20960c502p-13,
     0x1.96319613918a3p-12},
    {"default", "lassen", "lossy_fabric", "3-step (device-aware)",
     0x1.3dd0707c826d8p-12, 0x1.41eb16c0b9752p-12, 0x1.e3e4adfa92f9fp-13,
     0x1.0245fc92fbe15p-11},
    {"default", "lassen", "lossy_fabric", "2-step (staged)",
     0x1.949a67bdb1b84p-12, 0x1.986fbb15f7873p-12, 0x1.f422749164099p-13,
     0x1.e8879ec5035c3p-11},
    {"default", "lassen", "lossy_fabric", "2-step (device-aware)",
     0x1.17cf4aa76ccb8p-11, 0x1.1f4d4437eb8ep-11, 0x1.80c66a46947ebp-12,
     0x1.012c7a6f98b03p-10},
    {"default", "lassen", "lossy_fabric", "split+MD",
     0x1.b471897748905p-12, 0x1.d376fa875865ap-12, 0x1.ce46cf012a1f1p-14,
     0x1.66773e7ec503bp-10},
    {"default", "lassen", "lossy_fabric", "split+DD",
     0x1.b2a5889f680bcp-12, 0x1.e128a791bbffbp-12, 0x1.59bff6460c742p-13,
     0x1.3136d61be988ap-10},
    {"default", "lassen", "lossy_fabric", "3-step (staged, striped)",
     0x1.834d61305a0ccp-13, 0x1.881ea9ad78f47p-13, 0x1.02c20960c502p-13,
     0x1.96319613918a3p-12},
    {"default", "lassen", "lossy_fabric", "3-step (device-aware, striped)",
     0x1.3dd0707c826d8p-12, 0x1.41eb16c0b9752p-12, 0x1.e3e4adfa92f9fp-13,
     0x1.0245fc92fbe15p-11},
    {"default", "lassen", "lossy_fabric", "2-step (staged, striped)",
     0x1.949a67bdb1b84p-12, 0x1.986fbb15f7873p-12, 0x1.f422749164099p-13,
     0x1.e8879ec5035c3p-11},
    {"default", "lassen", "lossy_fabric", "standard (device-aware, striped)",
     0x1.507995906b11cp-10, 0x1.5594011c91584p-10, 0x1.a3d04798e7bf4p-11,
     0x1.10a04dd35fac8p-9},
    {"default", "lassen", "lossy_fabric", "standard (staged, chunked-pipeline)",
     0x1.3b6fbe6862524p-10, 0x1.400647e8e6fc5p-10, 0x1.721cb7b832364p-11,
     0x1.15313ac1c8f8bp-9},
    {"default", "lassen", "lossy_fabric", "2-step (staged, chunked-pipeline)",
     0x1.804699c9d87fcp-11, 0x1.83c66d748f6f1p-11, 0x1.2dbcf7ade8962p-12,
     0x1.b1f2fb47fedc5p-10},
    {"default", "lassen", "", "standard (staged)",
     0x1.f54aef41e83b1p-14, 0x1.00e82412636f6p-13, 0x1.e736ea2608e45p-14,
     0x1.1255ece3e5d1bp-13},
    {"default", "lassen", "", "standard (device-aware)",
     0x1.ce080ae6a0b1bp-13, 0x1.ce080ae6a0b1bp-13, 0x1.cb93aa1ffcbb1p-13,
     0x1.d071c343e4c35p-13},
    {"default", "lassen", "", "3-step (staged)",
     0x1.d1e5a7e73d3b2p-14, 0x1.d50e7ad4a4ab8p-14, 0x1.c7b672fcf6409p-14,
     0x1.dec3773e4fa59p-14},
    {"default", "lassen", "", "3-step (device-aware)",
     0x1.220608e81108fp-12, 0x1.22b562219bf23p-12, 0x1.1983a42118a8bp-12,
     0x1.33d46122ded85p-12},
    {"default", "lassen", "", "2-step (staged)",
     0x1.02450e2fca585p-13, 0x1.02888b24f44c9p-13, 0x1.ff0cf607db40ap-14,
     0x1.07839955f693dp-13},
    {"default", "lassen", "", "2-step (device-aware)",
     0x1.524f737d99c16p-12, 0x1.5301fb6274bbcp-12, 0x1.4cbc6e06c5bbep-12,
     0x1.595b6cb57d6eep-12},
    {"default", "lassen", "", "split+MD",
     0x1.a0b610d6f3a78p-14, 0x1.a0c637b72650ap-14, 0x1.9c37f1e2b5453p-14,
     0x1.a4b3b0a027636p-14},
    {"default", "lassen", "", "split+DD",
     0x1.66ba36208df6ep-13, 0x1.670ca286b7cbep-13, 0x1.63719655e437bp-13,
     0x1.6be4c0455549cp-13},
    {"default", "lassen", "", "3-step (staged, striped)",
     0x1.d1e5a7e73d3b2p-14, 0x1.d50e7ad4a4ab8p-14, 0x1.c7b672fcf6409p-14,
     0x1.dec3773e4fa59p-14},
    {"default", "lassen", "", "3-step (device-aware, striped)",
     0x1.220608e81108fp-12, 0x1.22b562219bf23p-12, 0x1.1983a42118a8bp-12,
     0x1.33d46122ded85p-12},
    {"default", "lassen", "", "2-step (staged, striped)",
     0x1.02450e2fca585p-13, 0x1.02888b24f44c9p-13, 0x1.ff0cf607db40ap-14,
     0x1.07839955f693dp-13},
    {"default", "lassen", "", "standard (device-aware, striped)",
     0x1.ce080ae6a0b1bp-13, 0x1.ce080ae6a0b1bp-13, 0x1.cb93aa1ffcbb1p-13,
     0x1.d071c343e4c35p-13},
    {"default", "lassen", "", "standard (staged, chunked-pipeline)",
     0x1.f54aef41e83b1p-14, 0x1.00e82412636f6p-13, 0x1.e736ea2608e45p-14,
     0x1.1255ece3e5d1bp-13},
    {"default", "lassen", "", "2-step (staged, chunked-pipeline)",
     0x1.326370af2f9d4p-13, 0x1.326e2d9c0c00ap-13, 0x1.2af0c42083edfp-13,
     0x1.379ab62530371p-13},
    {"default", "lassen", "lossy_fabric", "standard (staged)",
     0x1.e3da6d23c7635p-10, 0x1.e7e200425d6ecp-10, 0x1.2a5eb9e2166a9p-10,
     0x1.639c91955ca64p-9},
    {"default", "lassen", "lossy_fabric", "standard (device-aware)",
     0x1.03ebb02175a72p-9, 0x1.0769a2eec78f3p-9, 0x1.4401f80a50736p-10,
     0x1.7c3134327e7a5p-9},
    {"default", "lassen", "lossy_fabric", "3-step (staged)",
     0x1.c0a9a7f1b84c8p-12, 0x1.caaca1006aa6ep-12, 0x1.1c473891e489bp-13,
     0x1.311a7eeaa189bp-10},
    {"default", "lassen", "lossy_fabric", "3-step (device-aware)",
     0x1.4f234caceb844p-11, 0x1.578115b0993d6p-11, 0x1.4c8ab97c3258fp-12,
     0x1.4a7e80d1ae746p-10},
    {"default", "lassen", "lossy_fabric", "2-step (staged)",
     0x1.35c20a285b00ep-10, 0x1.3a2669bfcefd6p-10, 0x1.80e0715795b44p-11,
     0x1.144677567b442p-9},
    {"default", "lassen", "lossy_fabric", "2-step (device-aware)",
     0x1.6d7b831d4442p-10, 0x1.6fa5c3f0645bap-10, 0x1.fcacd272ede8ep-11,
     0x1.19af91a31cc8ap-9},
    {"default", "lassen", "lossy_fabric", "split+MD",
     0x1.5f03d551f61bbp-11, 0x1.682c55218a1b7p-11, 0x1.da02929ead992p-14,
     0x1.33b8494b1529dp-10},
    {"default", "lassen", "lossy_fabric", "split+DD",
     0x1.63c27726e7f4p-11, 0x1.7c5dad21e8b89p-11, 0x1.7fd2921541f5bp-13,
     0x1.5f5ed1db6294p-10},
    {"default", "lassen", "lossy_fabric", "3-step (staged, striped)",
     0x1.c0a9a7f1b84c8p-12, 0x1.caaca1006aa6ep-12, 0x1.1c473891e489bp-13,
     0x1.311a7eeaa189bp-10},
    {"default", "lassen", "lossy_fabric", "3-step (device-aware, striped)",
     0x1.4f234caceb844p-11, 0x1.578115b0993d6p-11, 0x1.4c8ab97c3258fp-12,
     0x1.4a7e80d1ae746p-10},
    {"default", "lassen", "lossy_fabric", "2-step (staged, striped)",
     0x1.35c20a285b00ep-10, 0x1.3a2669bfcefd6p-10, 0x1.80e0715795b44p-11,
     0x1.144677567b442p-9},
    {"default", "lassen", "lossy_fabric", "standard (device-aware, striped)",
     0x1.03ebb02175a72p-9, 0x1.0769a2eec78f3p-9, 0x1.4401f80a50736p-10,
     0x1.7c3134327e7a5p-9},
    {"default", "lassen", "lossy_fabric", "standard (staged, chunked-pipeline)",
     0x1.e3da6d23c7635p-10, 0x1.e7e200425d6ecp-10, 0x1.2a5eb9e2166a9p-10,
     0x1.639c91955ca64p-9},
    {"default", "lassen", "lossy_fabric", "2-step (staged, chunked-pipeline)",
     0x1.5bdd241755f15p-10, 0x1.5c0da6634f5c7p-10, 0x1.8d927b7033f73p-11,
     0x1.492c507f89b71p-9},
};

struct Case {
  const char* pattern;
  const char* machine;
  int nodes;
  const char* faults;  ///< fault plan under faults/ ("" = none)
};
constexpr Case kCases[] = {{"audikw_1", "lassen", 4, ""},
                           {"audikw_1", "lassen", 4, "lossy_fabric"},
                           {"audikw_1", "nvisland", 2, ""},
                           {"audikw_1", "nvisland", 2, "lossy_fabric"},
                           {"audikw_1", "nvisland", 2, "degraded_rail"},
                           {"default", "lassen", 4, ""},
                           {"default", "lassen", 4, "lossy_fabric"},
                           {"default", "lassen", 8, ""},
                           {"default", "lassen", 8, "lossy_fabric"}};

struct Run {
  core::ExecMode engine;
  int jobs;
};

std::string literal(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// The case's communication pattern on `topo`.
core::CommPattern case_pattern(const Case& c, const Topology& topo) {
  if (std::string(c.pattern) == "default") {
    return core::random_pattern(topo, 16, 4096, /*seed=*/1);
  }
  const sparse::CsrMatrix matrix = sparse::generate_standin(
      sparse::profile_by_name(c.pattern), 0.005, 1);
  const sparse::RowPartition part =
      sparse::RowPartition::contiguous(matrix.rows(), topo.num_gpus());
  return sparse::spmv_comm_pattern(matrix, part, topo, /*bytes_per_value=*/800);
}

/// Measures every strategy in every case and compares each against its row
/// of kGolden.
void expect_golden(const Run& run) {
  std::string computed;
  bool mismatch = false;
  const Golden* row = kGolden;
  const Golden* const end = kGolden + std::size(kGolden);
  for (const Case& c : kCases) {
    const std::string pattern_name = c.pattern;
    const std::string machine_name = c.machine;
    const std::string faults_name = c.faults;
    const machine::MachineModel mach = machine::resolve_machine(machine_name);
    const Topology topo = mach.topology(c.nodes);
    const core::CommPattern pattern = case_pattern(c, topo);
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
      computed += std::string("    {\"") + c.pattern + "\", \"" + c.machine +
                  "\", \"" + c.faults + "\", \"" + name + "\",\n     " +
                  literal(r.max_avg) + ", " + literal(r.makespan_mean) + ", " +
                  literal(r.makespan_min) + ",\n     " +
                  literal(r.makespan_max) + "},\n";
      const bool pinned = row != end && row->pattern == pattern_name &&
                          row->machine == machine_name &&
                          row->faults == faults_name && row->strategy == name;
      if (!pinned) {
        ADD_FAILURE() << "no golden row for " << c.pattern << " " << c.machine
                      << " " << c.faults << " " << name;
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

TEST(GoldenResults, DefaultPatternReachesTheLargePhaseSizes) {
  // The default-pattern rows pin the schedule order of phases (or
  // dependency waves) of 129-256 and of 257-512 messages; the audikw_1
  // fixtures stop at 128.
  std::size_t mid = 0;
  std::size_t large = 0;
  for (const Case& c : kCases) {
    if (std::string(c.pattern) != "default" || c.faults[0] != '\0') continue;
    const machine::MachineModel mach = machine::resolve_machine(c.machine);
    const Topology topo = mach.topology(c.nodes);
    const core::CommPattern pattern = case_pattern(c, topo);
    for (const core::StrategyConfig& cfg : core::all_strategies()) {
      const core::CompiledPlan plan(
          core::build_plan(pattern, topo, mach.params, cfg), topo,
          mach.params);
      for (const core::CompiledPhase& phase : plan.phases()) {
        for (std::size_t w = 0; w < phase.num_waves(); ++w) {
          const std::size_t count =
              phase.wave_begin.empty()
                  ? phase.messages.size()
                  : phase.wave_begin[w + 1] - phase.wave_begin[w];
          mid += count > 128 && count <= 256 ? 1 : 0;
          large += count > 256 && count <= 512 ? 1 : 0;
        }
      }
    }
  }
  EXPECT_GT(mid, 0u);
  EXPECT_GT(large, 0u);
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
