#pragma once
// Fixed-slot metrics sink for one Engine run (one repetition).
//
// The engine's hot path cannot afford name lookups or allocation, so the
// per-run collector is a plain struct of arrays indexed by the simulator's
// small enums: message/byte counters by (path class x protocol), contention
// histograms and occupancy totals per contended resource kind, per-node NIC
// egress bytes, copy totals by (direction x solo/shared), pack totals, fault
// activity, and the makespan at the end of every plan phase.  Attach with
// Engine::set_metrics(&sink); a null sink (the default) keeps the engine on
// its hook-free path.  Uncontended acquisitions (wait exactly zero, the
// common case) bump a single per-resource counter and are folded into the
// histogram at export time (wait_histogram()).
//
// core::measure() attaches one sink to repetition 0 and detaches it for
// every other repetition, so a report describes that one repetition and the
// steady-state repetitions run the engine with every hook compiled away.
//
// Recording never touches clocks, resources, or the noise stream, so
// simulation results are bit-identical with metrics on or off; the
// compiled and interpreted execution paths populate the sink identically
// (tests/test_metrics.cpp holds both contracts).
//
// obs::fill_from_engine_metrics() turns the slots into a RunReport, whose
// metrics_json() exports them under stable names
// ("msgs{path=on-node,proto=rendezvous}", "bytes_injected{nic=3}",
// "queue_wait{resource=nic-out}", ...).

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "hetsim/params.hpp"
#include "hetsim/topology.hpp"
#include "obs/metrics.hpp"

namespace hetcomm::obs {

/// Contended resource kinds of the engine, in pipeline order.
enum class SimResource : std::uint8_t {
  SendPort,    ///< per-rank outbound transport
  NicOut,      ///< per-node NIC egress
  FabricLink,  ///< tapered fat-tree pod links (when attached)
  NicIn,       ///< per-node NIC ingress
  RecvPort,    ///< per-rank inbound transport
  DmaH2D,      ///< per-GPU DMA engine, host-to-device
  DmaD2H,      ///< per-GPU DMA engine, device-to-host
};
inline constexpr int kNumSimResources = 7;

[[nodiscard]] constexpr const char* to_string(SimResource r) noexcept {
  switch (r) {
    case SimResource::SendPort: return "send-port";
    case SimResource::NicOut: return "nic-out";
    case SimResource::FabricLink: return "fabric-link";
    case SimResource::NicIn: return "nic-in";
    case SimResource::RecvPort: return "recv-port";
    case SimResource::DmaH2D: return "dma-h2d";
    case SimResource::DmaD2H: return "dma-d2h";
  }
  return "?";
}

struct EngineMetrics {
  /// Fixed path-class slots: machines declare up to kMaxPathClasses named
  /// classes (hetsim/taxonomy.hpp); unused slots stay zero and are skipped
  /// at export.  The classic taxonomy occupies slots 0/1/2 = the PathClass
  /// enum, so historical callers are unchanged.
  static constexpr int kPaths = kMaxPathClasses;
  static constexpr int kProtos = 3;  ///< Protocol values

  // -- Messages, by (path class, protocol) -------------------------------
  std::int64_t msgs[kPaths][kProtos] = {};
  std::int64_t msg_bytes[kPaths][kProtos] = {};

  /// Declared path-class names, indexed by class id; set by
  /// Engine::set_metrics from the machine's taxonomy.  Slots beyond the
  /// vector (or an empty vector, e.g. a default-constructed sink) fall
  /// back to the classic PathClass names at export, keeping
  /// hetcomm.metrics.v1 output schema-compatible.
  std::vector<std::string> path_names;

  // -- Contention, per resource kind -------------------------------------
  /// Time each acquisition waited behind earlier traffic (start - ready),
  /// excluding the zero-wait acquisitions counted in `zero_waits`; read
  /// through wait_histogram() to get the folded distribution.
  Histogram queue_wait[kNumSimResources];
  /// Acquisitions that did not wait at all (start == ready).
  std::int64_t zero_waits[kNumSimResources] = {};
  /// Busy time pushed onto each resource kind (sum of occupancies).
  double occupancy_seconds[kNumSimResources] = {};

  // -- NIC egress, per NIC-lane server ------------------------------------
  // Indexed by node * lanes + lane (the engine's nic_out_ server index), so
  // multi-rail machines report per-rail balance; on single-lane machines the
  // index degenerates to the node id, keeping the historical export names.
  std::vector<std::int64_t> nic_bytes;  ///< bytes injected through each NIC
  /// The subset of nic_bytes carried by explicitly railed (striped)
  /// messages; exported with a `stripe=striped` label.
  std::vector<std::int64_t> nic_striped_bytes;
  /// Declared NIC lanes per node (for rail math at export); >= 1.
  int nic_lanes = 1;

  // -- Copies, by (direction, solo=0 / shared=1) -------------------------
  std::int64_t copy_count[2][2] = {};
  std::int64_t copy_bytes[2][2] = {};
  double copy_seconds[2][2] = {};  ///< noised durations, as charged to clocks

  // -- Packs --------------------------------------------------------------
  std::int64_t packs = 0;
  std::int64_t pack_bytes = 0;
  double pack_seconds = 0.0;

  // -- Phases --------------------------------------------------------------
  /// Max clock over all ranks at the end of each executed plan phase, in
  /// phase order.  Deltas between entries are the per-phase makespan
  /// contributions (they sum to the final makespan exactly).
  std::vector<double> phase_makespan;

  // -- Faults (all zero when no fault model is attached) ----------------
  std::int64_t fault_retries = 0;     ///< lost send attempts that retried
  std::int64_t fault_failovers = 0;   ///< NIC-lane reroutes around outages
  std::int64_t fault_degraded = 0;    ///< messages with degraded occupancies
  double fault_retry_seconds = 0.0;   ///< backoff delay injected by retries
  /// Extra occupancy seconds added by degradation, per path class.
  double fault_degraded_seconds[kPaths] = {};
  /// Retried attempts whose failed egress went through rail k (the lane
  /// index within its node), indexed by rail; on-node retries (no rail)
  /// count only in fault_retries.
  std::vector<std::int64_t> fault_rail_retries;

  /// Size the per-NIC slots for `nic_servers` lane servers (num_nodes x
  /// lanes) with `lanes` rails per node; called by Engine::set_metrics.
  void ensure_lanes(int nic_servers, int lanes) {
    if (static_cast<int>(nic_bytes.size()) < nic_servers) {
      nic_bytes.resize(static_cast<std::size_t>(nic_servers), 0);
      nic_striped_bytes.resize(static_cast<std::size_t>(nic_servers), 0);
    }
    if (static_cast<int>(fault_rail_retries.size()) < lanes) {
      fault_rail_retries.resize(static_cast<std::size_t>(lanes), 0);
    }
    nic_lanes = std::max(nic_lanes, std::max(1, lanes));
  }

  /// Export name of a path-class slot: the declared taxonomy name when
  /// known, else the classic enum name (slots 0-2) or "path-N".
  [[nodiscard]] std::string path_name(int p) const {
    if (p >= 0 && p < static_cast<int>(path_names.size())) {
      return path_names[static_cast<std::size_t>(p)];
    }
    if (p >= 0 && p < 3) return to_string(static_cast<PathClass>(p));
    return "path-" + std::to_string(p);
  }

  // ---- Hot-path recording helpers (allocation-free) ---------------------
  void on_message(int path, Protocol proto, std::int64_t bytes) noexcept {
    const auto r = static_cast<int>(proto);
    ++msgs[path][r];
    msg_bytes[path][r] += bytes;
  }
  void on_message(PathClass path, Protocol proto,
                  std::int64_t bytes) noexcept {
    on_message(static_cast<int>(path), proto, bytes);
  }
  void on_wait(SimResource res, double ready, double start) noexcept {
    if (start > ready) {
      queue_wait[static_cast<int>(res)].observe(start - ready);
    } else {
      // Uncontended acquire returns `ready` bitwise -- one add instead of
      // a full histogram observe for the common case.
      ++zero_waits[static_cast<int>(res)];
    }
  }
  void on_occupancy(SimResource res, double seconds) noexcept {
    occupancy_seconds[static_cast<int>(res)] += seconds;
  }
  /// `nic` is the lane-server index the message's first attempt injected
  /// through (node * lanes + lane); `striped` marks explicitly railed
  /// messages (split plans) for the rail-balance breakdown.
  void on_nic_egress(int nic, std::int64_t bytes,
                     bool striped = false) noexcept {
    nic_bytes[static_cast<std::size_t>(nic)] += bytes;
    if (striped) nic_striped_bytes[static_cast<std::size_t>(nic)] += bytes;
  }
  void on_copy(CopyDir dir, int sharing_procs, std::int64_t bytes,
               double seconds) noexcept {
    const int d = static_cast<int>(dir);
    const int s = sharing_procs > 1 ? 1 : 0;
    ++copy_count[d][s];
    copy_bytes[d][s] += bytes;
    copy_seconds[d][s] += seconds;
  }
  void on_pack(std::int64_t bytes, double seconds) noexcept {
    ++packs;
    pack_bytes += bytes;
    pack_seconds += seconds;
  }
  void on_phase_end(double makespan) { phase_makespan.push_back(makespan); }
  /// `rail` is the lane index (within its node) the failed attempt's
  /// egress used, or -1 for on-node messages (no rail attribution).
  void on_fault_retry(double delay_seconds, int rail = -1) noexcept {
    ++fault_retries;
    fault_retry_seconds += delay_seconds;
    if (rail >= 0 && rail < static_cast<int>(fault_rail_retries.size())) {
      ++fault_rail_retries[static_cast<std::size_t>(rail)];
    }
  }
  void on_fault_failover() noexcept { ++fault_failovers; }
  void on_fault_degraded(int path, double extra_seconds) noexcept {
    ++fault_degraded;
    fault_degraded_seconds[path] += extra_seconds;
  }

  /// True when any fault slot is nonzero (gates the report's faults
  /// section, so fault-free output is byte-identical to the pre-fault
  /// schema).
  [[nodiscard]] bool any_faults() const noexcept {
    if (fault_retries != 0 || fault_failovers != 0 || fault_degraded != 0) {
      return true;
    }
    for (double s : fault_degraded_seconds) {
      if (s != 0.0) return true;
    }
    return false;
  }

  // ---- Export -------------------------------------------------------------
  /// Total messages / bytes over all paths and protocols.
  [[nodiscard]] std::int64_t total_messages() const noexcept;
  [[nodiscard]] std::int64_t total_bytes() const noexcept;

  /// Queue-wait distribution for one resource (by SimResource index) with
  /// the zero-wait acquisitions folded into bin 0.
  [[nodiscard]] Histogram wait_histogram(int resource) const noexcept;
};

}  // namespace hetcomm::obs
