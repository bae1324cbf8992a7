#pragma once
// Discrete-event simulation engine for heterogeneous-node communication.
//
// Programming model (rank-phase):
//   * Client code iterates over ranks and posts nonblocking operations
//     (isend / irecv) plus blocking local work (copy / compute / pack),
//     all stamped with the posting rank's local clock.
//   * resolve() matches every pending send to its receive, schedules the
//     transfers against contended resources (per-process ports, per-node NIC
//     ingress/egress servers, per-GPU DMA engines) in global ready-time
//     order, and advances each rank's clock to the completion of its own
//     operations -- there is no global barrier.
//
// An uncontended message costs exactly alpha + beta*s from the calibrated
// parameter table; contention (queueing on shared resources) and measurement
// noise create the spread between the analytic models and "measured" times,
// just as on real hardware.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "hetsim/faults.hpp"
#include "hetsim/network.hpp"
#include "hetsim/noise.hpp"
#include "hetsim/params.hpp"
#include "hetsim/resources.hpp"
#include "hetsim/topology.hpp"
#include "hetsim/trace.hpp"

namespace hetcomm {

namespace core {
class CompiledPlan;  // compiled (rep-invariant) form of a core::CommPlan
}  // namespace core

namespace obs {
struct EngineMetrics;  // fixed-slot metrics sink (obs/engine_metrics.hpp)
}  // namespace obs

class Engine {
 public:
  Engine(Topology topology, ParamSet params,
         NoiseModel noise = NoiseModel{});

  // Non-copyable (owns mutable resource state), movable.  The defaulted
  // moves are safe: every member is value-owned (vectors, optional fabric,
  // trace) and nothing holds a pointer or reference back into the engine,
  // so a moved-to engine is fully usable mid-sweep.  A moved-FROM engine is
  // valid-but-empty; reconstruct or assign before reusing it.
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  Engine(Engine&&) noexcept = default;
  Engine& operator=(Engine&&) noexcept = default;

  [[nodiscard]] const Topology& topology() const noexcept { return topo_; }
  [[nodiscard]] const ParamSet& params() const noexcept { return params_; }
  /// Resolved per-placement path-class ids (built once at construction from
  /// the ParamSet's taxonomy; the scheduling hot path does O(1) lookups).
  [[nodiscard]] const PathTable& paths() const noexcept { return paths_; }

  /// Post a nonblocking send of `bytes` from `src` to `dst`.  The payload
  /// lives in `space` (Host = staged-through-host path, Device =
  /// device-aware path).  Returns a request id.
  ///
  /// `rail` pins an off-node transfer to one of the machine's NIC lanes
  /// (0-based; -1 = the default hash-to-lane choice; >= nics_per_node
  /// throws std::invalid_argument).  `depends_on` is the request id of an
  /// earlier isend whose *completion* produces this send's data (chunked
  /// pipelining); -1 = independent.  resolve() schedules dependency waves
  /// in order, so a dependent transfer becomes ready no earlier than its
  /// gating transfer completes.
  int isend(int src, int dst, std::int64_t bytes, int tag, MemSpace space,
            int rail = -1, int depends_on = -1);

  /// Post a matching nonblocking receive at `dst`.  Returns a request id.
  int irecv(int dst, int src, std::int64_t bytes, int tag, MemSpace space);

  /// Blocking host<->device copy by `rank` against `gpu`'s DMA engine.
  /// `sharing_procs` selects the copy parameter row: >1 means this copy is
  /// one of `sharing_procs` simultaneous copies via duplicate device
  /// pointers (CUDA MPS style); `bytes` is this process's portion.
  void copy(int rank, int gpu, CopyDir dir, std::int64_t bytes,
            int sharing_procs = 1);

  /// Blocking local computation on `rank`.
  void compute(int rank, double seconds);

  /// Blocking CPU-side buffer packing/unpacking of `bytes` on `rank`.
  void pack(int rank, std::int64_t bytes);

  /// Match and schedule all pending sends/receives, then advance each
  /// rank's clock past its own completed operations.  Throws
  /// std::logic_error if any operation remains unmatched or sizes
  /// mismatch; on failure every pending operation is dropped (so
  /// has_pending() is false and a reused per-worker engine is not
  /// poisoned), but clocks already carry the posting overheads -- call
  /// reset() before reusing the engine for a fresh run.  Matching and
  /// scheduling run entirely on member-owned scratch: after warm-up,
  /// resolve() performs no heap allocation.
  void resolve();

  /// Execute a compiled plan: the rep-invariant work (send/recv matching,
  /// path classification, protocol selection, alpha/beta lookups, queue
  /// depths) was hoisted into the CompiledPlan at compile time, so this
  /// inner loop only draws noise (prefetched in one batch per call),
  /// queues on contended resources, and advances clocks; with no fault
  /// model, metrics tier, trace or fabric attached it runs with those
  /// hooks compiled out.  Event-for-event identical -- clocks, traces,
  /// counters, noise stream -- to posting the original CommPlan through
  /// isend/irecv/copy/pack + resolve().  The engine must have been
  /// constructed with the same Topology and ParamSet the plan was
  /// compiled against (checked structurally; a mismatch throws
  /// std::invalid_argument), and must not hold pending operations.
  /// Defined in core/compiled_plan.cpp; callers link hetcore.
  void execute(const core::CompiledPlan& plan);

  /// True if any isend/irecv has been posted and not yet resolved.
  [[nodiscard]] bool has_pending() const noexcept {
    return !sends_.empty() || !recvs_.empty();
  }

  [[nodiscard]] double clock(int rank) const;
  /// All per-rank clocks, indexed by rank (no copy).
  [[nodiscard]] const std::vector<double>& clocks() const noexcept {
    return clock_;
  }
  void set_clock(int rank, double t);
  /// Maximum clock over all ranks (makespan so far).
  [[nodiscard]] double max_clock() const;
  /// Reset all clocks, resources, counters and traces to time zero,
  /// reusing every allocation.  After reset() the engine is
  /// indistinguishable (event-for-event) from a freshly constructed one
  /// with the same topology/params/noise; an attached fabric survives with
  /// its links drained.  Tracing enablement is preserved.
  void reset();
  /// reset(), then reseed the noise stream -- the reuse path of
  /// core::measure(): one engine serves thousands of repetitions without
  /// reallocating resource or queue state.
  void reset(std::uint64_t noise_seed);

  /// Attach a fat-tree fabric (default: NIC-only non-blocking network).
  /// Cross-pod messages then queue on shared, possibly tapered pod links
  /// and pay per-hop switch latency.
  void set_fabric(const FatTreeConfig& config);
  [[nodiscard]] bool has_fabric() const noexcept { return fabric_.has_value(); }

  /// Enable/disable trace recording (disabled by default).
  void set_tracing(bool on) noexcept { tracing_ = on; }
  [[nodiscard]] const Trace& trace() const noexcept { return trace_; }

  /// Attach a caller-owned metrics sink (nullptr detaches; the default).
  /// Recording only *reads* values the simulation already computed -- it
  /// never touches clocks, resources, or the noise stream -- so results are
  /// bit-identical with a sink attached or not.  The sink accumulates
  /// across reset() calls (per-repetition reuse aggregates in place); the
  /// caller resets it between runs when per-run numbers are wanted.
  ///
  /// The flags gate the sink's recording tiers (obs/engine_metrics.hpp):
  /// `record_invariants` covers the plan-invariant slots (message/byte
  /// counters, deterministic occupancies, NIC egress), identical every
  /// repetition of the same plan, so a replaying caller records them once;
  /// `record_samples` covers the noise-dependent statistics (queue waits,
  /// copy/pack durations), which core::measure() samples on a
  /// deterministic subset of repetitions.  Phase-end clocks ride the
  /// sampled tier too: scanning every rank clock per phase is the single
  /// most expensive recording step, so steady-state repetitions skip it.
  /// Both flags default to on -- a plain set_metrics(&sink) records
  /// everything.
  void set_metrics(obs::EngineMetrics* sink, bool record_invariants = true,
                   bool record_samples = true);
  [[nodiscard]] obs::EngineMetrics* metrics() const noexcept {
    return metrics_;
  }
  /// The sink iff the sampled tier is recording (see set_metrics), else
  /// nullptr.  Phase-end recording outside Engine keys on this.
  [[nodiscard]] obs::EngineMetrics* sampled_metrics() const noexcept {
    return metrics_smp_;
  }

  /// Attach a caller-owned fault model (nullptr detaches; the default).
  /// The model is validated structurally against this engine's machine
  /// (taxonomy classes, node count, NIC lanes, ranks; a mismatch throws
  /// std::invalid_argument) and then shared read-only -- one model may be
  /// attached to many per-worker engines.  An empty model is normalized to
  /// nullptr, so zero-fault plans take the exact unfaulted hot path and are
  /// bit-identical to running with no fault layer at all.  Fault decisions
  /// draw from a dedicated mix_seed stream keyed by (run seed, model seed,
  /// message id, attempt) -- never from the noise stream and never from
  /// worker identity -- so faulted runs keep the bit-identical-across-jobs
  /// guarantee.  Exhausted retries and permanent NIC outages raise
  /// FaultAbort; resolve() then drops all pending operations (same contract
  /// as a matching failure) and the engine is reusable after reset().
  void set_faults(const FaultModel* faults);
  [[nodiscard]] const FaultModel* faults() const noexcept { return faults_; }

  /// Total bytes that crossed the network (off-node messages), since reset.
  [[nodiscard]] std::int64_t network_bytes() const noexcept {
    return network_bytes_;
  }
  /// Total off-node message count since reset.
  [[nodiscard]] std::int64_t network_messages() const noexcept {
    return network_messages_;
  }

 private:
  struct PendingOp {
    int self = -1;   ///< posting rank
    int peer = -1;   ///< the other side
    std::int64_t bytes = 0;
    int tag = 0;
    MemSpace space = MemSpace::Host;
    double post_time = 0.0;
    int seq = 0;  ///< global posting order, for deterministic tie-breaks
    int rail = -1;     ///< explicit NIC lane (sends only; -1 = hashed)
    int dep_seq = -1;  ///< gating send's request id (sends only; -1 = none)
  };

  struct Matched {
    PendingOp send;
    PendingOp recv;
    double ready = 0.0;
  };

  void check_rank(int rank) const;
  /// Schedule one matched transfer; returns its completion time (what a
  /// dependent send in a later wave becomes ready at).
  double schedule(Matched& m, std::vector<int>& recv_queue_depth);
  /// resolve() tail for batches holding depends_on edges: buckets matched
  /// transfers into dependency waves and schedules wave by wave.
  void resolve_waves();
  void fail_resolve(const std::string& what);  ///< clear pending, then throw
  /// execute()'s body.  `Observed` is false when no fault model, metrics
  /// tier, trace or fabric is attached; that instantiation compiles their
  /// hooks away.  Defined in core/compiled_plan.cpp.
  template <bool Observed>
  void execute_phases(const core::CompiledPlan& plan);

  /// Per-message fault state resolved once before the (re)send loop.
  /// Occupancies default to the unfaulted inputs; loss stays null when no
  /// rule matches, which also disables the retry loop entirely.
  struct FaultMsgState {
    double send_occupancy = 0.0;
    double drain_occupancy = 0.0;
    double completion_base = 0.0;
    double nic_occupancy_src = 0.0;
    double nic_occupancy_dst = 0.0;
    const LossRule* loss = nullptr;
    std::uint64_t msg_id = 0;
    bool degraded = false;
    double extra_seconds = 0.0;
  };

  // The fault helpers are inline members so the interpreted (engine.cpp)
  // and compiled (core/compiled_plan.cpp) scheduling paths share the exact
  // same expression trees -- a requirement for the bit-identity contract
  // between the engine modes.  The caller supplies the schedule-order
  // message id (fault_msg_counter_++).  Only call them when
  // faults_ != nullptr.
  [[nodiscard]] FaultMsgState fault_prepare(
      std::int32_t src, std::uint8_t path_id, bool off_node,
      std::int32_t src_node, std::int32_t dst_node, std::int32_t src_nic,
      std::int32_t dst_nic, double send_occupancy, double drain_occupancy,
      double completion_base, double nic_occupancy, double ready,
      std::uint64_t msg_id) {
    FaultMsgState st;
    st.msg_id = msg_id;
    const int lanes = std::max(1, params_.injection.nics_per_node);
    FaultModel::MessageView view;
    view.src = src;
    view.path_id = path_id;
    view.off_node = off_node;
    view.src_node = src_node;
    view.dst_node = dst_node;
    view.src_lane = off_node ? src_nic - src_node * lanes : -1;
    view.dst_lane = off_node ? dst_nic - dst_node * lanes : -1;
    view.send_occupancy = send_occupancy;
    view.drain_occupancy = drain_occupancy;
    view.completion_base = completion_base;
    view.nic_occupancy = nic_occupancy;
    view.nic_overhead = params_.overheads.nic_message_overhead;
    const FaultModel::EffectiveMessage eff = faults_->effective(view, ready);
    st.send_occupancy = eff.send_occupancy;
    st.drain_occupancy = eff.drain_occupancy;
    st.completion_base = eff.completion_base;
    st.nic_occupancy_src = eff.nic_occupancy_src;
    st.nic_occupancy_dst = eff.nic_occupancy_dst;
    st.degraded = eff.degraded;
    st.extra_seconds = eff.extra_seconds;
    st.loss = faults_->loss_rule(path_id, ready);
    return st;
  }

  /// Outage-aware lane selection for NIC server `nic_server`
  /// (= node*lanes + lane) at time `t`.  Returns the server index to use,
  /// advancing `t` to the earliest recovery when every lane of the node is
  /// down; sets `failover` when the home lane was not used.  Throws
  /// FaultAbort when no lane of the node ever recovers.
  [[nodiscard]] std::int32_t fault_route_nic(std::int32_t node,
                                             std::int32_t nic_server,
                                             double& t, bool& failover,
                                             std::int32_t src,
                                             std::int32_t dst,
                                             std::uint8_t path_id) {
    const int lanes = std::max(1, params_.injection.nics_per_node);
    const FaultModel::LaneRoute r =
        faults_->route_lane(node, nic_server - node * lanes, lanes, t);
    if (r.at == std::numeric_limits<double>::infinity()) {
      throw_nic_unavailable(src, dst, path_id);
    }
    failover = r.failover;
    if (r.at > t) t = r.at;
    return node * lanes + r.lane;
  }

  /// Deterministic loss decision for send attempt `attempt` (0-based),
  /// drawn from the engine's fault stream.
  [[nodiscard]] bool fault_lost(const FaultMsgState& st,
                                int attempt) const noexcept {
    return st.loss != nullptr &&
           fault_uniform(fault_stream_, st.msg_id,
                         static_cast<std::uint32_t>(attempt)) <
               st.loss->probability;
  }

  // Cold structured-failure paths (defined in engine.cpp; they build the
  // taxonomy-name string, which must stay out of the scheduling loop).
  [[noreturn]] void throw_retries_exhausted(std::int32_t src,
                                            std::int32_t dst,
                                            std::uint8_t path_id,
                                            int attempts) const;
  [[noreturn]] void throw_nic_unavailable(std::int32_t src, std::int32_t dst,
                                          std::uint8_t path_id) const;
  void refresh_fault_stream() noexcept;

  Topology topo_;
  ParamSet params_;
  NoiseModel noise_;
  PathTable paths_;  ///< dense (rank,rank) -> taxonomy class id

  std::vector<double> clock_;
  std::vector<BusyServer> send_port_;  ///< per-rank outbound transport
  std::vector<BusyServer> recv_port_;  ///< per-rank inbound transport
  std::vector<BusyServer> nic_out_;    ///< per-NIC-lane egress (node x lanes)
  std::vector<BusyServer> nic_in_;     ///< per-NIC-lane ingress (node x lanes)
  std::vector<std::int32_t> nic_of_rank_;  ///< rank -> NIC-lane server index
  std::vector<BusyServer> dma_h2d_;    ///< per-GPU DMA engine, H2D
  std::vector<BusyServer> dma_d2h_;    ///< per-GPU DMA engine, D2H
  std::optional<FatTreeFabric> fabric_;  ///< optional tapered fat tree

  std::vector<PendingOp> sends_;
  std::vector<PendingOp> recvs_;
  int next_seq_ = 0;

  // Per-resolve / per-execute scratch.  Member-owned so repeated calls on a
  // reused engine clear-and-refill instead of reallocating; sized lazily on
  // first use, capacity retained across reset().  Never read across calls.
  std::vector<std::uint32_t> send_order_scratch_;  ///< sends by (key, seq)
  std::vector<std::uint32_t> recv_order_scratch_;  ///< recvs by (key, seq)
  std::vector<Matched> matched_scratch_;
  std::vector<int> recv_depth_scratch_;        ///< posted recvs per rank
  // Dependency-wave scratch (resolve with dep_seq edges; see resolve()).
  std::vector<std::int32_t> seq_to_matched_scratch_;  ///< send seq -> matched
  std::vector<std::int32_t> matched_dep_scratch_;     ///< matched -> matched
  std::vector<std::int32_t> matched_depth_scratch_;   ///< dep-chain depth
  std::vector<double> matched_completion_scratch_;    ///< per-transfer finish
  std::vector<std::uint32_t> wave_order_scratch_;     ///< one wave's members
  std::vector<double> ready_scratch_;          ///< compiled: transfer ready
  /// Per-phase schedule orders, kept across execute() calls as the
  /// *starting permutation* for the next (ready, index) sort.  Noise
  /// jitter rarely reorders ready times between repetitions, so re-sorting
  /// from the previous order is a near-linear insertion pass with
  /// predictable branches instead of an O(M log M) comparison sort on
  /// freshly jittered keys.  Purely a warm start: the
  /// sort result is the unique strict total order whatever the hint holds,
  /// so results never depend on engine history.
  std::vector<std::vector<std::uint32_t>> sched_order_cache_;
  /// Scratch for the schedule sort: (ready bit pattern, index) keys packed
  /// so the sort compares integers in place of gathered doubles.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> sched_key_scratch_;

  bool tracing_ = false;
  Trace trace_;
  obs::EngineMetrics* metrics_ = nullptr;  ///< caller-owned; may be null
  /// Tier gates: the same sink while that tier should record, else null.
  /// Hot paths test these pointers, so repetitions with a tier disabled
  /// skip its recording work entirely (no extra loads or flag checks).
  obs::EngineMetrics* metrics_inv_ = nullptr;  ///< plan-invariant slots
  obs::EngineMetrics* metrics_smp_ = nullptr;  ///< sampled statistics
  std::int64_t network_bytes_ = 0;
  std::int64_t network_messages_ = 0;

  // Fault layer (null = no faults, the hot paths' fast case).  The stream
  // mixes the run seed with the model seed so distinct fault seeds decohere
  // even under the same run seed; the message counter advances in schedule
  // order (identical across worker counts and engine modes) and resets with
  // the engine, keying every loss decision deterministically.
  const FaultModel* faults_ = nullptr;  ///< caller-owned; may be null
  std::uint64_t run_seed_ = 0x5eedULL;
  std::uint64_t fault_stream_ = 0;
  std::uint64_t fault_msg_counter_ = 0;
};

/// Copy parameters for `np` processes sharing one GPU's DMA engine.
/// np == 1 and np == table.shared_procs return measured rows; intermediate
/// values interpolate geometrically in np.  Above the measured sharing
/// level both alpha and beta scale linearly with np (flat aggregate
/// throughput, growing per-client latency), reflecting the paper's "no
/// benefit past four processes" observation.
[[nodiscard]] PostalParams copy_params_for(const CopyParamTable& table,
                                           CopyDir dir, int np);

}  // namespace hetcomm
