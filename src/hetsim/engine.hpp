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
//
// Two execution paths share one body per step kind: the transfer step
// queues a message on its resources, retries lost attempts and advances
// both clocks; the copy and pack steps do the same for blocking local work.
// The interpreted path (isend/irecv/copy/pack + resolve()) derives each
// step's inputs itself; execute() reads them from a core::CompiledPlan.

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "hetsim/faults.hpp"
#include "hetsim/network.hpp"
#include "hetsim/noise.hpp"
#include "hetsim/params.hpp"
#include "hetsim/resources.hpp"
#include "hetsim/schedule_order.hpp"
#include "hetsim/topology.hpp"
#include "hetsim/trace.hpp"

namespace hetcomm {

namespace core {
class CompiledPlan;  // compiled (rep-invariant) form of a core::CommPlan
}  // namespace core

namespace obs {
struct EngineMetrics;  // fixed-slot metrics sink (obs/engine_metrics.hpp)
}  // namespace obs

/// Which hooks an engine step body compiles in.  execute() picks one per
/// call from what is attached; the interpreted path always runs All.
enum class Hooks : std::uint8_t {
  None,    ///< nothing attached: no fault model, metrics, trace or fabric
  Faults,  ///< a fault model alone: metrics, trace and fabric compiled away
  All,     ///< every hook, each behind its own run-time check
};

/// One message's rep-invariant inputs to the engine's transfer step: one
/// send together with the receive that matches it.  A CompiledPlan stores
/// one per Message op; resolve() derives one per matched pair.
struct MessageSchedule {
  std::int32_t src = -1;
  std::int32_t dst = -1;
  std::int64_t bytes = 0;
  double send_occupancy = 0.0;   ///< alpha + beta*s (sender port)
  double drain_occupancy = 0.0;  ///< beta*s (receiver port)
  double completion_base = 0.0;  ///< alpha + beta*s + queue_cost (noised)
  double nic_occupancy = 0.0;    ///< inv_rate*s + nic_overhead (off-node)
  std::int32_t src_node = -1;    ///< valid when off_node
  std::int32_t dst_node = -1;
  std::int32_t src_nic = -1;     ///< NIC-lane server index (off-node)
  std::int32_t dst_nic = -1;
  std::int8_t rail = -1;         ///< explicit NIC lane (-1 = hashed)
  bool off_node = false;
  bool rendezvous = false;       ///< ready waits for the receive posting
};

/// A message's cold inputs, read only by the trace, metrics and fault
/// hooks.
struct MessageMeta {
  int tag = 0;
  MemSpace space = MemSpace::Host;
  Protocol protocol = Protocol::Eager;
  std::uint8_t path_id = 0;              ///< taxonomy class id
  PathClass path = PathClass::OnSocket;  ///< base locality (traces)
};

/// One blocking host<->device copy's inputs to the copy step.
struct CopyOp {
  std::int32_t rank = -1;
  std::int32_t gpu = -1;
  CopyDir dir = CopyDir::DeviceToHost;
  std::int32_t sharing_procs = 1;
  std::int64_t bytes = 0;
  double occupancy = 0.0;      ///< dma_op_overhead + raw_beta*s/sharing
  double duration_base = 0.0;  ///< interpolated alpha + beta*s (noised)
};

/// One blocking pack's inputs to the pack step.
struct PackOp {
  std::int32_t rank = -1;
  std::int64_t bytes = 0;
  double duration_base = 0.0;  ///< pack_per_byte * s (noised)
};

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
  /// rank's clock past its own completed operations.  This is the
  /// reference path: it derives per call everything a CompiledPlan hoists
  /// (matching, path classes, protocols, alpha/beta lookups, queue depths,
  /// dependency waves and a std::sort schedule order), then runs each
  /// transfer through the step execute() shares.  Throws
  /// std::logic_error if any operation remains unmatched or sizes
  /// mismatch; on failure every pending operation is dropped (so
  /// has_pending() is false and a reused per-worker engine is not
  /// poisoned), but clocks already carry the posting overheads -- call
  /// reset() before reusing the engine for a fresh run.  Matching and
  /// scheduling run entirely on member-owned scratch: after warm-up,
  /// resolve() performs no heap allocation.
  void resolve();

  /// Execute a compiled plan: the rep-invariant work was hoisted into the
  /// CompiledPlan at compile time, so this loop only posts, orders each
  /// phase by ready time, and runs the same transfer, copy and pack steps
  /// as resolve(), copy() and pack() (noise prefetched in one batch per
  /// call).  Each call runs one of three bodies (see Hooks): none attached,
  /// a fault model alone, or anything else.  Event-for-event
  /// identical -- clocks, traces, counters, noise stream -- to posting the
  /// original CommPlan through isend/irecv/copy/pack + resolve().  The
  /// engine must have been constructed with the same Topology and
  /// ParamSet the plan was compiled against (checked structurally; a
  /// mismatch throws std::invalid_argument), and must not hold pending
  /// operations.  Defined in core/compiled_plan.cpp; callers link hetcore.
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
  /// across reset() calls, so a caller that wants one run's numbers
  /// attaches a fresh sink for that run: core::measure() attaches one to
  /// repetition 0 and detaches it for the rest, which then run execute()'s
  /// hook-free body (or its faults-only body under a fault model).
  void set_metrics(obs::EngineMetrics* sink);
  [[nodiscard]] obs::EngineMetrics* metrics() const noexcept {
    return metrics_;
  }

  /// Attach a caller-owned fault model (nullptr detaches; the default).
  /// The model is validated structurally against this engine's machine
  /// (taxonomy classes, node count, NIC lanes, ranks; a mismatch throws
  /// std::invalid_argument) and then shared read-only -- one model may be
  /// attached to many per-worker engines.  An empty model is normalized to
  /// nullptr, so zero-fault plans take the exact unfaulted hot path and are
  /// bit-identical to running with no fault layer at all.  Attaching also
  /// resolves which messages no rule can touch (FaultScope), so the model
  /// must not change while attached; those messages skip the rule walks
  /// but still take their message id.  Fault decisions
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
  /// Derive one matched transfer's step inputs and run its transfer step;
  /// returns its completion time (what a dependent send in a later wave
  /// becomes ready at).
  double schedule(const Matched& m, const std::vector<int>& recv_queue_depth);
  /// resolve() tail for batches holding depends_on edges: buckets matched
  /// transfers into dependency waves and schedules wave by wave.
  void resolve_waves();
  void fail_resolve(const std::string& what);  ///< clear pending, then throw
  /// execute()'s body, one per Hooks value: None when nothing is attached,
  /// Faults when only a fault model is, All otherwise.  The None and Faults
  /// bodies inline the transfer step at their one call site; All calls it.
  /// Defined in core/compiled_plan.cpp.
  template <Hooks H>
  void execute_phases(const core::CompiledPlan& plan);

  // The step bodies, one per step kind, defined once in
  // hetsim/engine_steps.hpp for both execution paths: the interpreted one
  // runs them with Hooks::All, execute() with its body's `H`.

  /// One message from `ready` on: takes the send port, the NIC lanes
  /// (routed around outages), the fabric and the receive port, draws the
  /// completion noise, retries lost attempts, advances both ranks' clocks
  /// and feeds the metrics, trace and fault hooks.  Returns the
  /// completion time.
  template <Hooks H>
  double transfer(const MessageSchedule& msg, const MessageMeta& meta,
                  double ready);
  /// transfer()'s body, forced inline.  The faults-only execute() body
  /// calls it at its one call site, which GCC would otherwise leave out of
  /// line; forcing transfer() itself would also change how the hook-free
  /// body compiles.
  template <Hooks H>
  [[gnu::always_inline]] inline double transfer_inline(
      const MessageSchedule& msg, const MessageMeta& meta, double ready);
  /// A blocking copy on its GPU's DMA engine, from the rank's clock on.
  template <Hooks H>
  void copy_step(const CopyOp& op);
  /// A blocking pack on the rank's clock.
  template <Hooks H>
  void pack_step(const PackOp& op);

  /// Whether body `H` runs with a fault model attached: always in the
  /// faults-only body, never in the hook-free one.
  template <Hooks H>
  [[nodiscard]] bool has_faults() const noexcept {
    return H == Hooks::Faults || (H == Hooks::All && faults_ != nullptr);
  }
  /// Outage-aware NIC-lane server for `server` (= node*lanes + lane) at
  /// time `t`: the server to use, with `t` advanced to the earliest
  /// recovery when every lane of the node is down; a reroute counts as a
  /// failover in the metrics sink.  Throws FaultAbort when no lane of the
  /// node ever recovers.  Call only with outages in the fault model.  `t`
  /// stays a reference: returning it by value measured no faster, since
  /// the inlined faults-only body keeps `t` in a register outside the
  /// outage branch anyway.
  [[nodiscard]] std::int32_t route_nic(std::int32_t node, std::int32_t server,
                                       double& t, const MessageSchedule& msg,
                                       std::uint8_t path_id);
  /// Cold structured failure (defined in engine.cpp; it builds the
  /// taxonomy-name string, which must stay out of the scheduling loop).
  [[noreturn]] void throw_retries_exhausted(std::int32_t src,
                                            std::int32_t dst,
                                            std::uint8_t path_id,
                                            int attempts) const;
  void refresh_fault_stream() noexcept;

  Topology topo_;
  ParamSet params_;
  NoiseModel noise_;
  PathTable paths_;  ///< (rank,rank) -> taxonomy class id

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
  std::vector<std::uint32_t> wave_order_scratch_;     ///< resolve: a wave
  std::vector<double> ready_scratch_;          ///< compiled: transfer ready
  /// compiled: each phase's (or wave's) schedule order, rebuilt from the
  /// ready times on every call (hetsim/schedule_order.hpp).
  ReadyOrder schedule_order_;

  bool tracing_ = false;
  Trace trace_;
  obs::EngineMetrics* metrics_ = nullptr;  ///< caller-owned; may be null
  std::int64_t network_bytes_ = 0;
  std::int64_t network_messages_ = 0;

  /// Which messages the attached fault model's rules can touch, resolved
  /// once per set_faults.  A message outside every scope skips
  /// FaultModel::effective() and loss_rule(): no rule could change it.
  struct FaultScope {
    /// Bit c set when a link-degradation or loss rule scopes path class c
    /// (a wildcard rule sets every bit).
    std::uint32_t paths = 0;
    bool nic = false;        ///< a NIC degradation exists (off-node only)
    bool injection = false;  ///< some rank's injection factor is not 1.0
    [[nodiscard]] bool touches(const MessageSchedule& msg,
                               std::uint8_t path_id) const noexcept {
      return ((paths >> path_id) & 1u) != 0 || (nic && msg.off_node) ||
             injection;
    }
  };

  // Fault layer (null = no faults, the hot paths' fast case).  The stream
  // mixes the run seed with the model seed so distinct fault seeds decohere
  // even under the same run seed; the message counter advances in schedule
  // order (identical across worker counts and engine modes) and resets with
  // the engine, keying every loss decision deterministically.
  const FaultModel* faults_ = nullptr;  ///< caller-owned; may be null
  FaultScope fault_scope_;
  std::uint64_t run_seed_ = 0x5eedULL;
  std::uint64_t fault_stream_ = 0;
  std::uint64_t fault_msg_counter_ = 0;
};

/// Largest of values[0..n), which must not be negative; 0 when n == 0.
/// Four independent accumulators replace a serial std::max chain, whose
/// dependent compares (3-4 cycles each) set its speed; the maximum of
/// nonnegative values is exact in any grouping, so the result is the
/// serial chain's bit for bit.
[[nodiscard]] double max_nonnegative(const double* values,
                                     std::size_t n) noexcept;

/// Copy parameters for `np` processes sharing one GPU's DMA engine.
/// np == 1 and np == table.shared_procs return measured rows; intermediate
/// values interpolate geometrically in np.  Above the measured sharing
/// level both alpha and beta scale linearly with np (flat aggregate
/// throughput, growing per-client latency), reflecting the paper's "no
/// benefit past four processes" observation.
[[nodiscard]] PostalParams copy_params_for(const CopyParamTable& table,
                                           CopyDir dir, int np);

}  // namespace hetcomm
