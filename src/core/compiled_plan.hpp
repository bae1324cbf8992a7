#pragma once
// Compile-once / simulate-many execution of CommPlans.
//
// core::measure() runs the same CommPlan hundreds to thousands of times with
// nothing but the noise seed changing between repetitions.  Interpreting the
// plan op-by-op repeats a large amount of noise-independent work every rep:
// send/receive matching, path classification (on-socket / on-node /
// off-node), protocol selection, alpha/beta parameter lookups, queue-depth
// counting, and resource-id derivation (ports, NIC servers, DMA engines).
//
// CompiledPlan hoists all of that out of the repetition loop.  Compiling a
// (CommPlan, Topology, ParamSet) triple produces, per phase, flat
// struct-of-arrays op tables whose entries carry every rep-invariant
// quantity pre-folded into the exact floating-point values the interpreter
// would compute:
//
//   * messages: one entry per Message op, which posts both the send and
//     the receive, so nothing is left to match (see `messages` below);
//     path class, protocol, sender occupancy alpha+beta*s, receiver drain
//     beta*s, completion base alpha+beta*s+queue_cost, NIC occupancy,
//     node ids;
//   * copies: interpolated copy parameters, DMA occupancy, base duration;
//   * packs: base duration.
//
// Engine::execute(plan) then performs only the rep-varying work -- noise
// draws, single-server queueing, clock advancement -- on member-owned
// scratch that is cleared, never reallocated, across reps.  It runs the
// same transfer, copy and pack steps as the interpreted engine, which
// derives their inputs itself.  Execution is bit-identical (clocks,
// traces, counters, noise-stream position) to driving the same plan
// through run_plan()'s isend/irecv/copy/pack + resolve() path;
// tests/test_compiled_plan.cpp holds that contract.

#include <cstdint>
#include <vector>

#include "core/plan.hpp"
#include "hetsim/engine.hpp"
#include "hetsim/params.hpp"
#include "hetsim/topology.hpp"

namespace hetcomm::core {

/// Posting-order step: which op table the next op lives in.
enum class StepKind : std::uint8_t { Message, Copy, Pack };

struct CompiledStep {
  StepKind kind = StepKind::Message;
  std::uint32_t index = 0;  ///< index into the phase's per-kind table
};

/// One phase of a compiled plan: flat per-kind op tables plus the posting
/// order that interleaves them (noise draws must happen in posting order
/// for bit-identity with the interpreted path).
struct CompiledPhase {
  std::vector<CompiledStep> steps;  ///< original op order

  // -- Messages ----------------------------------------------------------
  /// In posting order.  Each entry is one send together with the receive
  /// FIFO matching pairs it with: a Message op posts both ends (run_plan's
  /// contract), and FIFO pairing per (src, dst, tag) preserves posting
  /// order on both sides, so the k-th send of a key meets the k-th receive
  /// of that key -- the same op.
  std::vector<MessageSchedule> messages;
  /// Index-aligned with messages; read only by the trace, metrics and
  /// fault hooks.
  std::vector<MessageMeta> message_meta;
  /// Message-to-message dependency: messages[i] becomes ready no earlier
  /// than messages[msg_dep[i]]'s completion (-1 = independent).  Deps on
  /// copies/packs compile away -- blocking posting on the sending rank
  /// already orders them -- so only message targets appear here.
  std::vector<std::int32_t> msg_dep;
  /// Dependency waves: when any msg_dep edge exists, wave w's message
  /// indices are wave_members[wave_begin[w] .. wave_begin[w+1]), bucketed
  /// by dep-chain depth, index-ascending within a wave.  Empty wave_begin
  /// means one wave of all messages.
  std::vector<std::uint32_t> wave_members;
  std::vector<std::uint32_t> wave_begin;
  [[nodiscard]] std::size_t num_waves() const noexcept {
    return wave_begin.empty() ? 1 : wave_begin.size() - 1;
  }

  std::vector<CopyOp> copies;
  std::vector<PackOp> packs;

  // Phase-constant network counters (sum over off-node messages), added to
  // the engine's totals once per phase instead of per message.
  std::int64_t network_bytes = 0;
  std::int64_t network_messages = 0;
};

/// Immutable compiled form of a CommPlan for one (Topology, ParamSet).
/// Thread-safe to share by const reference across workers: execution
/// mutates only the executing Engine.
class CompiledPlan {
 public:
  /// Compile `plan` against `topo`/`params`, validating at compile time,
  /// before any repetition runs: bad ranks or GPUs throw
  /// std::out_of_range; negative sizes, a copy shared by fewer than one
  /// process, a rail past the machine's NIC lanes and a depends_on edge
  /// the engine cannot honour throw std::invalid_argument.  Every Message op posts both of its ends, so
  /// no phase can hold an unmatched send or receive.
  CompiledPlan(const CommPlan& plan, const Topology& topo,
               const ParamSet& params);

  [[nodiscard]] const std::vector<CompiledPhase>& phases() const noexcept {
    return phases_;
  }
  /// Structural shape of the machine this plan was compiled for;
  /// Engine::execute() rejects engines with a different shape.
  [[nodiscard]] int num_ranks() const noexcept { return num_ranks_; }
  [[nodiscard]] int num_gpus() const noexcept { return num_gpus_; }
  [[nodiscard]] int num_nodes() const noexcept { return num_nodes_; }
  /// Path-class count and NIC-lane count the plan's precomputed ids assume
  /// (taxonomy/NIC layout are structural too, not just the shape).
  [[nodiscard]] int num_paths() const noexcept { return num_paths_; }
  [[nodiscard]] int nic_lanes() const noexcept { return nic_lanes_; }

  /// Total message count across phases (diagnostics / sizing).
  [[nodiscard]] std::int64_t total_messages() const noexcept;

 private:
  std::vector<CompiledPhase> phases_;
  int num_ranks_ = 0;
  int num_gpus_ = 0;
  int num_nodes_ = 0;
  int num_paths_ = 0;
  int nic_lanes_ = 1;
};

}  // namespace hetcomm::core
