#pragma once
// Post-pass plan transforms: lower logical transfers into split form.
//
// Strategy builders emit one PlanOp::message per logical transfer.  These
// passes rewrite a built CommPlan so a rendezvous-sized transfer becomes
// several scheduled ops:
//
//  - SplitMode::Striped splits each off-node rendezvous-sized message into
//    near-even chunks pinned round-robin to the machine's NIC rails
//    (PlanOp::rail), so one transfer injects through every lane in parallel
//    instead of serializing through the rank's hash-assigned lane.
//    Identity on single-rail machines.
//
//  - SplitMode::ChunkedPipeline carves the staging D2H copy that feeds an
//    off-node rendezvous-sized host-space send out of its earlier phase and
//    re-emits it as interleaved per-chunk copy -> send pairs chained with
//    PlanOp::depends_on, overlapping chunk k's wire time with chunk k+1's
//    DMA.  Messages with no matching staging copy (e.g. 3-step leader
//    sends fed by gather messages) pass through unchanged.
//
// Both passes preserve FIFO-match safety: chunks keep the logical
// message's tag and are emitted in posting order, so sends and receives
// still pair up by (src, dst, tag) order.

#include <cstdint>
#include <string>

#include "core/plan.hpp"
#include "hetsim/params.hpp"
#include "hetsim/topology.hpp"

namespace hetcomm::core {

enum class SplitMode : std::uint8_t {
  None,             ///< leave logical messages whole
  Striped,          ///< split across NIC rails, one chunk per rail
  ChunkedPipeline,  ///< pipeline through per-chunk copy->send stages
};

[[nodiscard]] constexpr const char* to_string(SplitMode m) noexcept {
  switch (m) {
    case SplitMode::None: return "none";
    case SplitMode::Striped: return "striped";
    case SplitMode::ChunkedPipeline: return "chunked-pipeline";
  }
  return "?";
}

struct SplitOptions {
  /// Chunks per split message.  0 = one per NIC rail (Striped) or
  /// kDefaultPipelineDepth (ChunkedPipeline).
  int chunks = 0;
  /// Only messages of at least this many bytes are split.  0 = the
  /// machine's rendezvous switch point (thresholds.eager_max + 1).
  std::int64_t min_bytes = 0;
};

/// Pipeline depth used when SplitOptions::chunks is 0 for ChunkedPipeline.
inline constexpr int kDefaultPipelineDepth = 4;

/// Apply `mode` to `plan` and return the lowered plan.  Deterministic:
/// same inputs, same output.  SplitMode::None returns the plan unchanged.
/// Existing PlanOp::depends_on edges are re-indexed to the lowered op
/// positions; messages that are themselves dependency targets are never
/// split (a single edge cannot express "all chunks done").
[[nodiscard]] CommPlan apply_split(const CommPlan& plan, const Topology& topo,
                                   const ParamSet& params, SplitMode mode,
                                   const SplitOptions& options = {});

/// True when `mode` is a split that apply_split() with default SplitOptions
/// lowers to the unchanged plan on a machine with `params`:
/// SplitMode::Striped on a single-rail machine (nothing to stripe across).
/// SplitMode::None is no split and reports false.
[[nodiscard]] bool split_is_identity(SplitMode mode,
                                     const ParamSet& params) noexcept;

}  // namespace hetcomm::core
