#include "core/plan_transform.hpp"

#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

namespace hetcomm::core {

namespace {

std::int64_t resolve_min_bytes(const ParamSet& params,
                               const SplitOptions& options) {
  if (options.min_bytes > 0) return options.min_bytes;
  return params.thresholds.eager_max + 1;
}

bool off_node(const Topology& topo, const PlanOp& op) {
  return topo.node_of_rank(op.src_rank) != topo.node_of_rank(op.dst_rank);
}

/// Near-even split: the first `bytes % chunks` chunks carry one extra byte.
std::int64_t chunk_bytes(std::int64_t bytes, int chunks, int c) {
  const std::int64_t base = bytes / chunks;
  return base + (c < bytes % chunks ? 1 : 0);
}

/// Flags ops that other ops depend on.  Those stay whole: a single
/// depends_on edge cannot express "all chunks done".
std::vector<std::vector<char>> dep_targets(const CommPlan& plan) {
  std::vector<std::vector<char>> target(plan.phases.size());
  for (std::size_t p = 0; p < plan.phases.size(); ++p) {
    const PlanPhase& phase = plan.phases[p];
    target[p].assign(phase.ops.size(), 0);
    for (const PlanOp& op : phase.ops) {
      if (op.depends_on >= 0 &&
          static_cast<std::size_t>(op.depends_on) < phase.ops.size()) {
        target[p][static_cast<std::size_t>(op.depends_on)] = 1;
      }
    }
  }
  return target;
}

CommPlan stripe(const CommPlan& plan, const Topology& topo,
                const ParamSet& params, const SplitOptions& options) {
  if (split_is_identity(SplitMode::Striped, params)) return plan;
  const int rails = params.injection.nics_per_node;
  const std::int64_t min_bytes = resolve_min_bytes(params, options);
  const int chunks = options.chunks > 0 ? options.chunks : rails;
  if (chunks <= 1) return plan;
  const auto is_target = dep_targets(plan);

  CommPlan out;
  out.strategy_name = plan.strategy_name;
  out.phases.reserve(plan.phases.size());
  for (std::size_t p = 0; p < plan.phases.size(); ++p) {
    const PlanPhase& phase = plan.phases[p];
    PlanPhase lowered;
    lowered.label = phase.label;
    std::vector<int> new_index(phase.ops.size(), -1);
    for (std::size_t i = 0; i < phase.ops.size(); ++i) {
      PlanOp op = phase.ops[i];
      new_index[i] = static_cast<int>(lowered.ops.size());
      if (op.depends_on >= 0) {
        op.depends_on = new_index[static_cast<std::size_t>(op.depends_on)];
      }
      const bool split = op.type == OpType::Message && op.rail < 0 &&
                         !is_target[p][i] && op.bytes >= min_bytes &&
                         off_node(topo, op);
      if (!split) {
        lowered.ops.push_back(op);
        continue;
      }
      // Chunks keep the logical tag and post in order, so FIFO matching
      // by (src, dst, tag) still pairs each send with its receive.
      for (int c = 0; c < chunks; ++c) {
        const std::int64_t piece = chunk_bytes(op.bytes, chunks, c);
        if (piece == 0) continue;
        lowered.ops.push_back(PlanOp::message(op.src_rank, op.dst_rank, piece,
                                              op.tag, op.space, c % rails,
                                              op.depends_on));
      }
    }
    out.phases.push_back(std::move(lowered));
  }
  return out;
}

CommPlan chunk_pipeline(const CommPlan& plan, const Topology& topo,
                        const ParamSet& params, const SplitOptions& options) {
  const std::int64_t min_bytes = resolve_min_bytes(params, options);
  const int depth =
      options.chunks > 0 ? options.chunks : kDefaultPipelineDepth;
  if (depth <= 1) return plan;
  const auto is_target = dep_targets(plan);

  // Un-carved bytes left in each D2H staging copy, keyed by (phase, op).
  std::vector<std::vector<std::int64_t>> remaining(plan.phases.size());
  for (std::size_t p = 0; p < plan.phases.size(); ++p) {
    const PlanPhase& phase = plan.phases[p];
    remaining[p].assign(phase.ops.size(), 0);
    for (std::size_t i = 0; i < phase.ops.size(); ++i) {
      const PlanOp& op = phase.ops[i];
      if (op.type == OpType::Copy && op.dir == CopyDir::DeviceToHost) {
        remaining[p][i] = op.bytes;
      }
    }
  }

  // Pass 1: each candidate message claims its bytes from the first
  // earlier-phase D2H copy on its source rank with enough left.  Messages
  // with no such copy (e.g. 3-step leader sends fed by gather messages)
  // pass through unchanged.
  struct Feed {
    bool active = false;
    int gpu = -1;
    int sharing = 1;
  };
  std::vector<std::vector<Feed>> feeds(plan.phases.size());
  for (std::size_t p = 0; p < plan.phases.size(); ++p) {
    const PlanPhase& phase = plan.phases[p];
    feeds[p].resize(phase.ops.size());
    for (std::size_t i = 0; i < phase.ops.size(); ++i) {
      const PlanOp& op = phase.ops[i];
      const bool candidate = op.type == OpType::Message &&
                             op.space == MemSpace::Host &&
                             op.depends_on < 0 && !is_target[p][i] &&
                             op.bytes >= min_bytes && off_node(topo, op);
      if (!candidate) continue;
      for (std::size_t q = 0; q < p && !feeds[p][i].active; ++q) {
        const PlanPhase& early = plan.phases[q];
        for (std::size_t j = 0; j < early.ops.size(); ++j) {
          const PlanOp& copy = early.ops[j];
          if (copy.type != OpType::Copy ||
              copy.dir != CopyDir::DeviceToHost ||
              copy.rank != op.src_rank || is_target[q][j] ||
              remaining[q][j] < op.bytes) {
            continue;
          }
          remaining[q][j] -= op.bytes;
          feeds[p][i] = {true, copy.gpu, copy.sharing_procs};
          break;
        }
      }
    }
  }

  // Pass 2: emit the lowered plan.  Carved copies shrink to their kept
  // bytes (dropped when fully carved); pipelined messages become
  // interleaved copy -> send chunk pairs, each send gated on its chunk's
  // copy via depends_on.
  CommPlan out;
  out.strategy_name = plan.strategy_name;
  out.phases.reserve(plan.phases.size());
  for (std::size_t p = 0; p < plan.phases.size(); ++p) {
    const PlanPhase& phase = plan.phases[p];
    PlanPhase lowered;
    lowered.label = phase.label;
    std::vector<int> new_index(phase.ops.size(), -1);
    for (std::size_t i = 0; i < phase.ops.size(); ++i) {
      PlanOp op = phase.ops[i];
      if (op.type == OpType::Copy && op.dir == CopyDir::DeviceToHost &&
          remaining[p][i] != op.bytes) {
        if (remaining[p][i] == 0) continue;  // fully carved away
        op.bytes = remaining[p][i];
      }
      new_index[i] = static_cast<int>(lowered.ops.size());
      if (op.depends_on >= 0) {
        op.depends_on = new_index[static_cast<std::size_t>(op.depends_on)];
      }
      if (!feeds[p][i].active) {
        lowered.ops.push_back(op);
        continue;
      }
      const Feed& feed = feeds[p][i];
      for (int c = 0; c < depth; ++c) {
        const std::int64_t piece = chunk_bytes(op.bytes, depth, c);
        if (piece == 0) continue;
        const int copy_index = static_cast<int>(lowered.ops.size());
        lowered.ops.push_back(PlanOp::copy(op.src_rank, feed.gpu,
                                           CopyDir::DeviceToHost, piece,
                                           feed.sharing));
        lowered.ops.push_back(PlanOp::message(op.src_rank, op.dst_rank, piece,
                                              op.tag, op.space, op.rail,
                                              copy_index));
      }
    }
    out.phases.push_back(std::move(lowered));
  }
  return out;
}

}  // namespace

CommPlan apply_split(const CommPlan& plan, const Topology& topo,
                     const ParamSet& params, SplitMode mode,
                     const SplitOptions& options) {
  if (options.chunks < 0) {
    throw std::invalid_argument("apply_split: negative chunk count");
  }
  if (options.min_bytes < 0) {
    throw std::invalid_argument("apply_split: negative min_bytes");
  }
  switch (mode) {
    case SplitMode::None: return plan;
    case SplitMode::Striped: return stripe(plan, topo, params, options);
    case SplitMode::ChunkedPipeline:
      return chunk_pipeline(plan, topo, params, options);
  }
  throw std::logic_error("apply_split: unknown split mode");
}

bool split_is_identity(SplitMode mode, const ParamSet& params) noexcept {
  return mode == SplitMode::Striped && params.injection.nics_per_node <= 1;
}

}  // namespace hetcomm::core
