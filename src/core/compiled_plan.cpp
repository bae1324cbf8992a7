#include "core/compiled_plan.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <string>

#include "hetsim/engine_steps.hpp"
#include "obs/engine_metrics.hpp"

namespace hetcomm::core {

namespace {

void check_rank(int rank, int num_ranks, const char* what) {
  if (rank < 0 || rank >= num_ranks) {
    throw std::out_of_range(std::string("CompiledPlan: ") + what + " rank " +
                            std::to_string(rank) + " out of range [0," +
                            std::to_string(num_ranks) + ")");
  }
}

/// Validate a depends_on edge against the ops already compiled for this
/// phase and return the gating *message* index, or -1 when the dependency
/// compiles away (a copy/pack target on the same rank is already ordered
/// by blocking posting).  `op_rank` is the dependent op's executing rank
/// (the source rank for messages).
std::int32_t resolve_dep(const CompiledPhase& out, int depends_on,
                         int op_rank, bool dependent_is_message) {
  if (depends_on < 0) return -1;
  if (depends_on >= static_cast<int>(out.steps.size())) {
    throw std::invalid_argument(
        "CompiledPlan: depends_on " + std::to_string(depends_on) +
        " does not reference an earlier op in the same phase");
  }
  const CompiledStep target = out.steps[static_cast<std::size_t>(depends_on)];
  if (target.kind == StepKind::Message) {
    if (!dependent_is_message) {
      // Copies/packs execute during the posting pass, before any message
      // completes; such an edge could never be honored.
      throw std::invalid_argument(
          "CompiledPlan: copy/pack op cannot depend on a message");
    }
    return static_cast<std::int32_t>(target.index);
  }
  const int target_rank =
      target.kind == StepKind::Copy
          ? out.copies[target.index].rank
          : out.packs[target.index].rank;
  if (target_rank != op_rank) {
    // Blocking posting only orders ops on the same rank's clock; a
    // cross-rank copy dep would silently not gate anything.
    throw std::invalid_argument(
        "CompiledPlan: depends_on targets a copy/pack on rank " +
        std::to_string(target_rank) + " but the dependent op runs on rank " +
        std::to_string(op_rank));
  }
  return -1;  // ordered by the posting pass; no scheduling edge needed
}

}  // namespace

CompiledPlan::CompiledPlan(const CommPlan& plan, const Topology& topo,
                           const ParamSet& params)
    : num_ranks_(topo.num_ranks()),
      num_gpus_(topo.num_gpus()),
      num_nodes_(topo.num_nodes()),
      num_paths_(params.taxonomy.num_classes()),
      nic_lanes_(params.injection.nics_per_node) {
  params.validate();
  const PathTable paths(topo, params.taxonomy);
  phases_.reserve(plan.phases.size());
  std::vector<int> recv_depth(static_cast<std::size_t>(num_ranks_), 0);

  for (const PlanPhase& phase : plan.phases) {
    // Size every table exactly before filling it.
    std::size_t num_messages = 0;
    std::size_t num_copies = 0;
    std::size_t num_packs = 0;
    for (const PlanOp& op : phase.ops) {
      num_messages += op.type == OpType::Message;
      num_copies += op.type == OpType::Copy;
      num_packs += op.type == OpType::Pack;
    }
    CompiledPhase out;
    out.steps.reserve(phase.ops.size());
    out.messages.reserve(num_messages);
    out.message_meta.reserve(num_messages);
    out.msg_dep.reserve(num_messages);
    out.copies.reserve(num_copies);
    out.packs.reserve(num_packs);
    std::fill(recv_depth.begin(), recv_depth.end(), 0);
    bool any_dep = false;

    for (const PlanOp& op : phase.ops) {
      switch (op.type) {
        case OpType::Message: {
          check_rank(op.src_rank, num_ranks_, "message src");
          check_rank(op.dst_rank, num_ranks_, "message dst");
          if (op.bytes < 0) {
            throw std::invalid_argument(
                "CompiledPlan: negative message size");
          }
          const int lanes = std::max(1, nic_lanes_);
          if (op.rail >= lanes) {
            throw std::invalid_argument(
                "CompiledPlan: rail " + std::to_string(op.rail) + " >= " +
                std::to_string(lanes) + " NIC lane(s)");
          }
          MessageSchedule msg;
          msg.src = op.src_rank;
          msg.dst = op.dst_rank;
          msg.bytes = op.bytes;
          msg.rail = static_cast<std::int8_t>(op.rail < 0 ? -1 : op.rail);
          const std::uint8_t path_id = paths.path_of(op.src_rank, op.dst_rank);
          const PathClass path = paths.locality_of(path_id);
          const Protocol proto = params.thresholds.select(op.space, op.bytes);
          const PostalParams& pp =
              params.messages.get(op.space, proto, path_id);
          // Exactly the interpreter's expressions, term order included, so
          // the precomputed doubles are bit-equal to what resolve() derives
          // per repetition.
          const double size = static_cast<double>(op.bytes);
          msg.send_occupancy = pp.alpha + pp.beta * size;
          msg.drain_occupancy = pp.beta * size;
          msg.rendezvous = proto == Protocol::Rendezvous;
          msg.off_node = path == PathClass::OffNode;
          if (msg.off_node) {
            const double inv_rate = op.space == MemSpace::Host
                                        ? params.injection.inv_rate_cpu
                                        : params.injection.inv_rate_gpu;
            msg.src_node = topo.node_of_rank(op.src_rank);
            msg.dst_node = topo.node_of_rank(op.dst_rank);
            if (op.rail >= 0) {
              // Explicit rail assignment (striped plans): pin both
              // endpoints to the rail's NIC pair, overriding the
              // hash-to-lane default.
              msg.src_nic = msg.src_node * lanes + op.rail;
              msg.dst_nic = msg.dst_node * lanes + op.rail;
            } else {
              msg.src_nic =
                  params.injection.nic_of(topo.rank_location(op.src_rank));
              msg.dst_nic =
                  params.injection.nic_of(topo.rank_location(op.dst_rank));
            }
            msg.nic_occupancy =
                inv_rate * size + params.overheads.nic_message_overhead;
            out.network_bytes += op.bytes;
            ++out.network_messages;
          }
          out.msg_dep.push_back(
              resolve_dep(out, op.depends_on, op.src_rank, true));
          any_dep = any_dep || out.msg_dep.back() >= 0;
          out.steps.push_back(
              {StepKind::Message,
               static_cast<std::uint32_t>(out.messages.size())});
          out.messages.push_back(msg);
          out.message_meta.push_back({op.tag, op.space, proto, path_id, path});
          ++recv_depth[static_cast<std::size_t>(op.dst_rank)];
          break;
        }
        case OpType::Copy: {
          check_rank(op.rank, num_ranks_, "copy");
          if (op.gpu < 0 || op.gpu >= num_gpus_) {
            throw std::out_of_range("CompiledPlan: bad copy gpu " +
                                    std::to_string(op.gpu));
          }
          if (op.bytes < 0) {
            throw std::invalid_argument("CompiledPlan: negative copy size");
          }
          if (op.sharing_procs < 1) {
            throw std::invalid_argument(
                "CompiledPlan: copy sharing_procs must be >= 1");
          }
          CopyOp copy;
          copy.rank = op.rank;
          copy.gpu = op.gpu;
          copy.dir = op.dir;
          copy.sharing_procs = op.sharing_procs;
          copy.bytes = op.bytes;
          const PostalParams cp =
              copy_params_for(params.copies, op.dir, op.sharing_procs);
          const PostalParams raw = copy_params_for(params.copies, op.dir, 1);
          copy.occupancy =
              params.overheads.dma_op_overhead +
              raw.beta * static_cast<double>(op.bytes) / op.sharing_procs;
          copy.duration_base = cp.time(op.bytes);
          resolve_dep(out, op.depends_on, op.rank, false);
          out.steps.push_back(
              {StepKind::Copy, static_cast<std::uint32_t>(out.copies.size())});
          out.copies.push_back(copy);
          break;
        }
        case OpType::Pack: {
          check_rank(op.rank, num_ranks_, "pack");
          if (op.bytes < 0) {
            throw std::invalid_argument("CompiledPlan: negative pack size");
          }
          PackOp pack;
          pack.rank = op.rank;
          pack.bytes = op.bytes;
          pack.duration_base = params.overheads.pack_per_byte *
                               static_cast<double>(op.bytes);
          resolve_dep(out, op.depends_on, op.rank, false);
          out.steps.push_back(
              {StepKind::Pack, static_cast<std::uint32_t>(out.packs.size())});
          out.packs.push_back(pack);
          break;
        }
      }
    }

    // Queue-search cost folds the phase's (rep-invariant) posted-receive
    // depth at the destination into each message's noised completion term:
    // completion_base = (alpha + beta*s) + q_search * depth[dst], the same
    // association order the interpreter uses.
    for (MessageSchedule& msg : out.messages) {
      msg.completion_base =
          msg.send_occupancy +
          params.overheads.queue_search_per_entry *
              recv_depth[static_cast<std::size_t>(msg.dst)];
    }

    // Dependency waves: bucket messages by dep-chain depth.  msg_dep edges
    // always point at earlier messages (resolve_dep enforces it), so one
    // forward pass computes depths and acyclicity is structural.  Phases
    // without message-to-message deps leave wave_begin empty and keep the
    // historical single-sort schedule path.
    if (!any_dep) {
      phases_.push_back(std::move(out));
      continue;
    }
    std::vector<std::int32_t> depth(out.messages.size(), 0);
    std::int32_t max_depth = 0;
    for (std::size_t i = 0; i < out.messages.size(); ++i) {
      const std::int32_t d = out.msg_dep[i];
      if (d < 0) continue;
      depth[i] = depth[static_cast<std::size_t>(d)] + 1;
      max_depth = std::max(max_depth, depth[i]);
    }
    if (max_depth > 0) {
      out.wave_begin.assign(static_cast<std::size_t>(max_depth) + 2, 0);
      for (const std::int32_t d : depth) {
        ++out.wave_begin[static_cast<std::size_t>(d) + 1];
      }
      for (std::size_t w = 1; w < out.wave_begin.size(); ++w) {
        out.wave_begin[w] += out.wave_begin[w - 1];
      }
      out.wave_members.resize(out.messages.size());
      std::vector<std::uint32_t> cursor(out.wave_begin.begin(),
                                        out.wave_begin.end() - 1);
      for (std::size_t i = 0; i < out.messages.size(); ++i) {
        out.wave_members[cursor[static_cast<std::size_t>(depth[i])]++] =
            static_cast<std::uint32_t>(i);
      }
    }

    phases_.push_back(std::move(out));
  }
}

std::int64_t CompiledPlan::total_messages() const noexcept {
  std::int64_t n = 0;
  for (const CompiledPhase& p : phases_) {
    n += static_cast<std::int64_t>(p.messages.size());
  }
  return n;
}

}  // namespace hetcomm::core

namespace hetcomm {

// Defined here (not engine.cpp) so the hetsim layer never depends on core's
// plan types; Engine::execute is a member, so it keeps access to the
// engine's resources and scratch.
void Engine::execute(const core::CompiledPlan& plan) {
  if (plan.num_ranks() != topo_.num_ranks() ||
      plan.num_gpus() != topo_.num_gpus() ||
      plan.num_nodes() != topo_.num_nodes() ||
      plan.num_paths() != paths_.num_classes() ||
      plan.nic_lanes() != params_.injection.nics_per_node) {
    throw std::invalid_argument(
        "Engine::execute: plan compiled for a different machine shape");
  }
  if (has_pending()) {
    throw std::logic_error(
        "Engine::execute: engine holds pending isend/irecv operations; "
        "resolve() or reset() first");
  }

  // A copy or pack draws one factor and a message one per send attempt, so
  // the step count is the exact draw count of an unfaulted repetition and a
  // lower bound when lost messages retry; perturb() computes the rest.
  std::size_t steps = 0;
  for (const core::CompiledPhase& phase : plan.phases()) {
    steps += phase.steps.size();
  }
  noise_.prefetch(steps);
  // Steady-state repetitions attach nothing, or only a fault model, so they
  // run a body with the metrics, trace and fabric hooks compiled away.
  if (metrics_ || tracing_ || fabric_) {
    execute_phases<Hooks::All>(plan);
  } else if (faults_) {
    execute_phases<Hooks::Faults>(plan);
  } else {
    execute_phases<Hooks::None>(plan);
  }
}

template <Hooks H>
void Engine::execute_phases(const core::CompiledPlan& plan) {
  const double post_overhead = params_.overheads.post_overhead;
  for (const core::CompiledPhase& phase : plan.phases()) {
    const std::size_t num_messages = phase.messages.size();
    ready_scratch_.resize(num_messages);

    // ---- Posting pass, in op order.  Copies and packs draw noise here,
    // exactly where the interpreted path draws it.  Each message op posts
    // its send and its FIFO-matched receive, so its ready time is known
    // here: the later of the two postings under rendezvous, else the send
    // posting. ----
    for (const core::CompiledStep& step : phase.steps) {
      switch (step.kind) {
        case core::StepKind::Message: {
          const MessageSchedule& msg = phase.messages[step.index];
          clock_[msg.src] += post_overhead;  // isend posting
          const double send_post = clock_[msg.src];
          clock_[msg.dst] += post_overhead;  // irecv posting
          ready_scratch_[step.index] =
              msg.rendezvous ? std::max(send_post, clock_[msg.dst])
                             : send_post;
          break;
        }
        case core::StepKind::Copy:
          copy_step<H>(phase.copies[step.index]);
          break;
        case core::StepKind::Pack:
          pack_step<H>(phase.packs[step.index]);
          break;
      }
    }
    if (num_messages == 0) {
      if (H == Hooks::All && metrics_) metrics_->on_phase_end(max_clock());
      continue;
    }

    // Each wave runs in (ready, index) order.  Posting order is send-seq
    // order, so that is the strict total order resolve() sorts by, and the
    // schedule sequence (with it the noise-draw sequence) is bit-identical.
    // A phase without dependency edges is one wave of every message; in
    // dependency waves (split plans) a dependent message is ready no
    // earlier than its gating chunk's completion.  At this one transfer
    // call site the hook-free body inlines the step on its own, the
    // faults-only body forces it (transfer_inline), and the all-hooks body
    // calls it out of line.
    const bool waves = phase.num_waves() > 1;
    matched_completion_scratch_.resize(num_messages);
    for (std::size_t w = 0; w < phase.num_waves(); ++w) {
      const std::uint32_t* members = nullptr;
      std::size_t count = num_messages;
      if (waves) {
        members = phase.wave_members.data() + phase.wave_begin[w];
        count = phase.wave_begin[w + 1] - phase.wave_begin[w];
        for (std::size_t k = 0; k < count; ++k) {
          const std::uint32_t i = members[k];
          const std::int32_t d = phase.msg_dep[i];
          if (d >= 0) {
            ready_scratch_[i] = std::max(
                ready_scratch_[i],
                matched_completion_scratch_[static_cast<std::size_t>(d)]);
          }
        }
      }
      for (const std::uint32_t i :
           schedule_order_.sort(ready_scratch_.data(), members, count)) {
        if constexpr (H == Hooks::Faults) {
          matched_completion_scratch_[i] = transfer_inline<H>(
              phase.messages[i], phase.message_meta[i], ready_scratch_[i]);
        } else {
          matched_completion_scratch_[i] = transfer<H>(
              phase.messages[i], phase.message_meta[i], ready_scratch_[i]);
        }
      }
    }
    network_bytes_ += phase.network_bytes;
    network_messages_ += phase.network_messages;
    if (H == Hooks::All && metrics_) metrics_->on_phase_end(max_clock());
  }
}

}  // namespace hetcomm
