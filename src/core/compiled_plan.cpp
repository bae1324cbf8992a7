#include "core/compiled_plan.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>
#include <string>

#include "hetsim/engine.hpp"
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
    CompiledPhase out;
    out.steps.reserve(phase.ops.size());
    std::fill(recv_depth.begin(), recv_depth.end(), 0);

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
          CompiledPhase::MessageSchedule msg;
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
          CompiledPhase::CopyOp copy;
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
          CompiledPhase::PackOp pack;
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
    for (CompiledPhase::MessageSchedule& msg : out.messages) {
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

namespace {

/// Sort `order` into exact (ready, index)-ascending order.
///
/// Keys are packed as (bit pattern of ready, index) integer pairs: ready
/// times are sums and maxima of nonnegative finite durations, and the
/// IEEE-754 bit patterns of nonnegative doubles order identically to their
/// values, so one integer pair comparison reproduces the exact
/// (ready, index) strict total order with no double-compare branches.
///
/// When `order` already holds a permutation of the right size -- the
/// previous repetition's schedule order -- the keys are built in that
/// order and sorted by a warm-start insertion pass:
/// jitter rarely reorders ready times between adjacent repetitions, so
/// nearly every element stays put, where a comparison sort on freshly
/// jittered keys pays a misprediction per comparison.  Any permutation
/// yields the same unique total order, so results never depend on engine
/// history; a stale hint only costs time.
void sort_schedule_order(std::vector<std::uint32_t>& order,
                         std::vector<std::pair<std::uint64_t, std::uint32_t>>&
                             keyed,
                         std::size_t count, const double* ready) {
  const bool warm = order.size() == count;
  keyed.resize(count);
  for (std::size_t k = 0; k < count; ++k) {
    const std::uint32_t i = warm ? order[k] : static_cast<std::uint32_t>(k);
    std::uint64_t bits;
    std::memcpy(&bits, &ready[i], sizeof bits);
    keyed[k] = {bits, i};
  }
  if (warm) {
    for (std::size_t k = 1; k < count; ++k) {
      const std::pair<std::uint64_t, std::uint32_t> v = keyed[k];
      std::size_t j = k;
      while (j > 0 && v < keyed[j - 1]) {
        keyed[j] = keyed[j - 1];
        --j;
      }
      keyed[j] = v;
    }
  } else {
    order.resize(count);
    std::sort(keyed.begin(), keyed.end());
  }
  for (std::size_t k = 0; k < count; ++k) order[k] = keyed[k].second;
}

/// Subset variant of sort_schedule_order for one dependency wave: sorts the
/// explicit `members` list into (ready, index) order.  Always a cold sort --
/// the warm-start cache slots are shared across plans on a reused engine,
/// and a stale hint with the *wrong membership* would schedule the wrong
/// messages, so wave scheduling never reads or writes that cache.
void sort_wave_order(std::vector<std::uint32_t>& order,
                     std::vector<std::pair<std::uint64_t, std::uint32_t>>&
                         keyed,
                     const std::uint32_t* members, std::size_t count,
                     const double* ready) {
  keyed.resize(count);
  for (std::size_t k = 0; k < count; ++k) {
    const std::uint32_t i = members[k];
    std::uint64_t bits;
    std::memcpy(&bits, &ready[i], sizeof bits);
    keyed[k] = {bits, i};
  }
  std::sort(keyed.begin(), keyed.end());
  order.resize(count);
  for (std::size_t k = 0; k < count; ++k) order[k] = keyed[k].second;
}

}  // namespace

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
  // Steady-state repetitions attach none of these, so they run the
  // instantiation with every hook compiled away.
  if (faults_ || metrics_inv_ || metrics_smp_ || tracing_ || fabric_) {
    execute_phases<true>(plan);
  } else {
    execute_phases<false>(plan);
  }
}

template <bool Observed>
void Engine::execute_phases(const core::CompiledPlan& plan) {
  const double post_overhead = params_.overheads.post_overhead;
  if (sched_order_cache_.size() < plan.phases().size()) {
    sched_order_cache_.resize(plan.phases().size());
  }
  std::size_t phase_index = 0;
  for (const core::CompiledPhase& phase : plan.phases()) {
    std::vector<std::uint32_t>& sched_order = sched_order_cache_[phase_index];
    ++phase_index;
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
          const core::CompiledPhase::MessageSchedule& msg =
              phase.messages[step.index];
          clock_[msg.src] += post_overhead;  // isend posting
          const double send_post = clock_[msg.src];
          clock_[msg.dst] += post_overhead;  // irecv posting
          ready_scratch_[step.index] =
              msg.rendezvous ? std::max(send_post, clock_[msg.dst])
                             : send_post;
          break;
        }
        case core::StepKind::Copy: {
          const core::CompiledPhase::CopyOp& op = phase.copies[step.index];
          BusyServer& dma = op.dir == CopyDir::HostToDevice
                                ? dma_h2d_[op.gpu]
                                : dma_d2h_[op.gpu];
          const double ready = clock_[op.rank];
          const double start = dma.acquire(ready, op.occupancy);
          double base = op.duration_base;
          if (Observed && faults_) {
            base = faults_->rank_compute_factor(op.rank) * base;
          }
          const double duration = noise_.perturb(base);
          clock_[op.rank] = start + duration;
          if (Observed && (metrics_inv_ || metrics_smp_)) {
            const obs::SimResource res = op.dir == CopyDir::HostToDevice
                                             ? obs::SimResource::DmaH2D
                                             : obs::SimResource::DmaD2H;
            if (metrics_inv_) metrics_inv_->on_occupancy(res, op.occupancy);
            if (metrics_smp_) {
              metrics_smp_->on_wait(res, ready, start);
              metrics_smp_->on_copy(op.dir, op.sharing_procs, op.bytes,
                                    duration);
            }
          }
          if (Observed && tracing_) {
            trace_.copies.push_back({op.rank, op.gpu, op.dir, op.bytes,
                                     op.sharing_procs, start,
                                     clock_[op.rank]});
          }
          break;
        }
        case core::StepKind::Pack: {
          const core::CompiledPhase::PackOp& op = phase.packs[step.index];
          double base = op.duration_base;
          if (Observed && faults_) {
            base = faults_->rank_compute_factor(op.rank) * base;
          }
          const double duration = noise_.perturb(base);
          clock_[op.rank] += duration;
          if (Observed && metrics_smp_) {
            metrics_smp_->on_pack(op.bytes, duration);
          }
          break;
        }
      }
    }
    if (num_messages == 0) {
      // Phase-end clocks ride the sampled tier: max_clock() over every rank
      // is too hot for steady-state repetitions (see core::measure).
      if (Observed && metrics_smp_) metrics_smp_->on_phase_end(max_clock());
      continue;
    }

    // ---- Schedule: only queueing, one noise draw, clock advancement. ----
    // Mirrors Engine::schedule's send/resend loop step for step (same
    // resource order, same metric hooks, same fault helpers), so faulted
    // runs stay bit-identical across the two engine modes.
    const auto schedule_message = [&](std::uint32_t i,
                                      double ready0) -> double {
      const core::CompiledPhase::MessageSchedule& msg = phase.messages[i];

      FaultMsgState fst;
      fst.send_occupancy = msg.send_occupancy;
      fst.drain_occupancy = msg.drain_occupancy;
      fst.completion_base = msg.completion_base;
      fst.nic_occupancy_src = msg.nic_occupancy;
      fst.nic_occupancy_dst = msg.nic_occupancy;
      std::uint8_t fault_path = 0;
      if (Observed && faults_) {
        fault_path = phase.message_meta[i].path_id;
        fst = fault_prepare(msg.src, fault_path, msg.off_node, msg.src_node,
                            msg.dst_node, msg.src_nic, msg.dst_nic,
                            msg.send_occupancy, msg.drain_occupancy,
                            msg.completion_base, msg.nic_occupancy, ready0,
                            fault_msg_counter_++);
        if (fst.degraded && metrics_smp_) {
          metrics_smp_->on_fault_degraded(fault_path, fst.extra_seconds);
        }
      }

      const double hop_latency =
          (Observed && msg.off_node && fabric_)
              ? fabric_->hop_latency(msg.src_node, msg.dst_node)
              : 0.0;

      double ready = ready0;
      double t = 0.0;
      double completion = 0.0;
      std::int32_t egress_server = -1;  ///< last attempt's NIC lane server
      for (int attempt = 0;;) {
        t = send_port_[msg.src].acquire(ready, fst.send_occupancy);
        if (Observed && metrics_inv_) {
          if (attempt == 0) {
            const core::CompiledPhase::MessageMeta& meta =
                phase.message_meta[i];
            metrics_inv_->on_message(meta.path_id, meta.protocol, msg.bytes);
          }
          metrics_inv_->on_occupancy(obs::SimResource::SendPort,
                                     fst.send_occupancy);
        }
        if (Observed && metrics_smp_) {
          metrics_smp_->on_wait(obs::SimResource::SendPort, ready, t);
        }
        if (msg.off_node) {
          std::int32_t out_server = msg.src_nic;
          if (Observed && faults_ && faults_->has_outages()) {
            bool failover = false;
            out_server = fault_route_nic(msg.src_node, msg.src_nic, t,
                                         failover, msg.src, msg.dst,
                                         fault_path);
            if (failover && metrics_smp_) metrics_smp_->on_fault_failover();
          }
          egress_server = out_server;
          const double t_out =
              nic_out_[out_server].acquire(t, fst.nic_occupancy_src);
          if (Observed && metrics_inv_) {
            metrics_inv_->on_occupancy(obs::SimResource::NicOut,
                                       fst.nic_occupancy_src);
            if (attempt == 0) {
              metrics_inv_->on_nic_egress(out_server, msg.bytes,
                                          msg.rail >= 0);
            }
          }
          if (Observed && metrics_smp_) {
            metrics_smp_->on_wait(obs::SimResource::NicOut, t, t_out);
          }
          t = t_out;
          if (Observed && fabric_) {
            const double t_fab =
                fabric_->acquire(msg.src_node, msg.dst_node, msg.bytes, t);
            // Fabric wait folds queueing and link serialization together
            // (the fabric returns only the final acquire time).
            if (metrics_smp_) {
              metrics_smp_->on_wait(obs::SimResource::FabricLink, t, t_fab);
            }
            t = t_fab;
          }
          std::int32_t in_server = msg.dst_nic;
          if (Observed && faults_ && faults_->has_outages()) {
            bool failover = false;
            in_server = fault_route_nic(msg.dst_node, msg.dst_nic, t,
                                        failover, msg.src, msg.dst,
                                        fault_path);
            if (failover && metrics_smp_) metrics_smp_->on_fault_failover();
          }
          const double t_in =
              nic_in_[in_server].acquire(t, fst.nic_occupancy_dst);
          if (Observed && metrics_inv_) {
            metrics_inv_->on_occupancy(obs::SimResource::NicIn,
                                       fst.nic_occupancy_dst);
          }
          if (Observed && metrics_smp_) {
            metrics_smp_->on_wait(obs::SimResource::NicIn, t, t_in);
          }
          t = t_in;
        }
        const double t_drain =
            recv_port_[msg.dst].acquire(t, fst.drain_occupancy);
        if (Observed && metrics_inv_) {
          metrics_inv_->on_occupancy(obs::SimResource::RecvPort,
                                     fst.drain_occupancy);
        }
        if (Observed && metrics_smp_) {
          metrics_smp_->on_wait(obs::SimResource::RecvPort, t, t_drain);
        }
        t = t_drain;

        completion = t + noise_.perturb(fst.completion_base) + hop_latency;

        if (Observed && fault_lost(fst, attempt)) {
          ++attempt;
          if (attempt >= fst.loss->retry.max_attempts) {
            throw_retries_exhausted(msg.src, msg.dst, fault_path, attempt);
          }
          const double delay = retry_delay(fst.loss->retry, attempt - 1);
          if (metrics_smp_) {
            const int lanes = std::max(1, params_.injection.nics_per_node);
            metrics_smp_->on_fault_retry(
                delay, egress_server < 0
                           ? -1
                           : egress_server - msg.src_node * lanes);
          }
          ready = completion + delay;
          continue;
        }
        break;
      }

      const double sender_done =
          msg.rendezvous ? completion : send_port_[msg.src].free_at();
      clock_[msg.src] = std::max(clock_[msg.src], sender_done);
      clock_[msg.dst] = std::max(clock_[msg.dst], completion);

      if (Observed && tracing_) {
        const core::CompiledPhase::MessageMeta& meta = phase.message_meta[i];
        trace_.messages.push_back({msg.src, msg.dst, msg.bytes, meta.tag,
                                   meta.space, meta.protocol, meta.path,
                                   ready0, t, completion});
      }
      return completion;
    };

    if (phase.num_waves() == 1) {
      // Posting order is send-seq order, so this is the same strict total
      // order resolve() sorts by; the schedule sequence (and with it the
      // noise-draw sequence) is bit-identical.  The per-phase cache warm-
      // starts the sort from the previous repetition's order.
      sort_schedule_order(sched_order, sched_key_scratch_, num_messages,
                          ready_scratch_.data());
      for (const std::uint32_t i : sched_order) {
        schedule_message(i, ready_scratch_[i]);
      }
    } else {
      // Dependency waves (split plans): a dependent message is ready no
      // earlier than its gating chunk's completion.  Each wave sorts its
      // own members cold -- see sort_wave_order on why the warm cache
      // must not be used here.
      matched_completion_scratch_.assign(num_messages, 0.0);
      for (std::size_t w = 0; w + 1 < phase.wave_begin.size(); ++w) {
        const std::uint32_t* members =
            phase.wave_members.data() + phase.wave_begin[w];
        const std::size_t count = phase.wave_begin[w + 1] -
                                  phase.wave_begin[w];
        for (std::size_t k = 0; k < count; ++k) {
          const std::uint32_t i = members[k];
          const std::int32_t d = phase.msg_dep[i];
          if (d >= 0) {
            ready_scratch_[i] =
                std::max(ready_scratch_[i],
                         matched_completion_scratch_[
                             static_cast<std::size_t>(d)]);
          }
        }
        sort_wave_order(wave_order_scratch_, sched_key_scratch_, members,
                        count, ready_scratch_.data());
        for (const std::uint32_t i : wave_order_scratch_) {
          matched_completion_scratch_[i] =
              schedule_message(i, ready_scratch_[i]);
        }
      }
    }
    network_bytes_ += phase.network_bytes;
    network_messages_ += phase.network_messages;
    if (Observed && metrics_smp_) metrics_smp_->on_phase_end(max_clock());
  }
}

}  // namespace hetcomm
