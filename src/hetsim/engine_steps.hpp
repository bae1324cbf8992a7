#pragma once
// The engine's step bodies, the only copy of the per-repetition queueing.
//
// Engine-internal: only hetsim/engine.cpp (the interpreted resolve(),
// copy() and pack()) and core/compiled_plan.cpp (Engine::execute) include
// this header.  Each instantiates the steps where it calls them, so the
// hook-free and faults-only execute() bodies inline them instead of calling
// across files.
//
// `H` is the calling body's Hooks value.  Hooks::Faults knows that a fault
// model is attached and nothing else is, so it tests neither faults_ nor
// the metrics sink, the trace or the fabric.

#include <algorithm>
#include <cstdint>

#include "hetsim/engine.hpp"
#include "obs/engine_metrics.hpp"

namespace hetcomm {

template <Hooks H>
inline double Engine::transfer(const MessageSchedule& msg,
                               const MessageMeta& meta, const double ready) {
  return transfer_inline<H>(msg, meta, ready);
}

template <Hooks H>
inline double Engine::transfer_inline(const MessageSchedule& msg,
                                      const MessageMeta& meta,
                                      const double ready0) {
  constexpr bool kObserved = H == Hooks::All;
  const bool faulted = has_faults<H>();
  // Fault-adjusted occupancies; without a fault model, the inputs.  A loss
  // rule stays null when none matches, which also disables the retry loop.
  FaultModel::EffectiveMessage occ{msg.send_occupancy, msg.drain_occupancy,
                                   msg.completion_base, msg.nic_occupancy,
                                   msg.nic_occupancy};
  const LossRule* loss = nullptr;
  std::uint64_t msg_id = 0;
  // Every message takes its schedule-order id, which keys its loss draws;
  // one that no rule scopes keeps its inputs and draws nothing.
  if (faulted) msg_id = fault_msg_counter_++;
  if (faulted && fault_scope_.touches(msg, meta.path_id)) {
    const int lanes = std::max(1, params_.injection.nics_per_node);
    const FaultModel::MessageView view{
        .src = msg.src,
        .path_id = meta.path_id,
        .off_node = msg.off_node,
        .src_node = msg.src_node,
        .dst_node = msg.dst_node,
        .src_lane = msg.off_node ? msg.src_nic - msg.src_node * lanes : -1,
        .dst_lane = msg.off_node ? msg.dst_nic - msg.dst_node * lanes : -1,
        .send_occupancy = msg.send_occupancy,
        .drain_occupancy = msg.drain_occupancy,
        .completion_base = msg.completion_base,
        .nic_occupancy = msg.nic_occupancy,
        .nic_overhead = params_.overheads.nic_message_overhead};
    occ = faults_->effective(view, ready0);
    if (kObserved && occ.degraded && metrics_) {
      metrics_->on_fault_degraded(meta.path_id, occ.extra_seconds);
    }
    loss = faults_->loss_rule(meta.path_id, ready0);
  }
  const bool reroute = faulted && faults_->has_outages();
  const double hop_latency =
      (kObserved && msg.off_node && fabric_)
          ? fabric_->hop_latency(msg.src_node, msg.dst_node)
          : 0.0;

  // Send/resend loop.  Without a matching loss rule the body runs exactly
  // once.  A lost attempt still consumed every resource it acquired (the
  // wire time is real); the retry re-queues from scratch after the backoff
  // delay.
  double ready = ready0;
  double t = 0.0;
  double completion = 0.0;
  std::int32_t egress_server = -1;  ///< last attempt's NIC lane server
  for (int attempt = 0;;) {
    // Sender-side occupancy: the sending process cannot initiate the next
    // message until this one's latency+transfer work is handed off.
    t = send_port_[msg.src].acquire(ready, occ.send_occupancy);
    if (kObserved && metrics_) {
      if (attempt == 0) {
        metrics_->on_message(meta.path_id, meta.protocol, msg.bytes);
      }
      metrics_->on_occupancy(obs::SimResource::SendPort, occ.send_occupancy);
      metrics_->on_wait(obs::SimResource::SendPort, ready, t);
    }

    if (msg.off_node) {
      egress_server =
          reroute ? route_nic(msg.src_node, msg.src_nic, t, msg, meta.path_id)
                  : msg.src_nic;
      const double t_out =
          nic_out_[egress_server].acquire(t, occ.nic_occupancy_src);
      if (kObserved && metrics_) {
        metrics_->on_occupancy(obs::SimResource::NicOut,
                               occ.nic_occupancy_src);
        if (attempt == 0) {
          metrics_->on_nic_egress(egress_server, msg.bytes, msg.rail >= 0);
        }
        metrics_->on_wait(obs::SimResource::NicOut, t, t_out);
      }
      t = t_out;
      if (kObserved && fabric_) {
        const double t_fab =
            fabric_->acquire(msg.src_node, msg.dst_node, msg.bytes, t);
        // Fabric wait folds queueing and link serialization together (the
        // fabric returns only the final acquire time).
        if (metrics_) metrics_->on_wait(obs::SimResource::FabricLink, t, t_fab);
        t = t_fab;
      }
      const std::int32_t in_server =
          reroute ? route_nic(msg.dst_node, msg.dst_nic, t, msg, meta.path_id)
                  : msg.dst_nic;
      const double t_in = nic_in_[in_server].acquire(t, occ.nic_occupancy_dst);
      if (kObserved && metrics_) {
        metrics_->on_occupancy(obs::SimResource::NicIn, occ.nic_occupancy_dst);
        metrics_->on_wait(obs::SimResource::NicIn, t, t_in);
      }
      t = t_in;
    }

    // Receiver-side drain occupancy.
    const double t_drain = recv_port_[msg.dst].acquire(t, occ.drain_occupancy);
    if (kObserved && metrics_) {
      metrics_->on_occupancy(obs::SimResource::RecvPort, occ.drain_occupancy);
      metrics_->on_wait(obs::SimResource::RecvPort, t, t_drain);
    }
    t = t_drain;

    completion = t + noise_.perturb(occ.completion_base) + hop_latency;

    // Loss decisions are pure hashes of (fault stream, message id, attempt).
    if (loss != nullptr &&
        fault_uniform(fault_stream_, msg_id,
                      static_cast<std::uint32_t>(attempt)) <
            loss->probability) {
      ++attempt;
      if (attempt >= loss->retry.max_attempts) {
        throw_retries_exhausted(msg.src, msg.dst, meta.path_id, attempt);
      }
      const double delay = retry_delay(loss->retry, attempt - 1);
      if (kObserved && metrics_) {
        const int lanes = std::max(1, params_.injection.nics_per_node);
        metrics_->on_fault_retry(
            delay, egress_server < 0 ? -1
                                     : egress_server - msg.src_node * lanes);
      }
      ready = completion + delay;
      continue;
    }
    break;
  }

  // Sender finishes when its buffer may be reused: for rendezvous that is
  // the full transfer; for short/eager the data is buffered once the local
  // handoff (port occupancy) completes.
  const double sender_done =
      msg.rendezvous ? completion : send_port_[msg.src].free_at();
  clock_[msg.src] = std::max(clock_[msg.src], sender_done);
  clock_[msg.dst] = std::max(clock_[msg.dst], completion);

  if (kObserved && tracing_) {
    trace_.messages.push_back({msg.src, msg.dst, msg.bytes, meta.tag,
                               meta.space, meta.protocol, meta.path, ready0, t,
                               completion});
  }
  return completion;
}

template <Hooks H>
void Engine::copy_step(const CopyOp& op) {
  constexpr bool kObserved = H == Hooks::All;
  BusyServer& dma = op.dir == CopyDir::HostToDevice ? dma_h2d_[op.gpu]
                                                    : dma_d2h_[op.gpu];
  const double ready = clock_[op.rank];
  const double start = dma.acquire(ready, op.occupancy);
  double base = op.duration_base;
  if (has_faults<H>()) base = faults_->rank_compute_factor(op.rank) * base;
  const double duration = noise_.perturb(base);
  clock_[op.rank] = start + duration;

  if (kObserved && metrics_) {
    const obs::SimResource res = op.dir == CopyDir::HostToDevice
                                     ? obs::SimResource::DmaH2D
                                     : obs::SimResource::DmaD2H;
    metrics_->on_occupancy(res, op.occupancy);
    metrics_->on_wait(res, ready, start);
    metrics_->on_copy(op.dir, op.sharing_procs, op.bytes, duration);
  }
  if (kObserved && tracing_) {
    trace_.copies.push_back({op.rank, op.gpu, op.dir, op.bytes,
                             op.sharing_procs, start, clock_[op.rank]});
  }
}

template <Hooks H>
void Engine::pack_step(const PackOp& op) {
  constexpr bool kObserved = H == Hooks::All;
  double base = op.duration_base;
  if (has_faults<H>()) base = faults_->rank_compute_factor(op.rank) * base;
  const double duration = noise_.perturb(base);
  clock_[op.rank] += duration;
  if (kObserved && metrics_) metrics_->on_pack(op.bytes, duration);
}

}  // namespace hetcomm
