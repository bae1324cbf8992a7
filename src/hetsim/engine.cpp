#include "hetsim/engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <tuple>

#include "hetsim/engine_steps.hpp"
#include "obs/engine_metrics.hpp"

namespace hetcomm {

Engine::Engine(Topology topology, ParamSet params, NoiseModel noise)
    : topo_(std::move(topology)),
      params_(std::move(params)),
      noise_(noise),
      clock_(static_cast<std::size_t>(topo_.num_ranks()), 0.0),
      send_port_(static_cast<std::size_t>(topo_.num_ranks())),
      recv_port_(static_cast<std::size_t>(topo_.num_ranks())),
      nic_out_(static_cast<std::size_t>(topo_.num_nodes()) *
               static_cast<std::size_t>(std::max(1, params_.injection.nics_per_node))),
      nic_in_(nic_out_.size()),
      dma_h2d_(static_cast<std::size_t>(topo_.num_gpus())),
      dma_d2h_(static_cast<std::size_t>(topo_.num_gpus())) {
  params_.validate();
  paths_ = PathTable(topo_, params_.taxonomy);
  nic_of_rank_.resize(static_cast<std::size_t>(topo_.num_ranks()));
  for (int r = 0; r < topo_.num_ranks(); ++r) {
    nic_of_rank_[static_cast<std::size_t>(r)] =
        params_.injection.nic_of(topo_.rank_location(r));
  }
}

void Engine::check_rank(int rank) const {
  if (rank < 0 || rank >= topo_.num_ranks()) {
    throw std::out_of_range("Engine: rank " + std::to_string(rank) +
                            " out of range");
  }
}

int Engine::isend(int src, int dst, std::int64_t bytes, int tag,
                  MemSpace space, int rail, int depends_on) {
  check_rank(src);
  check_rank(dst);
  if (bytes < 0) throw std::invalid_argument("Engine::isend: negative size");
  if (rail >= std::max(1, params_.injection.nics_per_node)) {
    throw std::invalid_argument("Engine::isend: rail " + std::to_string(rail) +
                                " >= " +
                                std::to_string(std::max(
                                    1, params_.injection.nics_per_node)) +
                                " NIC lane(s)");
  }
  if (depends_on >= next_seq_) {
    throw std::invalid_argument(
        "Engine::isend: depends_on references a not-yet-posted request");
  }
  clock_[src] += params_.overheads.post_overhead;
  sends_.push_back({src, dst, bytes, tag, space, clock_[src], next_seq_++,
                    rail < 0 ? -1 : rail, depends_on < 0 ? -1 : depends_on});
  return next_seq_ - 1;
}

int Engine::irecv(int dst, int src, std::int64_t bytes, int tag,
                  MemSpace space) {
  check_rank(src);
  check_rank(dst);
  if (bytes < 0) throw std::invalid_argument("Engine::irecv: negative size");
  clock_[dst] += params_.overheads.post_overhead;
  recvs_.push_back({dst, src, bytes, tag, space, clock_[dst], next_seq_++});
  return next_seq_ - 1;
}

void Engine::copy(int rank, int gpu, CopyDir dir, std::int64_t bytes,
                  int sharing_procs) {
  check_rank(rank);
  if (gpu < 0 || gpu >= topo_.num_gpus()) {
    throw std::out_of_range("Engine::copy: bad gpu");
  }
  if (bytes < 0) throw std::invalid_argument("Engine::copy: negative size");
  if (sharing_procs < 1) {
    throw std::invalid_argument("Engine::copy: sharing_procs must be >= 1");
  }

  const PostalParams cp = copy_params_for(params_.copies, dir, sharing_procs);
  // The DMA engine serializes distinct copies.  For shared (MPS-style)
  // copies the measured betas already embody the sharing penalty, so the
  // occupancy uses the raw 1-process link rate scaled down by the sharing
  // degree: concurrent sharers overlap nearly fully while sequential copies
  // still queue.
  const PostalParams raw = copy_params_for(params_.copies, dir, 1);
  copy_step<Hooks::All>(
      {rank, gpu, dir, sharing_procs, bytes,
       params_.overheads.dma_op_overhead +
           raw.beta * static_cast<double>(bytes) / sharing_procs,
       cp.time(bytes)});
}

void Engine::set_fabric(const FatTreeConfig& config) {
  fabric_.emplace(config, topo_.num_nodes(),
                  params_.injection.inv_rate_cpu);
}

void Engine::compute(int rank, double seconds) {
  check_rank(rank);
  if (seconds < 0) throw std::invalid_argument("Engine::compute: negative");
  // Straggler ranks dilate their local work multiplicatively (a factor of
  // exactly 1.0 is bit-exact, so neutral fault models change nothing).
  if (faults_) seconds = faults_->rank_compute_factor(rank) * seconds;
  clock_[rank] += noise_.perturb(seconds);
}

void Engine::pack(int rank, std::int64_t bytes) {
  check_rank(rank);
  if (bytes < 0) throw std::invalid_argument("Engine::pack: negative size");
  const double base =
      params_.overheads.pack_per_byte * static_cast<double>(bytes);
  pack_step<Hooks::All>({rank, bytes, base});
}

void Engine::set_metrics(obs::EngineMetrics* sink) {
  metrics_ = sink;
  if (metrics_) {
    metrics_->ensure_lanes(static_cast<int>(nic_out_.size()),
                           std::max(1, params_.injection.nics_per_node));
    // Label the sink's path slots with this machine's declared class names
    // so exports speak the machine's taxonomy, not the fixed enum.
    metrics_->path_names.clear();
    for (const PathClassDef& c : params_.taxonomy.classes()) {
      metrics_->path_names.push_back(c.name);
    }
  }
}

void Engine::set_faults(const FaultModel* faults) {
  if (faults != nullptr && faults->empty()) faults = nullptr;
  if (faults != nullptr) {
    faults->validate(topo_.num_ranks(), params_.taxonomy.num_classes(),
                     topo_.num_nodes(),
                     std::max(1, params_.injection.nics_per_node));
  }
  faults_ = faults;
  fault_scope_ = {};
  if (faults_ != nullptr) {
    for (const LinkDegradeRule& r : faults_->degradations) {
      fault_scope_.paths |= r.path_id < 0 ? ~0u : 1u << r.path_id;
    }
    for (const LossRule& r : faults_->losses) {
      fault_scope_.paths |= r.path_id < 0 ? ~0u : 1u << r.path_id;
    }
    fault_scope_.nic = !faults_->nic_degradations.empty();
    // By value: FaultPlan::compile fills 1.0 for every rank as soon as any
    // straggler exists, a compute-only one included.
    fault_scope_.injection =
        std::any_of(faults_->injection_factor.begin(),
                    faults_->injection_factor.end(),
                    [](double f) { return f != 1.0; });
  }
  refresh_fault_stream();
}

void Engine::refresh_fault_stream() noexcept {
  // Salted double-mix: decoheres the fault stream from the noise stream
  // (which consumes the raw run seed) and from other fault-model seeds.
  constexpr std::uint64_t kFaultStreamSalt = 0xfa17'5eedULL;
  fault_stream_ =
      faults_ ? mix_seed(mix_seed(run_seed_, kFaultStreamSalt), faults_->seed)
              : 0;
}

void Engine::throw_retries_exhausted(std::int32_t src, std::int32_t dst,
                                     std::uint8_t path_id,
                                     int attempts) const {
  throw FaultAbort(FaultAbort::Reason::RetriesExhausted, "", src, dst,
                   path_id, params_.taxonomy.cls(path_id).name, attempts);
}

std::int32_t Engine::route_nic(std::int32_t node, std::int32_t server,
                               double& t, const MessageSchedule& msg,
                               std::uint8_t path_id) {
  const int lanes = std::max(1, params_.injection.nics_per_node);
  const FaultModel::LaneRoute r =
      faults_->route_lane(node, server - node * lanes, lanes, t);
  if (r.at == std::numeric_limits<double>::infinity()) {
    throw FaultAbort(FaultAbort::Reason::NicUnavailable, "", msg.src, msg.dst,
                     path_id, params_.taxonomy.cls(path_id).name, 0);
  }
  if (r.failover && metrics_) metrics_->on_fault_failover();
  if (r.at > t) t = r.at;
  return node * lanes + r.lane;
}

void Engine::fail_resolve(const std::string& what) {
  // A failed resolve drops every pending operation so the engine is not
  // left unusable-yet-has_pending(); clocks keep the posting overheads
  // already charged, so reset() is the full-recovery path.
  sends_.clear();
  recvs_.clear();
  throw std::logic_error("Engine::resolve: " + what);
}

void Engine::resolve() {
  // ---- Match sends to receives by (src, dst, tag), FIFO within a key. ----
  // Allocation-free matching: instead of building a std::map of per-key
  // receive lists each call, sort index arrays (member scratch) of both
  // sides by (key, seq) and walk them in lockstep -- within one key the
  // seq order gives FIFO pairing, and any key imbalance is an unmatched
  // operation.  The pairing is identical to the historical map-based
  // matcher; only its cost changed.
  using Key = std::tuple<int, int, int>;  // (src, dst, tag)
  const auto send_key = [](const PendingOp& s) {
    return Key{s.self, s.peer, s.tag};
  };
  const auto recv_key = [](const PendingOp& r) {
    return Key{r.peer, r.self, r.tag};  // receive stores (dst, src)
  };

  send_order_scratch_.resize(sends_.size());
  for (std::uint32_t i = 0; i < sends_.size(); ++i) send_order_scratch_[i] = i;
  std::sort(send_order_scratch_.begin(), send_order_scratch_.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              const Key ka = send_key(sends_[a]), kb = send_key(sends_[b]);
              if (ka != kb) return ka < kb;
              return sends_[a].seq < sends_[b].seq;
            });
  recv_order_scratch_.resize(recvs_.size());
  for (std::uint32_t i = 0; i < recvs_.size(); ++i) recv_order_scratch_[i] = i;
  std::sort(recv_order_scratch_.begin(), recv_order_scratch_.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              const Key ka = recv_key(recvs_[a]), kb = recv_key(recvs_[b]);
              if (ka != kb) return ka < kb;
              return recvs_[a].seq < recvs_[b].seq;
            });

  matched_scratch_.clear();
  std::size_t si = 0, ri = 0;
  while (si < sends_.size() && ri < recvs_.size()) {
    const PendingOp& s = sends_[send_order_scratch_[si]];
    const PendingOp& r = recvs_[recv_order_scratch_[ri]];
    const Key ks = send_key(s), kr = recv_key(r);
    if (ks < kr) {
      fail_resolve("unmatched send " + std::to_string(s.self) + "->" +
                   std::to_string(s.peer) + " tag " + std::to_string(s.tag));
    }
    if (kr < ks) {
      fail_resolve("unmatched receive " + std::to_string(r.peer) + "->" +
                   std::to_string(r.self) + " tag " + std::to_string(r.tag));
    }
    if (r.bytes != s.bytes) {
      fail_resolve("size mismatch " + std::to_string(s.self) + "->" +
                   std::to_string(s.peer) + " tag " + std::to_string(s.tag) +
                   ": send " + std::to_string(s.bytes) + "B vs recv " +
                   std::to_string(r.bytes) + "B");
    }
    const Protocol proto = params_.thresholds.select(s.space, s.bytes);
    const double ready = proto == Protocol::Rendezvous
                             ? std::max(s.post_time, r.post_time)
                             : s.post_time;
    matched_scratch_.push_back({s, r, ready});
    ++si;
    ++ri;
  }
  if (si < sends_.size()) {
    const PendingOp& s = sends_[send_order_scratch_[si]];
    fail_resolve("unmatched send " + std::to_string(s.self) + "->" +
                 std::to_string(s.peer) + " tag " + std::to_string(s.tag));
  }
  if (ri < recvs_.size()) {
    fail_resolve(std::to_string(recvs_.size() - ri) +
                 " unmatched receive(s)");
  }

  // Queue-search cost: proportional to how many receives each rank has
  // posted in this resolution batch (a proxy for posted-queue length).
  recv_depth_scratch_.assign(static_cast<std::size_t>(topo_.num_ranks()), 0);
  for (const PendingOp& r : recvs_) ++recv_depth_scratch_[r.self];

  bool has_deps = false;
  for (const PendingOp& s : sends_) {
    if (s.dep_seq >= 0) {
      has_deps = true;
      break;
    }
  }

  // A mid-plan FaultAbort honors the same failure contract as a matching
  // failure: every pending operation is dropped so the engine is reusable
  // (reset() for full recovery), then the structured error propagates.
  try {
    if (!has_deps) {
      // ---- Schedule in global ready order (deterministic tie-break). ----
      // (ready, send.seq) is a strict total order -- seqs are unique -- so
      // the sorted schedule is independent of the matching order above.
      // This is the historical path, taken by every plan without
      // depends_on edges.
      std::sort(matched_scratch_.begin(), matched_scratch_.end(),
                [](const Matched& a, const Matched& b) {
                  if (a.ready != b.ready) return a.ready < b.ready;
                  return a.send.seq < b.send.seq;
                });
      for (Matched& m : matched_scratch_) schedule(m, recv_depth_scratch_);
    } else {
      resolve_waves();
    }
  } catch (...) {
    sends_.clear();
    recvs_.clear();
    throw;
  }

  sends_.clear();
  recvs_.clear();
}

void Engine::resolve_waves() {
  // Dependency-wave scheduling: chunk k+1's transfer is ready no earlier
  // than chunk k's completion.  Transfers are bucketed by dep-chain depth
  // (wave) and scheduled wave by wave; within a wave the order is the same
  // strict (adjusted ready, send seq) total order the dep-free path uses
  // globally, so a plan whose dep edges never bind reproduces the dep-free
  // schedule exactly.
  const std::size_t m_count = matched_scratch_.size();
  seq_to_matched_scratch_.assign(static_cast<std::size_t>(next_seq_), -1);
  for (std::size_t i = 0; i < m_count; ++i) {
    seq_to_matched_scratch_[static_cast<std::size_t>(
        matched_scratch_[i].send.seq)] = static_cast<std::int32_t>(i);
  }
  matched_dep_scratch_.assign(m_count, -1);
  matched_depth_scratch_.assign(m_count, 0);
  std::int32_t max_depth = 0;
  // Send seqs increase with posting order and every dep targets an earlier
  // request, so a seq-order walk sees each dependency before its dependent
  // (acyclic by construction).
  for (int s = 0; s < next_seq_; ++s) {
    const std::int32_t i = seq_to_matched_scratch_[static_cast<std::size_t>(s)];
    if (i < 0) continue;
    const int dep_seq = matched_scratch_[static_cast<std::size_t>(i)].send.dep_seq;
    if (dep_seq < 0) continue;
    const std::int32_t d =
        seq_to_matched_scratch_[static_cast<std::size_t>(dep_seq)];
    if (d < 0) {
      fail_resolve("send " + std::to_string(s) +
                   " depends on request " + std::to_string(dep_seq) +
                   ", which is not a send");
    }
    matched_dep_scratch_[static_cast<std::size_t>(i)] = d;
    matched_depth_scratch_[static_cast<std::size_t>(i)] =
        matched_depth_scratch_[static_cast<std::size_t>(d)] + 1;
    max_depth = std::max(max_depth,
                         matched_depth_scratch_[static_cast<std::size_t>(i)]);
  }

  matched_completion_scratch_.assign(m_count, 0.0);
  for (std::int32_t wave = 0; wave <= max_depth; ++wave) {
    wave_order_scratch_.clear();
    for (std::size_t i = 0; i < m_count; ++i) {
      if (matched_depth_scratch_[i] != wave) continue;
      const std::int32_t d = matched_dep_scratch_[i];
      if (d >= 0) {
        matched_scratch_[i].ready =
            std::max(matched_scratch_[i].ready,
                     matched_completion_scratch_[static_cast<std::size_t>(d)]);
      }
      wave_order_scratch_.push_back(static_cast<std::uint32_t>(i));
    }
    std::sort(wave_order_scratch_.begin(), wave_order_scratch_.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                const Matched& ma = matched_scratch_[a];
                const Matched& mb = matched_scratch_[b];
                if (ma.ready != mb.ready) return ma.ready < mb.ready;
                return ma.send.seq < mb.send.seq;
              });
    for (const std::uint32_t i : wave_order_scratch_) {
      matched_completion_scratch_[i] =
          schedule(matched_scratch_[i], recv_depth_scratch_);
    }
  }
}

double Engine::schedule(const Matched& m,
                        const std::vector<int>& recv_queue_depth) {
  const PendingOp& s = m.send;
  const std::uint8_t path_id = paths_.path_of(s.self, s.peer);
  const PathClass path = paths_.locality_of(path_id);
  const Protocol proto = params_.thresholds.select(s.space, s.bytes);
  const PostalParams pp = params_.messages.get(s.space, proto, path_id);
  const double size = static_cast<double>(s.bytes);

  MessageSchedule msg;
  msg.src = s.self;
  msg.dst = s.peer;
  msg.bytes = s.bytes;
  msg.send_occupancy = pp.alpha + pp.beta * size;
  msg.drain_occupancy = pp.beta * size;
  // The queue-search term folds into the noised completion base.
  msg.completion_base =
      msg.send_occupancy +
      params_.overheads.queue_search_per_entry * recv_queue_depth[s.peer];
  msg.rail = static_cast<std::int8_t>(s.rail);
  msg.off_node = path == PathClass::OffNode;
  msg.rendezvous = proto == Protocol::Rendezvous;
  if (msg.off_node) {
    const double inv_rate = s.space == MemSpace::Host
                                ? params_.injection.inv_rate_cpu
                                : params_.injection.inv_rate_gpu;
    msg.src_node = topo_.node_of_rank(s.self);
    msg.dst_node = topo_.node_of_rank(s.peer);
    if (s.rail >= 0) {
      // Explicit rail assignment (striped plans): pin both endpoints to the
      // rail's NIC pair instead of the default hash-to-lane choice.
      const int lanes = std::max(1, params_.injection.nics_per_node);
      msg.src_nic = msg.src_node * lanes + s.rail;
      msg.dst_nic = msg.dst_node * lanes + s.rail;
    } else {
      msg.src_nic = nic_of_rank_[s.self];
      msg.dst_nic = nic_of_rank_[s.peer];
    }
    msg.nic_occupancy =
        inv_rate * size + params_.overheads.nic_message_overhead;
  }

  const double completion = transfer<Hooks::All>(
      msg, {s.tag, s.space, proto, path_id, path}, m.ready);
  if (msg.off_node) {
    network_bytes_ += s.bytes;
    ++network_messages_;
  }
  return completion;
}

double Engine::clock(int rank) const {
  check_rank(rank);
  return clock_[rank];
}

double Engine::max_clock() const {
  return max_nonnegative(clock_.data(), clock_.size());
}

double max_nonnegative(const double* values, std::size_t n) noexcept {
  double m0 = 0.0;
  double m1 = 0.0;
  double m2 = 0.0;
  double m3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    m0 = m0 < values[i] ? values[i] : m0;
    m1 = m1 < values[i + 1] ? values[i + 1] : m1;
    m2 = m2 < values[i + 2] ? values[i + 2] : m2;
    m3 = m3 < values[i + 3] ? values[i + 3] : m3;
  }
  for (; i < n; ++i) m0 = m0 < values[i] ? values[i] : m0;
  m0 = m0 < m1 ? m1 : m0;
  m2 = m2 < m3 ? m3 : m2;
  return m0 < m2 ? m2 : m0;
}

void Engine::reset() {
  std::fill(clock_.begin(), clock_.end(), 0.0);
  for (auto& r : send_port_) r.reset();
  for (auto& r : recv_port_) r.reset();
  for (auto& r : nic_out_) r.reset();
  for (auto& r : nic_in_) r.reset();
  for (auto& r : dma_h2d_) r.reset();
  for (auto& r : dma_d2h_) r.reset();
  if (fabric_) fabric_->reset();
  sends_.clear();
  recvs_.clear();
  next_seq_ = 0;
  trace_.clear();
  network_bytes_ = 0;
  network_messages_ = 0;
  fault_msg_counter_ = 0;
}

void Engine::reset(std::uint64_t noise_seed) {
  reset();
  noise_.reseed(noise_seed);
  run_seed_ = noise_seed;
  refresh_fault_stream();
}

PostalParams copy_params_for(const CopyParamTable& table, CopyDir dir,
                             int np) {
  if (np < 1) throw std::invalid_argument("copy_params_for: np must be >= 1");
  const PostalParams& one = table.get(dir, 1);
  const PostalParams& shared = table.get(dir, table.shared_procs);
  if (np == 1) return one;
  if (np >= table.shared_procs) {
    // Beyond the measured sharing level the paper observed no benefit in
    // splitting further: keep the *aggregate* throughput flat (per-process
    // rate degrades proportionally) and let the per-copy latency grow with
    // the number of time-sliced MPS clients.
    const double factor = static_cast<double>(np) / table.shared_procs;
    PostalParams out = shared;
    out.alpha = shared.alpha * factor;
    out.beta = shared.beta * factor;
    return out;
  }
  // Geometric interpolation in log(np) between the two measured rows.
  const double f = std::log(static_cast<double>(np)) /
                   std::log(static_cast<double>(table.shared_procs));
  PostalParams out;
  out.alpha = one.alpha * std::pow(shared.alpha / one.alpha, f);
  out.beta = one.beta * std::pow(shared.beta / one.beta, f);
  return out;
}

}  // namespace hetcomm
