// Split node-aware communication (paper §2.3.3, Algorithms 1 and 2).
//
// Inter-node volumes are conglomerated per node pair, cut into chunks no
// larger than the (effective) message cap, and spread across on-node
// processes before injection, so every CPU core participates in network
// communication.  Two staging variants:
//
//   Split+MD  -- each GPU's data is copied to its single host process in one
//                cudaMemcpyAsync, which then distributes chunk payloads to
//                the assigned sender ranks with extra on-node messages.
//   Split+DD  -- `ppg` host processes per GPU hold duplicate device pointers
//                (CUDA MPS style): each chunk's contribution is copied
//                directly by one of the holders with the (worse) shared-copy
//                parameters, one copy *per chunk contribution*.  Fewer
//                on-node bytes concentrate on a single process, but every
//                copy pays the duplicate-device-pointer latency (~1.5e-5 s)
//                where Split+MD pays an on-socket message latency (~4e-7 s).
//                This is exactly the trade-off the paper identifies in §5.1.
//
// Device-aware transport does not apply to split strategies (Table 5).

#include <stdexcept>
#include <vector>

#include "core/split_setup.hpp"
#include "core/strategies/common.hpp"
#include "core/strategy.hpp"

namespace hetcomm::core::detail {

namespace {

/// The k-th holder rank of a GPU under Split+DD: `ppg` cores on the GPU's
/// socket, disjoint between the socket's GPUs when capacity allows, taken
/// round-robin so load spreads over them.
int holder_rank(const Topology& topo, int gpu, int ppg, int k) {
  const GpuLocation loc = topo.gpu_location(gpu);
  const int core = (loc.index_on_socket * ppg + k % ppg) % topo.pps();
  return topo.rank_of(loc.node, loc.socket, core);
}

/// One chunk's per-GPU parts, each in ascending GPU order.  Source parts
/// sum wire (deduplicated) bytes -- what is staged, scattered and
/// injected; destination parts sum payload bytes -- what the receiving
/// GPUs must end up with after redistribution.  Under Split+DD each part
/// also has its holder rank, computed once so the copy and message phases
/// agree on data provenance.
struct ChunkParts {
  std::vector<GpuBytes> src;
  std::vector<GpuBytes> dst;
  std::vector<int> src_holder;  ///< indexed like `src`; empty under MD
  std::vector<int> dst_holder;  ///< indexed like `dst`; empty under MD
};

std::vector<ChunkParts> chunk_parts(const SplitSetup& setup,
                                    const Topology& topo, bool dd, int ppg) {
  std::vector<ChunkParts> parts(setup.chunks.size());
  // Per GPU: how many holders it has handed out so far, per side.
  std::vector<int> send_cursor(dd ? static_cast<std::size_t>(topo.num_gpus())
                                  : 0);
  std::vector<int> recv_cursor(send_cursor.size());
  for (std::size_t ci = 0; ci < setup.chunks.size(); ++ci) {
    ChunkParts& p = parts[ci];
    for (const FlowSlice& s : setup.chunks[ci].slices) {
      p.src.push_back({s.src_gpu, s.bytes});
      p.dst.push_back({s.dst_gpu, s.payload_bytes});
    }
    sum_by_gpu(p.src);
    sum_by_gpu(p.dst);
    if (!dd) continue;
    for (const GpuBytes& part : p.src) {
      p.src_holder.push_back(holder_rank(
          topo, part.gpu, ppg,
          send_cursor[static_cast<std::size_t>(part.gpu)]++));
    }
    for (const GpuBytes& part : p.dst) {
      p.dst_holder.push_back(holder_rank(
          topo, part.gpu, ppg,
          recv_cursor[static_cast<std::size_t>(part.gpu)]++));
    }
  }
  return parts;
}

}  // namespace

CommPlan build_split(const CommPattern& pattern, const Topology& topo,
                     const ParamSet& params, const StrategyConfig& config) {
  if (config.transport != MemSpace::Host) {
    throw std::invalid_argument(
        "split strategies are staged-through-host only (paper Table 5)");
  }
  const bool dd = config.kind == StrategyKind::SplitDD;
  const int ppg = dd ? config.ppg : 1;
  if (dd && (ppg < 1 || ppg > topo.pps())) {
    throw std::invalid_argument("split+DD: ppg out of range");
  }

  const std::int64_t cap =
      config.message_cap > 0 ? config.message_cap : params.thresholds.eager_max;

  CommPlan plan;
  plan.strategy_name = config.name();

  const SplitSetup setup = split_setup(pattern, topo, cap);
  const std::vector<ChunkParts> parts = chunk_parts(setup, topo, dd, ppg);

  // ---- Staging copies, device to host. ----
  //
  // Intra-node-destined data always goes through the owner in one copy.
  // Inter-node data: MD copies it in one shot per GPU; DD performs one
  // shared-parameter copy per (chunk, source GPU) contribution by the
  // assigned holder.
  {
    PlanPhase phase;
    phase.label = "d2h";
    for (int gpu = 0; gpu < pattern.num_gpus(); ++gpu) {
      const std::int64_t intra = intra_send_bytes(pattern, topo, gpu);
      const int owner = topo.owner_rank_of_gpu(gpu);
      if (intra > 0) {
        phase.ops.push_back(
            PlanOp::copy(owner, gpu, CopyDir::DeviceToHost, intra));
      }
      if (dd) continue;
      // Staged send volume is the deduplicated one: the send buffer holds
      // each datum once per destination node.
      const std::int64_t inter = dedup_send_bytes(pattern, topo, gpu);
      if (inter > 0) {
        phase.ops.push_back(
            PlanOp::copy(owner, gpu, CopyDir::DeviceToHost, inter));
      }
    }
    if (dd) {
      for (const ChunkParts& p : parts) {
        for (std::size_t i = 0; i < p.src.size(); ++i) {
          phase.ops.push_back(PlanOp::copy(p.src_holder[i], p.src[i].gpu,
                                           CopyDir::DeviceToHost,
                                           p.src[i].bytes, ppg));
        }
      }
    }
    if (!phase.ops.empty()) plan.phases.push_back(std::move(phase));
  }

  // ---- Algorithm 2 line 1: local_comm, on-node exchanges. ----
  append_local_phase(plan, pattern, topo, MemSpace::Host);

  // ---- Algorithm 2 line 2: local_Scomm, distribute chunk payloads to the
  //      assigned sender ranks. ----
  {
    PlanPhase phase;
    phase.label = "scatter";
    int tag = kTagScatter;
    for (std::size_t ci = 0; ci < setup.chunks.size(); ++ci) {
      const SplitChunk& chunk = setup.chunks[ci];
      const ChunkParts& p = parts[ci];
      for (std::size_t i = 0; i < p.src.size(); ++i) {
        const int source_rank =
            dd ? p.src_holder[i] : topo.owner_rank_of_gpu(p.src[i].gpu);
        if (source_rank == chunk.send_rank) continue;
        phase.ops.push_back(PlanOp::message(source_rank, chunk.send_rank,
                                            p.src[i].bytes, tag++,
                                            MemSpace::Host));
      }
    }
    if (!phase.ops.empty()) plan.phases.push_back(std::move(phase));
  }

  // ---- Algorithm 2 line 3: global_comm, inter-node chunk exchange. ----
  {
    PlanPhase phase;
    phase.label = "global";
    int tag = kTagGlobal;
    for (const SplitChunk& chunk : setup.chunks) {
      phase.ops.push_back(PlanOp::message(chunk.send_rank, chunk.recv_rank,
                                          chunk.bytes, tag++, MemSpace::Host));
    }
    if (!phase.ops.empty()) plan.phases.push_back(std::move(phase));
  }

  // ---- Algorithm 2 line 4: local_Rcomm, redistribute received chunks. ----
  {
    PlanPhase phase;
    phase.label = "redistribute";
    int tag = kTagRedist;
    for (std::size_t ci = 0; ci < setup.chunks.size(); ++ci) {
      const SplitChunk& chunk = setup.chunks[ci];
      const ChunkParts& p = parts[ci];
      for (std::size_t i = 0; i < p.dst.size(); ++i) {
        const int target_rank =
            dd ? p.dst_holder[i] : topo.owner_rank_of_gpu(p.dst[i].gpu);
        if (target_rank == chunk.recv_rank) continue;
        phase.ops.push_back(PlanOp::message(chunk.recv_rank, target_rank,
                                            p.dst[i].bytes, tag++,
                                            MemSpace::Host));
      }
    }
    if (!phase.ops.empty()) plan.phases.push_back(std::move(phase));
  }

  // ---- Staging copies, host to device (mirror of the D2H phase). ----
  {
    PlanPhase phase;
    phase.label = "h2d";
    // Per destination GPU: payload arriving from off-node.
    std::vector<std::int64_t> inter_recv(
        static_cast<std::size_t>(pattern.num_gpus()), 0);
    for (int src = 0; src < pattern.num_gpus(); ++src) {
      const int src_node = topo.gpu_location(src).node;
      for (const GpuMessage& m : pattern.sends_from(src)) {
        if (topo.gpu_location(m.dst_gpu).node == src_node) continue;
        inter_recv[static_cast<std::size_t>(m.dst_gpu)] += m.bytes;
      }
    }
    for (int gpu = 0; gpu < pattern.num_gpus(); ++gpu) {
      const std::int64_t inter = inter_recv[static_cast<std::size_t>(gpu)];
      const std::int64_t intra = pattern.recv_bytes(gpu) - inter;
      const int owner = topo.owner_rank_of_gpu(gpu);
      if (intra > 0) {
        phase.ops.push_back(
            PlanOp::copy(owner, gpu, CopyDir::HostToDevice, intra));
      }
      if (inter > 0 && !dd) {
        phase.ops.push_back(
            PlanOp::copy(owner, gpu, CopyDir::HostToDevice, inter));
      }
    }
    if (dd) {
      for (const ChunkParts& p : parts) {
        for (std::size_t i = 0; i < p.dst.size(); ++i) {
          phase.ops.push_back(PlanOp::copy(p.dst_holder[i], p.dst[i].gpu,
                                           CopyDir::HostToDevice,
                                           p.dst[i].bytes, ppg));
        }
      }
    }
    if (!phase.ops.empty()) plan.phases.push_back(std::move(phase));
  }

  return plan;
}

}  // namespace hetcomm::core::detail
