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

#include <cstdint>
#include <span>
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

/// Every chunk's per-GPU parts, chunk after chunk: chunk c's source parts
/// are src[src_begin[c] .. src_begin[c + 1]) and its destination parts
/// dst[dst_begin[c] .. dst_begin[c + 1]), each in ascending GPU order.
/// Source parts sum wire (deduplicated) bytes -- what is staged, scattered
/// and injected; destination parts sum payload bytes -- what the receiving
/// GPUs must end up with after redistribution.  Under Split+DD each part
/// also has its holder rank, computed once so the copy and message phases
/// agree on data provenance.
struct ChunkParts {
  std::vector<GpuBytes> src;
  std::vector<GpuBytes> dst;
  std::vector<std::uint32_t> src_begin;  ///< one per chunk, plus the end
  std::vector<std::uint32_t> dst_begin;
  std::vector<int> src_holder;  ///< indexed like `src`; empty under MD
  std::vector<int> dst_holder;  ///< indexed like `dst`; empty under MD
};

ChunkParts chunk_parts(const SplitSetup& setup, const Topology& topo, bool dd,
                       int ppg) {
  ChunkParts p;
  const std::size_t num_slices = setup.slices.size();
  p.src.reserve(num_slices);
  p.dst.reserve(num_slices);
  p.src_begin.reserve(setup.chunks.size() + 1);
  p.dst_begin.reserve(setup.chunks.size() + 1);
  if (dd) {
    p.src_holder.reserve(num_slices);
    p.dst_holder.reserve(num_slices);
  }
  // Appends one chunk's parts of one side and merges them by GPU on their
  // own subrange.
  const auto append = [](std::vector<GpuBytes>& parts,
                         std::vector<std::uint32_t>& begin,
                         std::span<const FlowSlice> slices, auto part_of) {
    const std::size_t first = parts.size();
    begin.push_back(static_cast<std::uint32_t>(first));
    for (const FlowSlice& s : slices) parts.push_back(part_of(s));
    parts.resize(first + sum_by_gpu(std::span<GpuBytes>(parts).subspan(first)));
  };
  // Per GPU: how many holders it has handed out so far, per side.
  std::vector<int> send_cursor(dd ? static_cast<std::size_t>(topo.num_gpus())
                                  : 0);
  std::vector<int> recv_cursor(send_cursor.size());
  for (const SplitChunk& chunk : setup.chunks) {
    const std::span<const FlowSlice> slices = setup.slices_of(chunk);
    append(p.src, p.src_begin, slices, [](const FlowSlice& s) {
      return GpuBytes{s.src_gpu, s.bytes};
    });
    append(p.dst, p.dst_begin, slices, [](const FlowSlice& s) {
      return GpuBytes{s.dst_gpu, s.payload_bytes};
    });
    if (!dd) continue;
    for (std::size_t i = p.src_begin.back(); i < p.src.size(); ++i) {
      const int gpu = p.src[i].gpu;
      p.src_holder.push_back(holder_rank(
          topo, gpu, ppg, send_cursor[static_cast<std::size_t>(gpu)]++));
    }
    for (std::size_t i = p.dst_begin.back(); i < p.dst.size(); ++i) {
      const int gpu = p.dst[i].gpu;
      p.dst_holder.push_back(holder_rank(
          topo, gpu, ppg, recv_cursor[static_cast<std::size_t>(gpu)]++));
    }
  }
  p.src_begin.push_back(static_cast<std::uint32_t>(p.src.size()));
  p.dst_begin.push_back(static_cast<std::uint32_t>(p.dst.size()));
  return p;
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
  plan.phases.reserve(6);

  const SplitSetup setup = split_setup(pattern, topo, cap);
  const ChunkParts parts = chunk_parts(setup, topo, dd, ppg);
  const auto num_gpus = static_cast<std::size_t>(pattern.num_gpus());

  // ---- Staging copies, device to host. ----
  //
  // Intra-node-destined data always goes through the owner in one copy.
  // Inter-node data: MD copies it in one shot per GPU; DD performs one
  // shared-parameter copy per (chunk, source GPU) contribution by the
  // assigned holder.
  {
    PlanPhase phase;
    phase.label = "d2h";
    phase.ops.reserve(dd ? num_gpus + parts.src.size() : 2 * num_gpus);
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
      for (std::size_t i = 0; i < parts.src.size(); ++i) {
        phase.ops.push_back(PlanOp::copy(parts.src_holder[i],
                                         parts.src[i].gpu,
                                         CopyDir::DeviceToHost,
                                         parts.src[i].bytes, ppg));
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
    phase.ops.reserve(parts.src.size());
    int tag = kTagScatter;
    for (std::size_t ci = 0; ci < setup.chunks.size(); ++ci) {
      const SplitChunk& chunk = setup.chunks[ci];
      for (std::size_t i = parts.src_begin[ci]; i < parts.src_begin[ci + 1];
           ++i) {
        const int source_rank = dd ? parts.src_holder[i]
                                   : topo.owner_rank_of_gpu(parts.src[i].gpu);
        if (source_rank == chunk.send_rank) continue;
        phase.ops.push_back(PlanOp::message(source_rank, chunk.send_rank,
                                            parts.src[i].bytes, tag++,
                                            MemSpace::Host));
      }
    }
    if (!phase.ops.empty()) plan.phases.push_back(std::move(phase));
  }

  // ---- Algorithm 2 line 3: global_comm, inter-node chunk exchange. ----
  {
    PlanPhase phase;
    phase.label = "global";
    phase.ops.reserve(setup.chunks.size());
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
    phase.ops.reserve(parts.dst.size());
    int tag = kTagRedist;
    for (std::size_t ci = 0; ci < setup.chunks.size(); ++ci) {
      const SplitChunk& chunk = setup.chunks[ci];
      for (std::size_t i = parts.dst_begin[ci]; i < parts.dst_begin[ci + 1];
           ++i) {
        const int target_rank = dd ? parts.dst_holder[i]
                                   : topo.owner_rank_of_gpu(parts.dst[i].gpu);
        if (target_rank == chunk.recv_rank) continue;
        phase.ops.push_back(PlanOp::message(chunk.recv_rank, target_rank,
                                            parts.dst[i].bytes, tag++,
                                            MemSpace::Host));
      }
    }
    if (!phase.ops.empty()) plan.phases.push_back(std::move(phase));
  }

  // ---- Staging copies, host to device (mirror of the D2H phase). ----
  {
    PlanPhase phase;
    phase.label = "h2d";
    phase.ops.reserve(dd ? num_gpus + parts.dst.size() : 2 * num_gpus);
    // Per destination GPU: payload arriving from off-node.
    std::vector<std::int64_t> inter_recv(num_gpus, 0);
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
      for (std::size_t i = 0; i < parts.dst.size(); ++i) {
        phase.ops.push_back(PlanOp::copy(parts.dst_holder[i],
                                         parts.dst[i].gpu,
                                         CopyDir::HostToDevice,
                                         parts.dst[i].bytes, ppg));
      }
    }
    if (!phase.ops.empty()) plan.phases.push_back(std::move(phase));
  }

  return plan;
}

}  // namespace hetcomm::core::detail
