#include "core/split_setup.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/strategies/common.hpp"

namespace hetcomm::core {

std::vector<const SplitChunk*> SplitSetup::recv_chunks(int node) const {
  std::vector<const SplitChunk*> out;
  for (const SplitChunk& c : chunks) {
    if (c.dst_node == node) out.push_back(&c);
  }
  return out;
}

std::vector<const SplitChunk*> SplitSetup::send_chunks(int node) const {
  std::vector<const SplitChunk*> out;
  for (const SplitChunk& c : chunks) {
    if (c.src_node == node) out.push_back(&c);
  }
  return out;
}

SplitSetup split_setup(const CommPattern& pattern, const Topology& topo,
                       std::int64_t message_cap) {
  if (message_cap <= 0) {
    throw std::invalid_argument("split_setup: message_cap must be positive");
  }

  const detail::NodeTraffic traffic = detail::internode_traffic(pattern, topo);
  const int ppn = topo.ppn();
  SplitSetup setup;

  // ---- Lines 10-11: per-receiving-node volumes (Table 1 parameters).
  //      Volumes are deduplicated (wire) sizes: split removes the data
  //      redundancy of standard communication. ----
  for (const detail::NodePair& pair : traffic.pairs) {
    SplitNodeInfo& info = setup.node_info[pair.dst_node];
    info.total_in_recv_vol += pair.wire_bytes;
    info.max_in_recv_size = std::max(info.max_in_recv_size, pair.wire_bytes);
    ++info.num_in_nodes;
  }

  // ---- Lines 12-17: effective message cap per receiving node. ----
  for (auto& [node, info] : setup.node_info) {
    if (info.max_in_recv_size < message_cap) {
      // Conglomerate: one message per source node; use an unbounded cap.
      info.effective_cap = info.max_in_recv_size;
    } else {
      const std::int64_t per_ppn =
          (info.total_in_recv_vol + ppn - 1) / ppn;  // ceil
      info.effective_cap = std::max(message_cap, per_ppn);
    }
    if (info.effective_cap <= 0) info.effective_cap = 1;
  }

  // A pair of w wire bytes fills at most w / cap chunks and leaves at most
  // one partial chunk; each chunk boundary cuts at most one flow in two.
  std::size_t max_chunks = 0;
  for (const detail::NodePair& pair : traffic.pairs) {
    max_chunks += static_cast<std::size_t>(
        pair.wire_bytes / setup.node_info.at(pair.dst_node).effective_cap + 1);
  }
  setup.chunks.reserve(max_chunks);
  setup.slices.reserve(traffic.flows.size() + max_chunks);

  // ---- Cut each node pair's flow list into chunks of <= effective cap. ----
  for (const detail::NodePair& pair : traffic.pairs) {
    const int src_node = pair.src_node;
    const int dst_node = pair.dst_node;
    const std::int64_t cap = setup.node_info.at(dst_node).effective_cap;

    SplitChunk current;
    const auto start = [&] {
      current = SplitChunk{};
      current.src_node = src_node;
      current.dst_node = dst_node;
      current.first_slice = static_cast<std::uint32_t>(setup.slices.size());
    };
    const auto add_slice = [&](const FlowSlice& slice) {
      setup.slices.push_back(slice);
      ++current.num_slices;
    };
    const auto flush = [&] {
      if (current.bytes > 0 || current.num_slices > 0) {
        setup.chunks.push_back(current);
        start();
      }
    };
    start();

    for (const detail::Flow& f : traffic.flows_of(pair)) {
      std::int64_t remaining = f.wire_bytes;
      std::int64_t payload_left = f.bytes;
      if (remaining == 0 && payload_left > 0) {
        // Fully duplicated flow: nothing extra crosses the wire, but the
        // destination GPU still receives its payload via redistribution.
        add_slice({f.src_gpu, f.dst_gpu, 0, payload_left});
        continue;
      }
      while (remaining > 0) {
        const std::int64_t room = cap - current.bytes;
        const std::int64_t take = std::min(remaining, room);
        // Proportional share of the payload; the last slice absorbs the
        // rounding remainder so payload is conserved exactly.
        const std::int64_t payload_take =
            take == remaining ? payload_left : f.bytes * take / f.wire_bytes;
        add_slice({f.src_gpu, f.dst_gpu, take, payload_take});
        current.bytes += take;
        remaining -= take;
        payload_left -= payload_take;
        if (current.bytes >= cap) flush();
      }
    }
    flush();
  }

  // ---- Line 18: sender/receiver assignment, one sort per side. ----
  // Receive side: chunks inbound to node n, descending by size, local ranks
  // 0, 1, 2, ... cyclically.  Send side: chunks outbound from node n,
  // descending by size, local ranks PPN-1, PPN-2, ... cyclically.  Each
  // side sorts all chunk indices by (node, bytes descending, source node,
  // destination node, index); the index makes the order total, so it is
  // the stable order of each node's group, and a chunk's local rank
  // follows from its position within that group.
  std::vector<std::uint32_t> order(setup.chunks.size());
  const auto assign = [&](auto node_of, auto set_rank) {
    for (std::size_t i = 0; i < order.size(); ++i) {
      order[i] = static_cast<std::uint32_t>(i);
    }
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t ia, std::uint32_t ib) {
                const SplitChunk& a = setup.chunks[ia];
                const SplitChunk& b = setup.chunks[ib];
                if (node_of(a) != node_of(b)) return node_of(a) < node_of(b);
                if (a.bytes != b.bytes) return a.bytes > b.bytes;
                if (a.src_node != b.src_node) return a.src_node < b.src_node;
                if (a.dst_node != b.dst_node) return a.dst_node < b.dst_node;
                return ia < ib;
              });
    int group_node = -1;
    int position = 0;
    for (const std::uint32_t i : order) {
      SplitChunk& c = setup.chunks[i];
      if (node_of(c) != group_node) {
        group_node = node_of(c);
        position = 0;
      }
      set_rank(c, group_node * ppn, position++ % ppn);
    }
  };
  assign([](const SplitChunk& c) { return c.dst_node; },
         [](SplitChunk& c, int first_rank, int local) {
           c.recv_rank = first_rank + local;
         });
  assign([](const SplitChunk& c) { return c.src_node; },
         [ppn](SplitChunk& c, int first_rank, int local) {
           c.send_rank = first_rank + ppn - 1 - local;
         });

  return setup;
}

}  // namespace hetcomm::core
