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
  for (const detail::NodePair& pair : traffic) {
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

  // ---- Cut each node pair's flow list into chunks of <= effective cap. ----
  for (const detail::NodePair& pair : traffic) {
    const int src_node = pair.src_node;
    const int dst_node = pair.dst_node;
    const std::int64_t cap = setup.node_info.at(dst_node).effective_cap;

    SplitChunk current;
    current.src_node = src_node;
    current.dst_node = dst_node;
    auto flush = [&]() {
      if (current.bytes > 0 || !current.slices.empty()) {
        setup.chunks.push_back(std::move(current));
        current = SplitChunk{};
        current.src_node = src_node;
        current.dst_node = dst_node;
      }
    };

    for (const detail::Flow& f : pair.flows) {
      std::int64_t remaining = f.wire_bytes;
      std::int64_t payload_left = f.bytes;
      if (remaining == 0 && payload_left > 0) {
        // Fully duplicated flow: nothing extra crosses the wire, but the
        // destination GPU still receives its payload via redistribution.
        current.slices.push_back({f.src_gpu, f.dst_gpu, 0, payload_left});
        continue;
      }
      while (remaining > 0) {
        const std::int64_t room = cap - current.bytes;
        const std::int64_t take = std::min(remaining, room);
        // Proportional share of the payload; the last slice absorbs the
        // rounding remainder so payload is conserved exactly.
        const std::int64_t payload_take =
            take == remaining ? payload_left : f.bytes * take / f.wire_bytes;
        current.slices.push_back({f.src_gpu, f.dst_gpu, take, payload_take});
        current.bytes += take;
        remaining -= take;
        payload_left -= payload_take;
        if (current.bytes >= cap) flush();
      }
    }
    flush();
  }

  // ---- Line 18: sender/receiver assignment, one pass per node. ----
  // Receive side: chunks inbound to node n, descending by size, local ranks
  // 0, 1, 2, ... cyclically.  Send side: chunks outbound from node n,
  // descending by size, local ranks PPN-1, PPN-2, ... cyclically.
  auto order_desc = [](std::vector<SplitChunk*>& v) {
    std::stable_sort(v.begin(), v.end(),
                     [](const SplitChunk* a, const SplitChunk* b) {
                       if (a->bytes != b->bytes) return a->bytes > b->bytes;
                       if (a->src_node != b->src_node)
                         return a->src_node < b->src_node;
                       return a->dst_node < b->dst_node;
                     });
  };

  const auto num_nodes = static_cast<std::size_t>(topo.num_nodes());
  std::vector<std::vector<SplitChunk*>> inbound(num_nodes);
  std::vector<std::vector<SplitChunk*>> outbound(num_nodes);
  for (SplitChunk& c : setup.chunks) {
    inbound[static_cast<std::size_t>(c.dst_node)].push_back(&c);
    outbound[static_cast<std::size_t>(c.src_node)].push_back(&c);
  }

  for (int node = 0; node < topo.num_nodes(); ++node) {
    const int first_rank = node * ppn;
    std::vector<SplitChunk*>& in = inbound[static_cast<std::size_t>(node)];
    order_desc(in);
    for (std::size_t i = 0; i < in.size(); ++i) {
      in[i]->recv_rank = first_rank + static_cast<int>(i % ppn);
    }
    std::vector<SplitChunk*>& out = outbound[static_cast<std::size_t>(node)];
    order_desc(out);
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i]->send_rank = first_rank + ppn - 1 - static_cast<int>(i % ppn);
    }
  }

  return setup;
}

}  // namespace hetcomm::core
