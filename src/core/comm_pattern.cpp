#include "core/comm_pattern.hpp"

#include <algorithm>
#include <functional>
#include <span>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>

namespace hetcomm::core {

CommPattern::CommPattern(int num_gpus) {
  if (num_gpus <= 0) {
    throw std::invalid_argument("CommPattern: num_gpus must be positive");
  }
  const auto n = static_cast<std::size_t>(num_gpus);
  sends_.resize(n);
  send_total_.assign(n, 0);
  recv_total_.assign(n, 0);
}

void CommPattern::check_gpu(int gpu) const {
  if (gpu < 0 || gpu >= num_gpus()) {
    throw std::out_of_range("CommPattern: gpu " + std::to_string(gpu) +
                            " out of range [0," + std::to_string(num_gpus()) +
                            ")");
  }
}

void CommPattern::check_room(std::int64_t extra) const {
  if (extra > std::numeric_limits<std::int64_t>::max() - total_bytes_ -
                  dedup_bytes_) {
    throw std::invalid_argument("CommPattern: total bytes overflow int64");
  }
}

void CommPattern::add(int src_gpu, int dst_gpu, std::int64_t bytes) {
  check_gpu(src_gpu);
  check_gpu(dst_gpu);
  if (bytes < 0) throw std::invalid_argument("CommPattern::add: negative size");
  if (bytes == 0 || src_gpu == dst_gpu) return;
  check_room(bytes);
  std::vector<GpuMessage>& row = sends_[static_cast<std::size_t>(src_gpu)];
  auto it = std::ranges::lower_bound(row, dst_gpu, {}, &GpuMessage::dst_gpu);
  if (it == row.end() || it->dst_gpu != dst_gpu) {
    it = row.insert(it, GpuMessage{dst_gpu, 0, 0});
  }
  it->bytes += bytes;
  ++it->count;
  send_total_[static_cast<std::size_t>(src_gpu)] += bytes;
  recv_total_[static_cast<std::size_t>(dst_gpu)] += bytes;
  total_bytes_ += bytes;
  ++total_messages_;
}

void CommPattern::add_sorted(int src_gpu, std::span<const int> dsts,
                             std::int64_t bytes) {
  check_gpu(src_gpu);
  if (bytes < 0) throw std::invalid_argument("CommPattern::add: negative size");
  if (bytes == 0) return;
  std::vector<GpuMessage>& row = sends_[static_cast<std::size_t>(src_gpu)];
  std::size_t distinct = 0;
  for (std::size_t i = 0; i < dsts.size(); ++i) {
    distinct += i == 0 || dsts[i] != dsts[i - 1];
  }
  row.reserve(distinct);
  for (std::size_t i = 0; i < dsts.size();) {
    const int dst = dsts[i];
    check_gpu(dst);
    std::size_t n = 1;
    while (i + n < dsts.size() && dsts[i + n] == dst) ++n;
    i += n;
    if (dst == src_gpu) continue;
    // check_room() of the n adds at once: one of them fails exactly when
    // n * bytes exceeds the room left.
    const auto count = static_cast<std::int64_t>(n);
    if (bytes > (std::numeric_limits<std::int64_t>::max() - total_bytes_ -
                 dedup_bytes_) / count) {
      throw std::invalid_argument("CommPattern: total bytes overflow int64");
    }
    const std::int64_t sum = bytes * count;
    row.push_back({dst, sum, static_cast<int>(n)});
    send_total_[static_cast<std::size_t>(src_gpu)] += sum;
    recv_total_[static_cast<std::size_t>(dst)] += sum;
    total_bytes_ += sum;
    total_messages_ += count;
  }
}

std::span<const GpuMessage> CommPattern::sends_from(int src_gpu) const {
  check_gpu(src_gpu);
  return sends_[static_cast<std::size_t>(src_gpu)];
}

std::vector<GpuMessage> CommPattern::recvs_to(int dst_gpu) const {
  check_gpu(dst_gpu);
  std::vector<GpuMessage> out;
  for (int src = 0; src < num_gpus(); ++src) {
    const auto& row = sends_[static_cast<std::size_t>(src)];
    const auto it =
        std::ranges::lower_bound(row, dst_gpu, {}, &GpuMessage::dst_gpu);
    if (it != row.end() && it->dst_gpu == dst_gpu) {
      out.push_back({src, it->bytes, it->count});
    }
  }
  return out;
}

std::int64_t CommPattern::bytes(int src_gpu, int dst_gpu) const {
  check_gpu(src_gpu);
  check_gpu(dst_gpu);
  const auto& row = sends_[static_cast<std::size_t>(src_gpu)];
  const auto it =
      std::ranges::lower_bound(row, dst_gpu, {}, &GpuMessage::dst_gpu);
  return it != row.end() && it->dst_gpu == dst_gpu ? it->bytes : 0;
}

void CommPattern::set_node_dedup(int src_gpu, int dst_node,
                                 std::int64_t bytes) {
  check_gpu(src_gpu);
  if (dst_node < 0) {
    throw std::out_of_range("CommPattern::set_node_dedup: bad node");
  }
  if (bytes < 0) {
    throw std::invalid_argument("CommPattern::set_node_dedup: negative size");
  }
  const std::int64_t old =
      std::max<std::int64_t>(node_dedup_bytes(src_gpu, dst_node), 0);
  if (bytes > old) check_room(bytes - old);
  if (dedup_.empty()) dedup_.resize(sends_.size());
  std::vector<NodeDedup>& row = dedup_[static_cast<std::size_t>(src_gpu)];
  auto it = std::ranges::lower_bound(row, dst_node, {}, &NodeDedup::node);
  if (it == row.end() || it->node != dst_node) {
    it = row.insert(it, NodeDedup{dst_node, 0});
  }
  dedup_bytes_ += bytes - it->bytes;
  it->bytes = bytes;
}

std::int64_t CommPattern::node_dedup_bytes(int src_gpu, int dst_node) const {
  const std::span<const NodeDedup> row = dedup_from(src_gpu);
  const auto it =
      std::ranges::lower_bound(row, dst_node, {}, &NodeDedup::node);
  return it != row.end() && it->node == dst_node ? it->bytes : -1;
}

std::span<const NodeDedup> CommPattern::dedup_from(int src_gpu) const {
  if (src_gpu < 0 || static_cast<std::size_t>(src_gpu) >= dedup_.size()) {
    return {};
  }
  return dedup_[static_cast<std::size_t>(src_gpu)];
}

void check_dedup(const CommPattern& pattern, const Topology& topo) {
  if (!pattern.has_dedup_info()) return;
  const int gpn = topo.gpn();
  for (int src = 0; src < pattern.num_gpus(); ++src) {
    const std::span<const GpuMessage> sends = pattern.sends_from(src);
    for (const NodeDedup& d : pattern.dedup_from(src)) {
      const auto fail = [&](const std::string& why) {
        throw std::invalid_argument("dedup annotation (gpu " +
                                    std::to_string(src) + ", node " +
                                    std::to_string(d.node) + "): " + why);
      };
      if (d.node >= topo.num_nodes()) {
        fail("the machine has " + std::to_string(topo.num_nodes()) +
             " nodes");
      }
      std::int64_t payload = 0;
      for (const GpuMessage& m : sends) {
        if (m.dst_gpu / gpn == d.node) payload += m.bytes;
      }
      if (d.bytes > payload) {
        fail(std::to_string(d.bytes) + " distinct bytes exceed the " +
             std::to_string(payload) + "-byte payload");
      }
    }
  }
}

namespace {

CommPattern filter(const CommPattern& in, const Topology& topo,
                   bool keep_internode) {
  CommPattern out(in.num_gpus());
  for (int src = 0; src < in.num_gpus(); ++src) {
    const int src_node = topo.gpu_location(src).node;
    for (const GpuMessage& m : in.sends_from(src)) {
      const bool crosses = topo.gpu_location(m.dst_gpu).node != src_node;
      if (crosses != keep_internode) continue;
      // Preserve multiplicity: replay count messages of the average size.
      const std::int64_t each = m.bytes / m.count;
      std::int64_t left = m.bytes;
      for (int i = 0; i < m.count; ++i) {
        const std::int64_t b = i + 1 == m.count ? left : each;
        out.add(src, m.dst_gpu, b);
        left -= b;
      }
    }
  }
  return out;
}

}  // namespace

CommPattern CommPattern::internode_only(const Topology& topo) const {
  if (topo.num_gpus() != num_gpus()) {
    throw std::invalid_argument("CommPattern::internode_only: topology mismatch");
  }
  return filter(*this, topo, /*keep_internode=*/true);
}

CommPattern CommPattern::intranode_only(const Topology& topo) const {
  if (topo.num_gpus() != num_gpus()) {
    throw std::invalid_argument("CommPattern::intranode_only: topology mismatch");
  }
  return filter(*this, topo, /*keep_internode=*/false);
}

PatternStats compute_stats(const CommPattern& pattern, const Topology& topo) {
  if (topo.num_gpus() != pattern.num_gpus()) {
    throw std::invalid_argument("compute_stats: topology mismatch");
  }
  PatternStats st;

  // GPUs are node-major, so a node's GPUs are consecutive and one scratch
  // row per source node, indexed by destination node, holds every
  // node-pair total.
  struct PairTotals {
    std::int64_t bytes = 0;
    std::int64_t bytes_dedup = 0;
    int msgs = 0;
  };
  const int num_nodes = topo.num_nodes();
  const int gpn = topo.gpn();
  std::vector<PairTotals> pairs(static_cast<std::size_t>(num_nodes));

  for (int src_node = 0; src_node < num_nodes; ++src_node) {
    std::fill(pairs.begin(), pairs.end(), PairTotals{});
    std::int64_t injected = 0;
    std::int64_t injected_dedup = 0;
    int active_gpus = 0;
    for (int src = src_node * gpn; src < (src_node + 1) * gpn; ++src) {
      std::int64_t proc_bytes = 0;
      std::int64_t proc_bytes_dedup = 0;
      int proc_msgs = 0;
      int proc_nodes = 0;
      for_each_dst_node(pattern.sends_from(src), gpn, [&](
          int dst_node, std::span<const GpuMessage> run) {
        if (dst_node == src_node) return;
        std::int64_t payload = 0;
        int msgs = 0;
        for (const GpuMessage& m : run) {
          payload += m.bytes;
          msgs += m.count;
        }
        const std::int64_t dedup = pattern.node_dedup_bytes(src, dst_node);
        const std::int64_t wire = dedup >= 0 ? dedup : payload;
        PairTotals& pair = pairs[static_cast<std::size_t>(dst_node)];
        pair.bytes += payload;
        pair.bytes_dedup += wire;
        pair.msgs += msgs;
        proc_bytes += payload;
        proc_bytes_dedup += wire;
        proc_msgs += msgs;
        ++proc_nodes;
      });
      st.total_internode_bytes += proc_bytes;
      st.total_internode_messages += proc_msgs;
      injected += proc_bytes;
      injected_dedup += proc_bytes_dedup;
      st.s_proc = std::max(st.s_proc, proc_bytes);
      st.dedup_s_proc = std::max(st.dedup_s_proc, proc_bytes_dedup);
      st.m_proc = std::max(st.m_proc, proc_msgs);
      st.m_proc_node = std::max(st.m_proc_node, proc_nodes);
      if (proc_bytes > 0) ++active_gpus;
    }
    st.active_internode_gpus = std::max(st.active_internode_gpus, active_gpus);
    st.s_node = std::max(st.s_node, injected);
    st.dedup_s_node = std::max(st.dedup_s_node, injected_dedup);
    int dest_nodes = 0;
    for (const PairTotals& pair : pairs) {
      st.s_node_node = std::max(st.s_node_node, pair.bytes);
      st.dedup_s_node_node = std::max(st.dedup_s_node_node, pair.bytes_dedup);
      st.m_node_node = std::max(st.m_node_node, pair.msgs);
      if (pair.msgs > 0) ++dest_nodes;
    }
    st.num_internode_nodes = std::max(st.num_internode_nodes, dest_nodes);
  }
  if (st.total_internode_messages > 0) {
    st.typical_msg_bytes =
        st.total_internode_bytes / st.total_internode_messages;
  }
  return st;
}

CommPattern random_pattern(const Topology& topo, int msgs_per_gpu,
                           std::int64_t bytes, std::uint64_t seed) {
  if (msgs_per_gpu < 0) {
    throw std::invalid_argument("random_pattern: negative message count");
  }
  CommPattern pattern(topo.num_gpus());
  if (topo.num_gpus() < 2) return pattern;
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> pick(0, topo.num_gpus() - 2);
  // Each source's draws are sorted and written into its row in one pass.
  // A row's entries are sums over its draws, so the pattern is the one
  // that adding them in draw order gives.
  std::vector<int> dsts(static_cast<std::size_t>(msgs_per_gpu));
  for (int src = 0; src < topo.num_gpus(); ++src) {
    for (int& dst : dsts) {
      dst = pick(rng);
      if (dst >= src) ++dst;  // skip self
    }
    std::sort(dsts.begin(), dsts.end());
    pattern.add_sorted(src, dsts, bytes);
  }
  return pattern;
}

}  // namespace hetcomm::core
