#include "core/comm_pattern.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>

namespace hetcomm::core {

CommPattern::CommPattern(int num_gpus) {
  if (num_gpus <= 0) {
    throw std::invalid_argument("CommPattern: num_gpus must be positive");
  }
  sends_.resize(static_cast<std::size_t>(num_gpus));
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
  Cell& cell = sends_[static_cast<std::size_t>(src_gpu)][dst_gpu];
  cell.bytes += bytes;
  ++cell.count;
  total_bytes_ += bytes;
  ++total_messages_;
}

std::vector<GpuMessage> CommPattern::sends_from(int src_gpu) const {
  check_gpu(src_gpu);
  std::vector<GpuMessage> out;
  out.reserve(sends_[static_cast<std::size_t>(src_gpu)].size());
  for (const auto& [dst, cell] : sends_[static_cast<std::size_t>(src_gpu)]) {
    out.push_back({dst, cell.bytes, cell.count});
  }
  return out;
}

std::vector<GpuMessage> CommPattern::recvs_to(int dst_gpu) const {
  check_gpu(dst_gpu);
  std::vector<GpuMessage> out;
  for (int src = 0; src < num_gpus(); ++src) {
    const auto& row = sends_[static_cast<std::size_t>(src)];
    const auto it = row.find(dst_gpu);
    if (it != row.end()) out.push_back({src, it->second.bytes, it->second.count});
  }
  return out;
}

std::int64_t CommPattern::bytes(int src_gpu, int dst_gpu) const {
  check_gpu(src_gpu);
  check_gpu(dst_gpu);
  const auto& row = sends_[static_cast<std::size_t>(src_gpu)];
  const auto it = row.find(dst_gpu);
  return it == row.end() ? 0 : it->second.bytes;
}

std::int64_t CommPattern::send_bytes(int src_gpu) const {
  check_gpu(src_gpu);
  std::int64_t sum = 0;
  for (const auto& [dst, cell] : sends_[static_cast<std::size_t>(src_gpu)]) {
    sum += cell.bytes;
  }
  return sum;
}

std::int64_t CommPattern::recv_bytes(int dst_gpu) const {
  check_gpu(dst_gpu);
  std::int64_t sum = 0;
  for (int src = 0; src < num_gpus(); ++src) sum += bytes(src, dst_gpu);
  return sum;
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
  const auto it = node_dedup_.find({src_gpu, dst_node});
  const std::int64_t old = it == node_dedup_.end() ? 0 : it->second;
  if (bytes > old) check_room(bytes - old);
  dedup_bytes_ += bytes - old;
  node_dedup_[{src_gpu, dst_node}] = bytes;
}

std::int64_t CommPattern::node_dedup_bytes(int src_gpu, int dst_node) const {
  const auto it = node_dedup_.find({src_gpu, dst_node});
  return it == node_dedup_.end() ? -1 : it->second;
}

std::vector<std::tuple<int, int, std::int64_t>>
CommPattern::node_dedup_entries() const {
  std::vector<std::tuple<int, int, std::int64_t>> out;
  out.reserve(node_dedup_.size());
  for (const auto& [key, bytes] : node_dedup_) {
    out.emplace_back(key.first, key.second, bytes);
  }
  return out;
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

CommPattern CommPattern::scaled(double factor) const {
  if (factor < 0.0) {
    throw std::invalid_argument("CommPattern::scaled: negative factor");
  }
  CommPattern out(num_gpus());
  for (int src = 0; src < num_gpus(); ++src) {
    for (const GpuMessage& m : sends_from(src)) {
      const double each = static_cast<double>(m.bytes) / m.count * factor;
      const auto each_bytes = static_cast<std::int64_t>(
          std::llround(std::max(1.0, each)));
      for (int i = 0; i < m.count; ++i) out.add(src, m.dst_gpu, each_bytes);
    }
  }
  return out;
}

PatternStats compute_stats(const CommPattern& pattern, const Topology& topo) {
  if (topo.num_gpus() != pattern.num_gpus()) {
    throw std::invalid_argument("compute_stats: topology mismatch");
  }
  PatternStats st;

  const int num_nodes = topo.num_nodes();
  std::vector<int> node_active_gpus(static_cast<std::size_t>(num_nodes), 0);
  std::vector<std::int64_t> node_injected(static_cast<std::size_t>(num_nodes), 0);
  std::map<std::pair<int, int>, std::int64_t> pair_bytes;
  std::map<std::pair<int, int>, int> pair_msgs;
  std::vector<std::map<int, bool>> node_dests(static_cast<std::size_t>(num_nodes));

  std::vector<std::int64_t> node_injected_dedup(
      static_cast<std::size_t>(num_nodes), 0);
  std::map<std::pair<int, int>, std::int64_t> pair_bytes_dedup;

  for (int src = 0; src < pattern.num_gpus(); ++src) {
    const int src_node = topo.gpu_location(src).node;
    std::int64_t proc_bytes = 0;
    std::int64_t proc_bytes_dedup = 0;
    int proc_msgs = 0;
    std::map<int, std::int64_t> per_dest_node;  // payload per dst node
    for (const GpuMessage& m : pattern.sends_from(src)) {
      const int dst_node = topo.gpu_location(m.dst_gpu).node;
      if (dst_node == src_node) continue;
      proc_bytes += m.bytes;
      proc_msgs += m.count;
      per_dest_node[dst_node] += m.bytes;
      node_injected[static_cast<std::size_t>(src_node)] += m.bytes;
      pair_bytes[{src_node, dst_node}] += m.bytes;
      pair_msgs[{src_node, dst_node}] += m.count;
      node_dests[static_cast<std::size_t>(src_node)][dst_node] = true;
      st.total_internode_bytes += m.bytes;
      st.total_internode_messages += m.count;
    }
    for (const auto& [dst_node, payload] : per_dest_node) {
      const std::int64_t dedup = pattern.node_dedup_bytes(src, dst_node);
      const std::int64_t wire = dedup >= 0 ? dedup : payload;
      proc_bytes_dedup += wire;
      node_injected_dedup[static_cast<std::size_t>(src_node)] += wire;
      pair_bytes_dedup[{src_node, dst_node}] += wire;
    }
    st.s_proc = std::max(st.s_proc, proc_bytes);
    st.dedup_s_proc = std::max(st.dedup_s_proc, proc_bytes_dedup);
    st.m_proc = std::max(st.m_proc, proc_msgs);
    st.m_proc_node =
        std::max(st.m_proc_node, static_cast<int>(per_dest_node.size()));
    if (proc_bytes > 0) ++node_active_gpus[static_cast<std::size_t>(src_node)];
  }
  for (const int a : node_active_gpus) {
    st.active_internode_gpus = std::max(st.active_internode_gpus, a);
  }

  for (const std::int64_t b : node_injected) st.s_node = std::max(st.s_node, b);
  for (const std::int64_t b : node_injected_dedup) {
    st.dedup_s_node = std::max(st.dedup_s_node, b);
  }
  for (const auto& [key, b] : pair_bytes) {
    st.s_node_node = std::max(st.s_node_node, b);
  }
  for (const auto& [key, b] : pair_bytes_dedup) {
    st.dedup_s_node_node = std::max(st.dedup_s_node_node, b);
  }
  for (const auto& [key, m] : pair_msgs) {
    st.m_node_node = std::max(st.m_node_node, m);
  }
  for (const auto& dests : node_dests) {
    st.num_internode_nodes =
        std::max(st.num_internode_nodes, static_cast<int>(dests.size()));
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
  for (int src = 0; src < topo.num_gpus(); ++src) {
    for (int k = 0; k < msgs_per_gpu; ++k) {
      int dst = pick(rng);
      if (dst >= src) ++dst;  // skip self
      pattern.add(src, dst, bytes);
    }
  }
  return pattern;
}

}  // namespace hetcomm::core
