#include "core/mapping.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

namespace hetcomm::core {

GpuMapping GpuMapping::identity(int num_gpus) {
  GpuMapping m;
  m.logical_to_physical.resize(static_cast<std::size_t>(num_gpus));
  for (int g = 0; g < num_gpus; ++g) {
    m.logical_to_physical[static_cast<std::size_t>(g)] = g;
  }
  return m;
}

void GpuMapping::validate() const {
  std::vector<bool> seen(logical_to_physical.size(), false);
  for (const int p : logical_to_physical) {
    if (p < 0 || p >= size() || seen[static_cast<std::size_t>(p)]) {
      throw std::invalid_argument("GpuMapping: not a permutation");
    }
    seen[static_cast<std::size_t>(p)] = true;
  }
}

CommPattern apply_mapping(const CommPattern& pattern,
                          const GpuMapping& mapping, const Topology& topo) {
  if (mapping.size() != pattern.num_gpus() ||
      topo.num_gpus() != pattern.num_gpus()) {
    throw std::invalid_argument("apply_mapping: size mismatch");
  }
  mapping.validate();

  CommPattern out(pattern.num_gpus());
  for (int src = 0; src < pattern.num_gpus(); ++src) {
    const int p_src = mapping.logical_to_physical[static_cast<std::size_t>(src)];
    for (const GpuMessage& m : pattern.sends_from(src)) {
      const int p_dst =
          mapping.logical_to_physical[static_cast<std::size_t>(m.dst_gpu)];
      const std::int64_t each = m.bytes / m.count;
      std::int64_t left = m.bytes;
      for (int i = 0; i < m.count; ++i) {
        const std::int64_t b = i + 1 == m.count ? left : each;
        out.add(p_src, p_dst, b);
        left -= b;
      }
    }
  }

  // Remap dedup annotations: the deduplicated volume toward a *set of
  // logical GPUs* follows those GPUs' physical node only when the whole
  // destination group stays on one node; otherwise the annotation is
  // dropped (conservative: strategies fall back to payload sizes).
  for (int src = 0; src < pattern.num_gpus(); ++src) {
    const int p_src = mapping.logical_to_physical[static_cast<std::size_t>(src)];
    for (const NodeDedup& d : pattern.dedup_from(src)) {
      // The physical nodes of the logical GPUs on d.node.
      bool single_node = true;
      int the_node = -1;
      for (const GpuMessage& m : pattern.sends_from(src)) {
        if (topo.gpu_location(m.dst_gpu).node != d.node) continue;
        const int p_dst =
            mapping.logical_to_physical[static_cast<std::size_t>(m.dst_gpu)];
        const int p_node = topo.gpu_location(p_dst).node;
        if (the_node == -1) the_node = p_node;
        if (p_node != the_node) single_node = false;
      }
      if (single_node && the_node >= 0 &&
          the_node != topo.gpu_location(p_src).node) {
        out.set_node_dedup(p_src, the_node, d.bytes);
      }
    }
  }
  return out;
}

std::int64_t internode_bytes_under(const CommPattern& pattern,
                                   const GpuMapping& mapping,
                                   const Topology& topo) {
  if (mapping.size() != pattern.num_gpus()) {
    throw std::invalid_argument("internode_bytes_under: size mismatch");
  }
  std::int64_t total = 0;
  for (int src = 0; src < pattern.num_gpus(); ++src) {
    const int src_node = topo.gpu_location(
        mapping.logical_to_physical[static_cast<std::size_t>(src)]).node;
    for (const GpuMessage& m : pattern.sends_from(src)) {
      const int dst_node = topo.gpu_location(
          mapping.logical_to_physical[static_cast<std::size_t>(m.dst_gpu)]).node;
      if (dst_node != src_node) total += m.bytes;
    }
  }
  return total;
}

GpuMapping greedy_locality_mapping(const CommPattern& pattern,
                                   const Topology& topo) {
  if (topo.num_gpus() != pattern.num_gpus()) {
    throw std::invalid_argument("greedy_locality_mapping: size mismatch");
  }
  const int n = pattern.num_gpus();
  const int per_node = topo.gpn();

  // Symmetric traffic matrix.
  std::vector<std::map<int, std::int64_t>> traffic(
      static_cast<std::size_t>(n));
  std::vector<std::int64_t> degree(static_cast<std::size_t>(n), 0);
  for (int src = 0; src < n; ++src) {
    for (const GpuMessage& m : pattern.sends_from(src)) {
      traffic[static_cast<std::size_t>(src)][m.dst_gpu] += m.bytes;
      traffic[static_cast<std::size_t>(m.dst_gpu)][src] += m.bytes;
      degree[static_cast<std::size_t>(src)] += m.bytes;
      degree[static_cast<std::size_t>(m.dst_gpu)] += m.bytes;
    }
  }

  std::vector<bool> placed(static_cast<std::size_t>(n), false);
  GpuMapping mapping;
  mapping.logical_to_physical.assign(static_cast<std::size_t>(n), -1);

  int next_slot = 0;
  for (int round = 0; round < topo.num_nodes(); ++round) {
    // Seed: heaviest unplaced GPU.
    int seed = -1;
    for (int g = 0; g < n; ++g) {
      if (placed[static_cast<std::size_t>(g)]) continue;
      if (seed == -1 ||
          degree[static_cast<std::size_t>(g)] >
              degree[static_cast<std::size_t>(seed)]) {
        seed = g;
      }
    }
    if (seed == -1) break;
    std::vector<int> members{seed};
    placed[static_cast<std::size_t>(seed)] = true;

    while (static_cast<int>(members.size()) < per_node) {
      // Pick the unplaced GPU with the most traffic toward current members.
      int best = -1;
      std::int64_t best_affinity = -1;
      for (int g = 0; g < n; ++g) {
        if (placed[static_cast<std::size_t>(g)]) continue;
        std::int64_t affinity = 0;
        for (const int m : members) {
          const auto it = traffic[static_cast<std::size_t>(g)].find(m);
          if (it != traffic[static_cast<std::size_t>(g)].end()) {
            affinity += it->second;
          }
        }
        if (affinity > best_affinity) {
          best_affinity = affinity;
          best = g;
        }
      }
      if (best == -1) break;
      members.push_back(best);
      placed[static_cast<std::size_t>(best)] = true;
    }
    for (const int g : members) {
      mapping.logical_to_physical[static_cast<std::size_t>(g)] = next_slot++;
    }
  }
  mapping.validate();
  return mapping;
}

}  // namespace hetcomm::core
