#include "hetsim/taxonomy.hpp"

#include <stdexcept>

namespace hetcomm {

PathTaxonomy PathTaxonomy::classic() {
  PathTaxonomy t;
  const int on_socket = t.add_class("on-socket", PathClass::OnSocket);
  const int on_node = t.add_class("on-node", PathClass::OnNode);
  const int off_node = t.add_class("off-node", PathClass::OffNode);
  t.add_rule({/*same_node=*/1, /*same_socket=*/1, /*both_gpu_owners=*/-1,
              on_socket});
  t.add_rule({/*same_node=*/1, /*same_socket=*/0, /*both_gpu_owners=*/-1,
              on_node});
  t.add_rule({/*same_node=*/0, /*same_socket=*/-1, /*both_gpu_owners=*/-1,
              off_node});
  return t;
}

int PathTaxonomy::add_class(std::string name, PathClass locality) {
  if (name.empty()) {
    throw std::invalid_argument("PathTaxonomy: class name must be non-empty");
  }
  if (id_of(name) >= 0) {
    throw std::invalid_argument("PathTaxonomy: duplicate class name '" + name +
                                "'");
  }
  if (num_classes() >= kMaxPathClasses) {
    throw std::invalid_argument("PathTaxonomy: more than " +
                                std::to_string(kMaxPathClasses) +
                                " path classes");
  }
  classes_.push_back({std::move(name), locality});
  return num_classes() - 1;
}

void PathTaxonomy::add_rule(PathRule rule) {
  if (rule.path < 0 || rule.path >= num_classes()) {
    throw std::invalid_argument("PathTaxonomy: rule selects unknown class id " +
                                std::to_string(rule.path));
  }
  for (const std::int8_t p :
       {rule.same_node, rule.same_socket, rule.both_gpu_owners}) {
    if (p < -1 || p > 1) {
      throw std::invalid_argument(
          "PathTaxonomy: rule predicates must be -1, 0 or 1");
    }
  }
  rules_.push_back(rule);
}

int PathTaxonomy::id_of(std::string_view name) const noexcept {
  for (std::size_t i = 0; i < classes_.size(); ++i) {
    if (classes_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

int PathTaxonomy::representative(PathClass locality) const {
  for (std::size_t i = 0; i < classes_.size(); ++i) {
    if (classes_[i].locality == locality) return static_cast<int>(i);
  }
  throw std::invalid_argument(
      std::string("PathTaxonomy: no class with locality ") +
      to_string(locality));
}

namespace {

bool matches(const PathRule& rule, const PairPlacement& p) {
  const auto ok = [](std::int8_t want, bool have) {
    return want == -1 || (want == 1) == have;
  };
  return ok(rule.same_node, p.same_node) &&
         ok(rule.same_socket, p.same_socket) &&
         ok(rule.both_gpu_owners, p.both_gpu_owners);
}

}  // namespace

int PathTaxonomy::resolve(const PairPlacement& placement) const {
  for (const PathRule& rule : rules_) {
    if (matches(rule, placement)) return rule.path;
  }
  throw std::logic_error("PathTaxonomy: no rule matches placement");
}

bool PathTaxonomy::is_classic() const {
  if (num_classes() != 3) return false;
  static const PathClass localities[3] = {PathClass::OnSocket,
                                          PathClass::OnNode,
                                          PathClass::OffNode};
  for (int i = 0; i < 3; ++i) {
    if (classes_[static_cast<std::size_t>(i)].locality != localities[i]) {
      return false;
    }
  }
  // Behavioural check: every feasible placement must resolve to the class
  // the historical enum would pick.
  for (const bool owners : {false, true}) {
    const PairPlacement sock{true, true, owners};
    const PairPlacement node{true, false, owners};
    const PairPlacement off{false, false, owners};
    try {
      if (resolve(sock) != 0 || resolve(node) != 1 || resolve(off) != 2) {
        return false;
      }
    } catch (const std::logic_error&) {
      return false;
    }
  }
  return true;
}

void PathTaxonomy::validate() const {
  if (classes_.empty()) {
    throw std::invalid_argument("PathTaxonomy: no path classes declared");
  }
  if (num_classes() > kMaxPathClasses) {
    throw std::invalid_argument("PathTaxonomy: too many path classes");
  }
  for (std::size_t i = 0; i < classes_.size(); ++i) {
    for (std::size_t j = i + 1; j < classes_.size(); ++j) {
      if (classes_[i].name == classes_[j].name) {
        throw std::invalid_argument("PathTaxonomy: duplicate class name '" +
                                    classes_[i].name + "'");
      }
    }
  }
  for (const PathClass loc :
       {PathClass::OnSocket, PathClass::OnNode, PathClass::OffNode}) {
    (void)representative(loc);  // throws when the locality is unrepresented
  }
  // Rules must be total over the six feasible feature combinations, and
  // each resolved class's locality must be consistent with the placement:
  // a cross-node placement uses the NIC, so it must land on an OffNode
  // class, and a shared-node placement must not.
  for (const bool owners : {false, true}) {
    const PairPlacement placements[3] = {
        {true, true, owners},    // same socket
        {true, false, owners},   // same node, different socket
        {false, false, owners},  // different nodes
    };
    for (const PairPlacement& p : placements) {
      int id = -1;
      try {
        id = resolve(p);
      } catch (const std::logic_error&) {
        throw std::invalid_argument(
            "PathTaxonomy: rules do not cover every placement (same_node=" +
            std::to_string(p.same_node) +
            ", same_socket=" + std::to_string(p.same_socket) +
            ", both_gpu_owners=" + std::to_string(p.both_gpu_owners) + ")");
      }
      const bool is_off =
          classes_[static_cast<std::size_t>(id)].locality == PathClass::OffNode;
      if (is_off != !p.same_node) {
        throw std::invalid_argument(
            "PathTaxonomy: class '" + classes_[static_cast<std::size_t>(id)].name +
            "' has locality inconsistent with the placements it resolves "
            "(off-node classes must cover exactly the cross-node pairs)");
      }
    }
  }
}

PathTable::PathTable(const Topology& topo, const PathTaxonomy& taxonomy) {
  taxonomy.validate();
  const MachineShape& shape = topo.shape();
  cpn_ = shape.cores_per_node();
  cps_ = shape.cores_per_socket;
  gps_ = shape.gpus_per_socket;
  num_classes_ = taxonomy.num_classes();
  for (int c = 0; c < num_classes_; ++c) {
    locality_[c] = taxonomy.cls(c).locality;
  }
  for (const bool owners : {false, true}) {
    const int base = owners ? 3 : 0;
    ids_[base + kSameSocket] =
        static_cast<std::uint8_t>(taxonomy.resolve({true, true, owners}));
    ids_[base + kSameNode] =
        static_cast<std::uint8_t>(taxonomy.resolve({true, false, owners}));
    ids_[base + kOffNode] =
        static_cast<std::uint8_t>(taxonomy.resolve({false, false, owners}));
  }
}

}  // namespace hetcomm
