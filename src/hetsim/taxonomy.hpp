#pragma once
// Machine-defined path taxonomies.
//
// The paper calibrates Lassen with exactly three relative placements
// (on-socket / on-node / off-node), but richer machines need more: NVLink
// peer cliques vs PCIe hops vs cross-socket traversals, multi-NIC nodes,
// and so on.  A PathTaxonomy makes the set of path classes *data*: an
// ordered list of named classes, each anchored to one of the three base
// localities (which is what the simulator and the closed-form models key
// their semantics on), plus an ordered rule list that resolves a pair of
// rank placements to a class.
//
// The classic() taxonomy reproduces the fixed historical enum exactly:
// class ids 0/1/2 are on-socket/on-node/off-node, so code that indexes
// parameter tables with the PathClass enum keeps working bit-for-bit.
//
// Rule resolution is only run when a PathTable is built: the table keeps
// the class id of each of the six feasible placements, and lookups are
// O(1) and allocation-free.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "hetsim/topology.hpp"

namespace hetcomm {

/// Upper bound on path classes per machine; keeps the metrics sink's
/// fixed-slot arrays (obs/engine_metrics.hpp) allocation-free.
inline constexpr int kMaxPathClasses = 8;

/// One named path class.  `locality` anchors the class to the base
/// three-way taxonomy: it decides whether messages on this class traverse
/// the NIC (OffNode) and which role the class plays in the Table-6 model
/// composition.
struct PathClassDef {
  std::string name;
  PathClass locality = PathClass::OnSocket;
};

/// One placement->class rule.  Tri-state predicates: -1 = don't care,
/// 0 = must be false, 1 = must be true.  `both_gpu_owners` is true when
/// both ranks are GPU-owner cores (core index < gpus_per_socket), which is
/// how NVLink-peer cliques are expressed structurally.
struct PathRule {
  std::int8_t same_node = -1;
  std::int8_t same_socket = -1;
  std::int8_t both_gpu_owners = -1;
  int path = 0;  ///< class id selected when the rule matches
};

/// Structural placement features of a rank pair, the resolver's input.
struct PairPlacement {
  bool same_node = false;
  bool same_socket = false;     ///< implies same_node
  bool both_gpu_owners = false; ///< both cores own a GPU on their socket
};

class PathTaxonomy {
 public:
  /// The paper's fixed three classes; ids match the PathClass enum.
  [[nodiscard]] static PathTaxonomy classic();

  /// Append a class; returns its id.  Throws when the name is duplicated
  /// or kMaxPathClasses is exceeded.
  int add_class(std::string name, PathClass locality);

  /// Append a resolution rule (evaluated in insertion order, first match
  /// wins).  Throws when the rule names an unknown class id.
  void add_rule(PathRule rule);

  [[nodiscard]] int num_classes() const noexcept {
    return static_cast<int>(classes_.size());
  }
  [[nodiscard]] const PathClassDef& cls(int id) const {
    return classes_.at(static_cast<std::size_t>(id));
  }
  [[nodiscard]] const std::vector<PathClassDef>& classes() const noexcept {
    return classes_;
  }
  [[nodiscard]] const std::vector<PathRule>& rules() const noexcept {
    return rules_;
  }

  /// Class id by name; -1 when absent.
  [[nodiscard]] int id_of(std::string_view name) const noexcept;

  /// First class anchored to `locality`: the representative the analytic
  /// models use when they need "the" on-socket/on-node/off-node
  /// parameters of a machine.  Throws std::invalid_argument when the
  /// taxonomy declares no class with that locality (validate() rejects
  /// such taxonomies up front).
  [[nodiscard]] int representative(PathClass locality) const;

  /// Resolve a placement through the rule list; throws std::logic_error
  /// when no rule matches (validate() guarantees total coverage).
  [[nodiscard]] int resolve(const PairPlacement& placement) const;

  /// True when this taxonomy is structurally the classic three-class one
  /// (same classes, localities, and resolution behaviour).
  [[nodiscard]] bool is_classic() const;

  /// Strict validation: at least one class, unique names, every locality
  /// represented, rules total over the six feasible placement feature
  /// combinations, and every placement resolves to a class whose locality
  /// is consistent with it (off-node placements must resolve to OffNode
  /// classes and vice versa).  Throws std::invalid_argument.
  void validate() const;

 private:
  std::vector<PathClassDef> classes_;
  std::vector<PathRule> rules_;
};

/// Resolved path-class ids for every rank pair of a Topology.
///
/// All nodes are identical and rule resolution reads only a pair's three
/// placement bits (same node, same socket, both GPU owners), of which six
/// combinations are feasible.  The table stores the six resolved ids and
/// path_of() derives the bits from the two ranks with integer arithmetic,
/// so building a table costs six rule resolutions for any machine size.
class PathTable {
 public:
  PathTable() = default;
  PathTable(const Topology& topo, const PathTaxonomy& taxonomy);

  [[nodiscard]] int num_classes() const noexcept { return num_classes_; }

  /// Class id for a rank pair.  No bounds checks: callers validate ranks.
  [[nodiscard]] std::uint8_t path_of(int rank_a, int rank_b) const noexcept {
    // Ranks fill cores socket by socket, node by node, so a rank's global
    // socket index is rank / cores_per_socket.
    const int sock_a = rank_a / cps_;
    const int sock_b = rank_b / cps_;
    const bool owners =
        rank_a - sock_a * cps_ < gps_ && rank_b - sock_b * cps_ < gps_;
    const int place = sock_a == sock_b               ? kSameSocket
                      : rank_a / cpn_ == rank_b / cpn_ ? kSameNode
                                                       : kOffNode;
    return ids_[place + (owners ? 3 : 0)];
  }

  /// Base locality / NIC semantics of a class id.
  [[nodiscard]] PathClass locality_of(std::uint8_t id) const noexcept {
    return locality_[id];
  }
  [[nodiscard]] bool off_node(std::uint8_t id) const noexcept {
    return locality_[id] == PathClass::OffNode;
  }

 private:
  static constexpr int kSameSocket = 0;
  static constexpr int kSameNode = 1;  ///< same node, different sockets
  static constexpr int kOffNode = 2;
  /// [placement + 3 * both_gpu_owners] -> class id
  std::uint8_t ids_[6] = {};
  PathClass locality_[kMaxPathClasses] = {};
  int cpn_ = 1;  ///< cores per node
  int cps_ = 1;  ///< cores per socket
  int gps_ = 0;  ///< GPUs (owner cores) per socket
  int num_classes_ = 0;
};

}  // namespace hetcomm
