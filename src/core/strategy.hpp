#pragma once
// Node-aware communication strategies (paper §2.3, Table 5).
//
// Every strategy compiles a CommPattern into a CommPlan.  The staged
// (through-host) flavor moves GPU payloads to host memory first and
// communicates with CPU parameters; the device-aware flavor sends directly
// from device memory with GPU parameters.  Split strategies exist only in
// staged form (paper Table 5).

#include <cstdint>
#include <string>
#include <vector>

#include "core/comm_pattern.hpp"
#include "core/plan.hpp"
#include "core/plan_transform.hpp"
#include "hetsim/params.hpp"
#include "hetsim/topology.hpp"

namespace hetcomm::core {

enum class StrategyKind : std::uint8_t {
  Standard,   ///< direct GPU-to-GPU messages (baseline)
  ThreeStep,  ///< gather on-node -> one message per node pair -> redistribute
  TwoStep,    ///< per-process node-conglomerated messages -> redistribute
  SplitMD,    ///< split inter-node volume across on-node processes;
              ///< GPU data staged through a single host process per GPU
  SplitDD,    ///< like SplitMD but duplicate device pointers: several host
              ///< processes copy from each GPU simultaneously
};

[[nodiscard]] constexpr const char* to_string(StrategyKind k) noexcept {
  switch (k) {
    case StrategyKind::Standard: return "standard";
    case StrategyKind::ThreeStep: return "3-step";
    case StrategyKind::TwoStep: return "2-step";
    case StrategyKind::SplitMD: return "split+MD";
    case StrategyKind::SplitDD: return "split+DD";
  }
  return "?";
}

struct StrategyConfig {
  StrategyKind kind = StrategyKind::Standard;
  /// Host = staged-through-host, Device = device-aware (CUDA-aware MPI).
  MemSpace transport = MemSpace::Host;
  /// Maximum inter-node message size for the split strategies; 0 selects
  /// the machine's rendezvous switch point (paper default).
  std::int64_t message_cap = 0;
  /// Host processes per GPU for SplitDD copies (4 on Lassen).
  int ppg = 4;
  /// Message-splitting lowering applied after the base builder (see
  /// plan_transform.hpp).  None reproduces the paper's Table-5 plans;
  /// Striped fans rendezvous-sized transfers across NIC rails;
  /// ChunkedPipeline overlaps staging copies with wire time.
  SplitMode split = SplitMode::None;

  /// "kind (transport, split)" as printed, e.g. "2-step (staged)" or
  /// "split+MD"; message_cap and ppg do not appear.  The string lives for
  /// the whole program.
  [[nodiscard]] const std::string& name() const;
  /// Device-aware transport is undefined for the split strategies
  /// (Table 5); a ChunkedPipeline lowering of a device-aware transport
  /// has no staging copy to pipeline; throws std::invalid_argument in
  /// either case.
  void validate() const;

  bool operator==(const StrategyConfig&) const = default;
};

/// Compile `pattern` for the given machine.  The returned plan is
/// deterministic: same inputs, same plan.
[[nodiscard]] CommPlan build_plan(const CommPattern& pattern,
                                  const Topology& topo,
                                  const ParamSet& params,
                                  const StrategyConfig& config);

/// The eight modeled strategy configurations of paper Table 5.
[[nodiscard]] std::vector<StrategyConfig> table5_strategies();

/// Message-splitting variants of the Table-5 strategies: striped lowering
/// of the node-conglomerating strategies (which produce the large
/// rendezvous transfers striping feeds on) plus chunked-pipeline lowering
/// of the staged strategies with per-message staging copies.
[[nodiscard]] std::vector<StrategyConfig> split_variant_strategies();

/// Table-5 roster plus the split variants, in ranking order: what the
/// Fig-5.1 comparison, the advisor, `hetcomm serve`, and
/// ranking-stability iterate.
[[nodiscard]] std::vector<StrategyConfig> all_strategies();

/// For each entry of `roster`, the index of the entry it duplicates on a
/// machine with `params`, or -1.  A split variant whose lowering is the
/// identity there (split_is_identity: striping on a single-rail machine)
/// builds exactly its base strategy's plan, so callers report it as an
/// alias of that base instead of measuring the same plan twice.  A variant
/// whose base is not in the roster stays unaliased.
[[nodiscard]] std::vector<int> identity_aliases(
    const std::vector<StrategyConfig>& roster, const ParamSet& params);

/// Parse a strategy name as produced by StrategyConfig::name(), e.g.
/// "standard (staged)", "3-step (device-aware)", "split+MD".  Also accepts
/// bare kind names ("standard", "2-step"), defaulting to staged transport.
/// Throws std::invalid_argument for unknown names.
[[nodiscard]] StrategyConfig parse_strategy(const std::string& name);

namespace detail {
// Plan builders, one per strategy family (defined in strategies/*.cpp).
CommPlan build_standard(const CommPattern&, const Topology&, const ParamSet&,
                        const StrategyConfig&);
CommPlan build_three_step(const CommPattern&, const Topology&,
                          const ParamSet&, const StrategyConfig&);
CommPlan build_two_step(const CommPattern&, const Topology&, const ParamSet&,
                        const StrategyConfig&);
CommPlan build_split(const CommPattern&, const Topology&, const ParamSet&,
                     const StrategyConfig&);
}  // namespace detail

}  // namespace hetcomm::core
