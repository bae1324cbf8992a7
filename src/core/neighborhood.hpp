#pragma once
// Persistent neighborhood exchange.
//
// Iterative solvers execute the same irregular exchange hundreds of times
// (one per SpMV).  This wraps the setup-once / execute-many pattern of MPI
// neighborhood collectives (and of the paper's Algorithm 1, whose
// communicator construction is explicitly a setup phase): compile the
// pattern into a CommPlan once, then replay it cheaply, optionally
// overlapping the inter-node phase with local computation (paper §2.3.3:
// "Lines 2 to 4 of Algorithm 2 can be overlapped with various pieces of the
// computation").

#include <string>
#include <vector>

#include "core/comm_pattern.hpp"
#include "core/executor.hpp"
#include "core/strategy.hpp"

namespace hetcomm::core {

class NeighborhoodExchange {
 public:
  /// Setup phase: compile `pattern` for the machine.  Equivalent to
  /// Algorithm 1 plus communicator construction; reusable across
  /// executions.
  NeighborhoodExchange(const CommPattern& pattern, const Topology& topo,
                       const ParamSet& params, const StrategyConfig& config);

  [[nodiscard]] const CommPlan& plan() const noexcept { return plan_; }
  [[nodiscard]] const StrategyConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const Topology& topology() const noexcept { return topo_; }

  /// Execute once on `engine` (clocks continue from their current values,
  /// so repeated calls model an iterative solver's communication stream).
  void execute(Engine& engine) const;

  /// Execute with `compute_seconds` of local work per GPU owner rank
  /// overlapped with the inter-node phase: the computation is issued after
  /// the inter-node operations are posted, so eager traffic progresses
  /// "in the background" while ranks compute.
  void execute_overlapped(Engine& engine, double compute_seconds) const;

  /// Convenience: fresh-engine repetition measurement (no overlap).
  [[nodiscard]] MeasureResult measure(const MeasureOptions& opts = {}) const;

  /// Measurement with overlapped local computation per repetition.  Each
  /// repetition runs the plan measure() runs, seeded the same way, so a
  /// zero compute time reproduces measure() bit for bit.  Uses reps, seed
  /// and noise_sigma of `opts`; the other options are ignored.
  [[nodiscard]] MeasureResult measure_overlapped(
      double compute_seconds, const MeasureOptions& opts = {}) const;

  /// Simulated cost of the setup phase itself (Algorithm 1): a metadata
  /// handshake with every communication partner plus one synchronization
  /// per communicator.  Partner discovery dominates, so standard
  /// communication (one handshake per destination process) pays the most
  /// and node-aware aggregation reduces setup along with execution --
  /// consistent with dynamic-discovery costs in irregular MPI codes.
  [[nodiscard]] double setup_cost() const;

  /// Executions needed before (setup + n*this) beats (baseline setup +
  /// n*baseline) for a baseline per-iteration time; returns -1 when this
  /// strategy never breaks even.
  [[nodiscard]] int iterations_to_amortize(double baseline_setup,
                                           double baseline_per_iter,
                                           const MeasureOptions& opts = {}) const;

 private:
  void run(Engine& engine, double compute_seconds, bool overlap) const;

  Topology topo_;
  ParamSet params_;
  StrategyConfig config_;
  CommPlan plan_;
  std::size_t internode_phase_ = 0;  ///< index of the inter-node phase
  bool has_internode_phase_ = false;
};

/// Per-phase timing attribution for a plan: the makespan increase
/// contributed by each phase (measured by executing successive prefixes).
struct PhaseCost {
  std::string label;
  double seconds = 0.0;    ///< incremental makespan of this phase
  double fraction = 0.0;   ///< share of the total
};

[[nodiscard]] std::vector<PhaseCost> report_phases(
    const CommPlan& plan, const Topology& topo, const ParamSet& params,
    const MeasureOptions& opts = {});

}  // namespace hetcomm::core
