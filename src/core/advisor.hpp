#pragma once
// Model-driven strategy selection.
//
// Given a communication pattern and a machine, rank all Table 5 strategies
// by predicted time and recommend the cheapest.  This operationalizes the
// paper's conclusion that the best strategy depends on message counts,
// sizes, and destination-node fan-out.

#include <string>
#include <vector>

#include "core/comm_pattern.hpp"
#include "core/models/strategy_models.hpp"
#include "core/strategy.hpp"

namespace hetcomm::core {

struct Recommendation {
  StrategyConfig config;
  double predicted_seconds = 0.0;
  /// Predicted slowdown relative to the best strategy (1.0 for the winner).
  double relative = 1.0;
};

struct AdvisorOptions {
  models::PredictOptions predict;
  /// Exclude device-aware variants (e.g. when CUDA-aware MPI is absent).
  bool staged_only = false;
};

class Advisor {
 public:
  Advisor(const Topology& topo, ParamSet params);

  /// All strategies ranked fastest-first by the models' predictions from
  /// `stats`, a pattern's statistics on topology().  A split variant that
  /// lowers to its base's plan on this machine (core::identity_aliases) is
  /// left out.
  [[nodiscard]] std::vector<Recommendation> rank(
      const PatternStats& stats, const AdvisorOptions& options = {}) const;

  /// rank(compute_stats(pattern, topology()), options).
  [[nodiscard]] std::vector<Recommendation> rank(
      const CommPattern& pattern, const AdvisorOptions& options = {}) const;

  /// The predicted-fastest strategy.
  [[nodiscard]] Recommendation best(const CommPattern& pattern,
                                    const AdvisorOptions& options = {}) const;

  [[nodiscard]] const Topology& topology() const noexcept { return topo_; }

 private:
  Topology topo_;
  ParamSet params_;
  /// all_strategies() minus this machine's identity aliases, in roster
  /// order: what rank() predicts.  It depends only on the machine.
  std::vector<StrategyConfig> roster_;
};

}  // namespace hetcomm::core
