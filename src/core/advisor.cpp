#include "core/advisor.hpp"

#include <algorithm>
#include <stdexcept>

namespace hetcomm::core {

std::vector<Recommendation> Advisor::rank(const CommPattern& pattern,
                                          const AdvisorOptions& options) const {
  const PatternStats stats = compute_stats(pattern, topo_);
  const std::vector<StrategyConfig> roster = all_strategies();
  // A variant whose lowering is the identity on this machine builds its
  // base's plan: list the base once, as compare and ranking-stability do.
  const std::vector<int> alias = identity_aliases(roster, params_);
  std::vector<Recommendation> out;
  for (std::size_t i = 0; i < roster.size(); ++i) {
    const StrategyConfig& cfg = roster[i];
    if (alias[i] >= 0) continue;
    if (options.staged_only && cfg.transport == MemSpace::Device) continue;
    out.push_back(
        {cfg, models::predict(cfg, stats, params_, topo_, options.predict),
         1.0});
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Recommendation& a, const Recommendation& b) {
                     return a.predicted_seconds < b.predicted_seconds;
                   });
  if (!out.empty() && out.front().predicted_seconds > 0.0) {
    for (Recommendation& r : out) {
      r.relative = r.predicted_seconds / out.front().predicted_seconds;
    }
  }
  return out;
}

Recommendation Advisor::best(const CommPattern& pattern,
                             const AdvisorOptions& options) const {
  const std::vector<Recommendation> ranked = rank(pattern, options);
  if (ranked.empty()) {
    throw std::logic_error("Advisor::best: no strategies to rank");
  }
  return ranked.front();
}

}  // namespace hetcomm::core
