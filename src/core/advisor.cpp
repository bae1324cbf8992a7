#include "core/advisor.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace hetcomm::core {

Advisor::Advisor(const Topology& topo, ParamSet params)
    : topo_(topo), params_(std::move(params)) {
  // A variant whose lowering is the identity on this machine builds its
  // base's plan: list the base once, as compare and ranking-stability do.
  const std::vector<StrategyConfig> all = all_strategies();
  const std::vector<int> alias = identity_aliases(all, params_);
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (alias[i] < 0) roster_.push_back(all[i]);
  }
}

std::vector<Recommendation> Advisor::rank(const CommPattern& pattern,
                                          const AdvisorOptions& options) const {
  return rank(compute_stats(pattern, topo_), options);
}

std::vector<Recommendation> Advisor::rank(const PatternStats& stats,
                                          const AdvisorOptions& options) const {
  std::vector<Recommendation> out;
  out.reserve(roster_.size());
  for (const StrategyConfig& cfg : roster_) {
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
