#include "core/strategy.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <stdexcept>

namespace hetcomm::core {

namespace {

constexpr std::size_t kKinds =
    static_cast<std::size_t>(StrategyKind::SplitDD) + 1;
constexpr std::size_t kTransports =
    static_cast<std::size_t>(MemSpace::Device) + 1;
constexpr std::size_t kSplits =
    static_cast<std::size_t>(SplitMode::ChunkedPipeline) + 1;

std::string spell(StrategyKind kind, MemSpace transport, SplitMode split) {
  std::string n = to_string(kind);
  const bool split_kind =
      kind == StrategyKind::SplitMD || kind == StrategyKind::SplitDD;
  // Split strategies are implicitly staged-through-host (Table 5).
  std::string qual;
  if (!split_kind) {
    qual = transport == MemSpace::Host ? "staged" : "device-aware";
  }
  if (split != SplitMode::None) {
    if (!qual.empty()) qual += ", ";
    qual += to_string(split);
  }
  if (!qual.empty()) n += " (" + qual + ")";
  return n;
}

}  // namespace

const std::string& StrategyConfig::name() const {
  // Every (kind, transport, split) name, spelled once: serve prints and
  // hashes names several times per reply.
  static const std::array<std::string, kKinds * kTransports * kSplits> names =
      [] {
        std::array<std::string, kKinds * kTransports * kSplits> out;
        std::size_t i = 0;
        for (std::size_t k = 0; k < kKinds; ++k) {
          for (std::size_t t = 0; t < kTransports; ++t) {
            for (std::size_t s = 0; s < kSplits; ++s) {
              out[i++] = spell(static_cast<StrategyKind>(k),
                               static_cast<MemSpace>(t),
                               static_cast<SplitMode>(s));
            }
          }
        }
        return out;
      }();
  return names[(static_cast<std::size_t>(kind) * kTransports +
                static_cast<std::size_t>(transport)) *
                   kSplits +
               static_cast<std::size_t>(split)];
}

void StrategyConfig::validate() const {
  const bool is_split =
      kind == StrategyKind::SplitMD || kind == StrategyKind::SplitDD;
  if (is_split && transport == MemSpace::Device) {
    throw std::invalid_argument(
        "StrategyConfig: device-aware transport is undefined for split "
        "strategies (paper Table 5)");
  }
  if (split == SplitMode::ChunkedPipeline && transport == MemSpace::Device) {
    throw std::invalid_argument(
        "StrategyConfig: chunked-pipeline lowering requires staged "
        "transport (device-aware sends have no staging copy to pipeline)");
  }
  if (message_cap < 0) {
    throw std::invalid_argument("StrategyConfig: negative message_cap");
  }
  if (ppg < 1) {
    throw std::invalid_argument("StrategyConfig: ppg must be >= 1");
  }
}

CommPlan build_plan(const CommPattern& pattern, const Topology& topo,
                    const ParamSet& params, const StrategyConfig& config) {
  config.validate();
  if (pattern.num_gpus() != topo.num_gpus()) {
    throw std::invalid_argument("build_plan: pattern/topology GPU mismatch");
  }
  CommPlan plan;
  switch (config.kind) {
    case StrategyKind::Standard:
      plan = detail::build_standard(pattern, topo, params, config);
      break;
    case StrategyKind::ThreeStep:
      plan = detail::build_three_step(pattern, topo, params, config);
      break;
    case StrategyKind::TwoStep:
      plan = detail::build_two_step(pattern, topo, params, config);
      break;
    case StrategyKind::SplitMD:
    case StrategyKind::SplitDD:
      plan = detail::build_split(pattern, topo, params, config);
      break;
    default:
      throw std::logic_error("build_plan: unknown strategy kind");
  }
  if (config.split != SplitMode::None) {
    plan = apply_split(plan, topo, params, config.split);
  }
  return plan;
}

StrategyConfig parse_strategy(const std::string& name) {
  for (const StrategyKind kind :
       {StrategyKind::Standard, StrategyKind::ThreeStep, StrategyKind::TwoStep,
        StrategyKind::SplitMD, StrategyKind::SplitDD}) {
    const bool split_kind =
        kind == StrategyKind::SplitMD || kind == StrategyKind::SplitDD;
    for (const MemSpace transport : {MemSpace::Host, MemSpace::Device}) {
      if (split_kind && transport == MemSpace::Device) continue;
      for (const SplitMode split :
           {SplitMode::None, SplitMode::Striped, SplitMode::ChunkedPipeline}) {
        if (split == SplitMode::ChunkedPipeline &&
            transport == MemSpace::Device) {
          continue;
        }
        StrategyConfig cfg;
        cfg.kind = kind;
        cfg.transport = transport;
        cfg.split = split;
        if (cfg.name() == name) return cfg;
      }
    }
    // Bare kind names default to staged-through-host, unsplit.
    if (name == to_string(kind)) return {kind, MemSpace::Host};
  }
  throw std::invalid_argument("parse_strategy: unknown strategy '" + name +
                              "'");
}

std::vector<StrategyConfig> table5_strategies() {
  std::vector<StrategyConfig> out;
  for (const StrategyKind kind :
       {StrategyKind::Standard, StrategyKind::ThreeStep,
        StrategyKind::TwoStep}) {
    out.push_back({kind, MemSpace::Host});
    out.push_back({kind, MemSpace::Device});
  }
  out.push_back({StrategyKind::SplitMD, MemSpace::Host});
  out.push_back({StrategyKind::SplitDD, MemSpace::Host});
  return out;
}

std::vector<StrategyConfig> split_variant_strategies() {
  std::vector<StrategyConfig> out;
  const auto add = [&out](StrategyKind kind, MemSpace transport,
                          SplitMode split) {
    StrategyConfig cfg;
    cfg.kind = kind;
    cfg.transport = transport;
    cfg.split = split;
    out.push_back(cfg);
  };
  // Striping feeds on large node-conglomerated rendezvous transfers.
  add(StrategyKind::ThreeStep, MemSpace::Host, SplitMode::Striped);
  add(StrategyKind::ThreeStep, MemSpace::Device, SplitMode::Striped);
  add(StrategyKind::TwoStep, MemSpace::Host, SplitMode::Striped);
  add(StrategyKind::Standard, MemSpace::Device, SplitMode::Striped);
  // Chunked pipelining needs staged per-message D2H copies to carve.
  add(StrategyKind::Standard, MemSpace::Host, SplitMode::ChunkedPipeline);
  add(StrategyKind::TwoStep, MemSpace::Host, SplitMode::ChunkedPipeline);
  return out;
}

std::vector<StrategyConfig> all_strategies() {
  std::vector<StrategyConfig> out = table5_strategies();
  for (const StrategyConfig& cfg : split_variant_strategies()) {
    out.push_back(cfg);
  }
  return out;
}

std::vector<int> identity_aliases(const std::vector<StrategyConfig>& roster,
                                  const ParamSet& params) {
  std::vector<int> alias(roster.size(), -1);
  for (std::size_t i = 0; i < roster.size(); ++i) {
    if (!split_is_identity(roster[i].split, params)) continue;
    StrategyConfig base = roster[i];
    base.split = SplitMode::None;
    const auto it = std::find(roster.begin(), roster.end(), base);
    if (it != roster.end()) {
      alias[i] = static_cast<int>(it - roster.begin());
    }
  }
  return alias;
}

}  // namespace hetcomm::core
