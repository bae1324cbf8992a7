#include "core/neighborhood.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

namespace hetcomm::core {

namespace {

/// Phase labels that carry the inter-node traffic, per strategy family.
bool is_internode_label(const std::string& label) {
  return label == "global" || label == "pairwise" || label == "exchange";
}

}  // namespace

NeighborhoodExchange::NeighborhoodExchange(const CommPattern& pattern,
                                           const Topology& topo,
                                           const ParamSet& params,
                                           const StrategyConfig& config)
    : topo_(topo),
      params_(params),
      config_(config),
      plan_(build_plan(pattern, topo, params, config)) {
  for (std::size_t i = 0; i < plan_.phases.size(); ++i) {
    if (is_internode_label(plan_.phases[i].label)) {
      internode_phase_ = i;
      has_internode_phase_ = true;
      break;
    }
  }
}

void NeighborhoodExchange::run(Engine& engine, double compute_seconds,
                               bool overlap) const {
  std::vector<int> send_req;
  for (std::size_t i = 0; i < plan_.phases.size(); ++i) {
    post_phase(engine, plan_.phases[i], send_req);
    // Overlap: issue the local computation while the inter-node traffic is
    // in flight (posted but not yet resolved).  Eager messages then land
    // during the computation; rendezvous transfers still synchronize.
    if (overlap && has_internode_phase_ && i == internode_phase_ &&
        compute_seconds > 0.0) {
      for (int gpu = 0; gpu < topo_.num_gpus(); ++gpu) {
        engine.compute(topo_.owner_rank_of_gpu(gpu), compute_seconds);
      }
    }
    if (engine.has_pending()) engine.resolve();
  }
  // Without an inter-node phase (or without overlap) the computation still
  // has to happen -- append it sequentially for a fair comparison.
  if (compute_seconds > 0.0 &&
      (!overlap || !has_internode_phase_)) {
    for (int gpu = 0; gpu < topo_.num_gpus(); ++gpu) {
      engine.compute(topo_.owner_rank_of_gpu(gpu), compute_seconds);
    }
  }
}

void NeighborhoodExchange::execute(Engine& engine) const {
  run(engine, 0.0, /*overlap=*/false);
}

void NeighborhoodExchange::execute_overlapped(Engine& engine,
                                              double compute_seconds) const {
  if (compute_seconds < 0.0) {
    throw std::invalid_argument(
        "NeighborhoodExchange: negative compute time");
  }
  run(engine, compute_seconds, /*overlap=*/true);
}

MeasureResult NeighborhoodExchange::measure(const MeasureOptions& opts) const {
  return core::measure(plan_, topo_, params_, opts);
}

MeasureResult NeighborhoodExchange::measure_overlapped(
    double compute_seconds, const MeasureOptions& opts) const {
  if (opts.reps < 1) {
    throw std::invalid_argument("measure_overlapped: reps must be >= 1");
  }
  // measure()'s repetitions -- one reused engine, reseeded with
  // mix_seed(seed, rep) -- with the overlapped run in place of the plan.
  const std::size_t num_ranks = static_cast<std::size_t>(topo_.num_ranks());
  std::vector<double> clocks(static_cast<std::size_t>(opts.reps) * num_ranks);
  Engine engine(topo_, params_, NoiseModel(0, opts.noise_sigma));
  for (int rep = 0; rep < opts.reps; ++rep) {
    engine.reset(mix_seed(opts.seed, static_cast<std::uint64_t>(rep)));
    execute_overlapped(engine, compute_seconds);
    std::copy(engine.clocks().begin(), engine.clocks().end(),
              clocks.begin() + static_cast<std::ptrdiff_t>(
                                   static_cast<std::size_t>(rep) * num_ranks));
  }
  RepFold fold = fold_repetitions(clocks, num_ranks);
  MeasureResult result;
  result.summary = plan_.summarize(topo_);
  result.max_avg = fold.max_avg;
  result.makespan_mean = fold.makespan_mean;
  result.makespan_min = fold.makespan_min;
  result.makespan_max = fold.makespan_max;
  result.per_rank_mean = std::move(fold.per_rank_mean);
  return result;
}

double NeighborhoodExchange::setup_cost() const {
  // Metadata exchange: one eager-latency round trip per distinct
  // communicating rank pair in the plan, batched per phase (partners are
  // discovered once, in parallel), plus a synchronization per communicator
  // the strategy needs (Algorithm 1 creates four for split, fewer for the
  // simpler strategies -- approximated by the number of phases that carry
  // messages).
  const PostalParams& on = params_.messages.get(
      MemSpace::Host, Protocol::Short,
      params_.taxonomy.representative(PathClass::OnNode));
  const PostalParams& off = params_.messages.get(
      MemSpace::Host, Protocol::Short,
      params_.taxonomy.representative(PathClass::OffNode));

  double total = 0.0;
  for (const PlanPhase& phase : plan_.phases) {
    int max_partners_per_rank = 0;
    std::map<int, int> partners;
    bool has_offnode = false;
    for (const PlanOp& op : phase.ops) {
      if (op.type != OpType::Message) continue;
      ++partners[op.src_rank];
      max_partners_per_rank =
          std::max(max_partners_per_rank, partners[op.src_rank]);
      if (topo_.classify(op.src_rank, op.dst_rank) == PathClass::OffNode) {
        has_offnode = true;
      }
    }
    if (partners.empty()) continue;
    const PostalParams& pp = has_offnode ? off : on;
    // Handshakes proceed in parallel across ranks; each rank serializes
    // its own partners.  One extra latency for the communicator barrier.
    total += max_partners_per_rank * 2.0 * pp.alpha + pp.alpha;
  }
  return total;
}

int NeighborhoodExchange::iterations_to_amortize(
    double baseline_setup, double baseline_per_iter,
    const MeasureOptions& opts) const {
  const double mine_setup = setup_cost();
  const double mine_iter = measure(opts).max_avg;
  if (mine_iter >= baseline_per_iter) return -1;  // never catches up
  const double deficit = mine_setup - baseline_setup;
  if (deficit <= 0.0) return 0;
  return static_cast<int>(
      std::ceil(deficit / (baseline_per_iter - mine_iter)));
}

std::vector<PhaseCost> report_phases(const CommPlan& plan,
                                     const Topology& topo,
                                     const ParamSet& params,
                                     const MeasureOptions& opts) {
  std::vector<PhaseCost> out;
  double previous = 0.0;
  CommPlan prefix;
  prefix.strategy_name = plan.strategy_name;
  for (const PlanPhase& phase : plan.phases) {
    prefix.phases.push_back(phase);
    const double t = measure(prefix, topo, params, opts).makespan_mean;
    out.push_back({phase.label, t - previous, 0.0});
    previous = t;
  }
  if (previous > 0.0) {
    for (PhaseCost& c : out) c.fraction = c.seconds / previous;
  }
  return out;
}

}  // namespace hetcomm::core
