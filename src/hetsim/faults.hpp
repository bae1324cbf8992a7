#pragma once
// Runtime fault/degradation model for the simulation engine.
//
// A FaultModel is the *resolved* form of a declarative fault::FaultPlan
// (src/fault/plan.hpp): every scope has already been cross-validated against
// a concrete machine and turned into dense ids -- taxonomy class ids, node
// and NIC-lane indices, per-rank factor arrays -- so the engine's hot path
// does integer compares and multiplications, never string lookups.
//
// Four perturbation kinds compose:
//
//   * link degradation   -- multiply a path class's postal alpha/beta (and,
//     separately, a NIC lane's per-message overhead / inverse rate) over a
//     sim-time window;
//   * NIC rail outage    -- a lane is down over a window; off-node traffic
//     fails over to a surviving lane of the same node (re-queuing on that
//     lane's busy server) or waits for the earliest recovery;
//   * straggler ranks    -- per-rank multiplicative compute / injection
//     slowdowns;
//   * transient loss     -- each send attempt of a matching message is lost
//     with probability p; lost attempts still consume the resources they
//     acquired, then retry after an exponential-backoff delay.  Exhausting
//     the retry budget raises FaultAbort (a structured error, never a hang).
//
// Determinism contract: loss decisions are pure hashes of
// (fault stream, message id, attempt) via mix_seed -- message ids count
// scheduled messages in schedule order, which is identical across worker
// counts and across the compiled/interpreted engines -- so faulted runs are
// bit-identical for any --jobs value and both execution modes.  A FaultModel
// with no rules behaves exactly like no fault layer at all: every hook is
// guarded so that neutral factors (1.0) and zero probabilities leave each
// double untouched bit-for-bit.

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "hetsim/noise.hpp"

namespace hetcomm {

/// Half-open sim-time window [begin, end).  The default window is always
/// active; a window with end <= begin never is.
struct FaultWindow {
  double begin = 0.0;
  double end = std::numeric_limits<double>::infinity();

  [[nodiscard]] bool contains(double t) const noexcept {
    return t >= begin && t < end;
  }
  [[nodiscard]] bool always() const noexcept {
    return begin <= 0.0 && end == std::numeric_limits<double>::infinity();
  }
};

/// Exponential-backoff retry policy for lossy links.  Retry i (0-based)
/// waits min(timeout * backoff^i, max_delay) after the lost attempt's
/// completion; after max_attempts total send attempts the message hard-fails
/// with FaultAbort.
struct RetryPolicy {
  double timeout = 1e-4;   ///< delay before the first retry [s]
  double backoff = 2.0;    ///< multiplier per further retry (>= 1)
  double max_delay = 1e-2; ///< cap on any single retry delay [s]
  int max_attempts = 5;    ///< total send attempts before FaultAbort
};

/// Delay injected before 0-based retry `retry_index`:
/// min(timeout * backoff^retry_index, max_delay).  Multiplies iteratively
/// with an early exit at the cap, so large indices cannot overflow.
[[nodiscard]] inline double retry_delay(const RetryPolicy& policy,
                                        int retry_index) noexcept {
  double delay = policy.timeout;
  for (int i = 0; i < retry_index; ++i) {
    delay *= policy.backoff;
    if (delay >= policy.max_delay) return policy.max_delay;
  }
  return delay < policy.max_delay ? delay : policy.max_delay;
}

/// Total delay injected by the first `retries` retries (monotone in
/// `retries`, capped per-retry by max_delay).
[[nodiscard]] inline double total_retry_delay(const RetryPolicy& policy,
                                              int retries) noexcept {
  double total = 0.0;
  for (int i = 0; i < retries; ++i) total += retry_delay(policy, i);
  return total;
}

/// Stateless uniform draw in [0, 1) keyed by (stream, message id, attempt).
/// A pure mix_seed hash: no generator state, so fault decisions can never
/// depend on scheduling interleaving or worker threads.
[[nodiscard]] inline double fault_uniform(std::uint64_t stream,
                                          std::uint64_t message,
                                          std::uint32_t attempt) noexcept {
  const std::uint64_t h = mix_seed(mix_seed(stream, message), attempt);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Link degradation scoped to one taxonomy path class (-1 = every class):
/// the message's postal alpha scales by alpha_factor and beta by
/// beta_factor while the window is active.
struct LinkDegradeRule {
  int path_id = -1;
  double alpha_factor = 1.0;
  double beta_factor = 1.0;
  FaultWindow window;
};

/// NIC-lane degradation scoped to (node, lane), -1 = wildcard: the lane's
/// per-message overhead scales by alpha_factor and its inverse injection
/// rate by beta_factor.
struct NicDegradeRule {
  int node = -1;
  int lane = -1;
  double alpha_factor = 1.0;
  double beta_factor = 1.0;
  FaultWindow window;
};

/// NIC rail outage: lane `lane` of node `node` (-1 = wildcard) is down over
/// the window.
struct NicOutageRule {
  int node = -1;
  int lane = 0;
  FaultWindow window;
};

/// Transient message loss on a path class (-1 = every class): each send
/// attempt of a matching message is lost with `probability`, retried per
/// `retry`.  The first matching rule wins.
struct LossRule {
  int path_id = -1;
  double probability = 0.0;
  RetryPolicy retry;
  FaultWindow window;
};

/// Structured hard failure raised when a fault makes a message undeliverable
/// (retry budget exhausted, or no NIC lane ever recovers).  The engine
/// leaves no pending state behind (resolve()'s failure contract) and is
/// reusable after reset().  core::measure() fills `strategy` from the
/// plan's name before propagating.
class FaultAbort : public std::runtime_error {
 public:
  enum class Reason : std::uint8_t {
    RetriesExhausted,  ///< loss rule hit max_attempts
    NicUnavailable,    ///< every NIC lane of a node is down forever
  };

  FaultAbort(Reason reason, std::string strategy, int src, int dst,
             int path_id, std::string path, int attempts);

  Reason reason;
  std::string strategy;  ///< plan/strategy label ("" until a caller fills it)
  int src;               ///< sending rank
  int dst;               ///< receiving rank
  int path_id;           ///< taxonomy class id
  std::string path;      ///< taxonomy class name
  int attempts;          ///< send attempts consumed
};

/// Resolved, machine-validated fault rules.  Plain data: tests build one
/// directly; production code compiles one from a fault::FaultPlan.  Shared
/// by const pointer across engines/workers (attach via Engine::set_faults);
/// never mutated during simulation.
class FaultModel {
 public:
  std::uint64_t seed = 0;  ///< fault-stream seed (mixed with the run seed)

  std::vector<LinkDegradeRule> degradations;
  std::vector<NicDegradeRule> nic_degradations;
  std::vector<NicOutageRule> outages;
  std::vector<LossRule> losses;
  /// Per-rank multiplicative slowdowns (empty = all 1.0).  compute_factor
  /// scales compute/pack/copy durations; injection_factor scales the rank's
  /// send-port and NIC-egress occupancies.
  std::vector<double> compute_factor;
  std::vector<double> injection_factor;

  /// True when the model perturbs nothing at all; Engine::set_faults
  /// normalizes an empty model to a detached fault layer.
  [[nodiscard]] bool empty() const noexcept;

  /// Structural cross-check against the machine an engine was built for;
  /// throws std::invalid_argument naming the offending rule.
  void validate(int num_ranks, int num_paths, int num_nodes,
                int nic_lanes) const;

  [[nodiscard]] bool has_outages() const noexcept { return !outages.empty(); }

  [[nodiscard]] double rank_compute_factor(int rank) const noexcept {
    return static_cast<std::size_t>(rank) < compute_factor.size()
               ? compute_factor[static_cast<std::size_t>(rank)]
               : 1.0;
  }
  [[nodiscard]] double rank_injection_factor(int rank) const noexcept {
    return static_cast<std::size_t>(rank) < injection_factor.size()
               ? injection_factor[static_cast<std::size_t>(rank)]
               : 1.0;
  }

  /// First loss rule matching (path class, window at `t`), else nullptr.
  [[nodiscard]] const LossRule* loss_rule(int path_id,
                                          double t) const noexcept {
    for (const LossRule& r : losses) {
      if ((r.path_id < 0 || r.path_id == path_id) && r.window.contains(t)) {
        return &r;
      }
    }
    return nullptr;
  }

  /// Rep-invariant per-message inputs: the engine's transfer step fills
  /// them from its MessageSchedule, whichever path produced it.
  struct MessageView {
    std::int32_t src = -1;
    std::uint8_t path_id = 0;
    bool off_node = false;
    std::int32_t src_node = -1;
    std::int32_t dst_node = -1;
    std::int32_t src_lane = -1;
    std::int32_t dst_lane = -1;
    double send_occupancy = 0.0;
    double drain_occupancy = 0.0;
    double completion_base = 0.0;
    double nic_occupancy = 0.0;
    double nic_overhead = 0.0;  ///< alpha part of nic_occupancy
  };

  /// Fault-adjusted occupancies for one message.  Windows gate on the
  /// message's first transfer-ready time `t` (one deterministic probe per
  /// message, not per resource).  Neutral rules leave every field
  /// bit-identical to the inputs: each adjustment is guarded by an exact
  /// factor != 1.0 test, so an all-neutral FaultPlan cannot change results.
  struct EffectiveMessage {
    double send_occupancy = 0.0;
    double drain_occupancy = 0.0;
    double completion_base = 0.0;
    double nic_occupancy_src = 0.0;
    double nic_occupancy_dst = 0.0;
    bool degraded = false;
    double extra_seconds = 0.0;  ///< occupancy added by degradation
  };

  [[nodiscard]] EffectiveMessage effective(const MessageView& m,
                                           double t) const noexcept {
    EffectiveMessage e;
    e.send_occupancy = m.send_occupancy;
    e.drain_occupancy = m.drain_occupancy;
    e.completion_base = m.completion_base;
    e.nic_occupancy_src = m.nic_occupancy;
    e.nic_occupancy_dst = m.nic_occupancy;

    double fa = 1.0;
    double fb = 1.0;
    for (const LinkDegradeRule& r : degradations) {
      if ((r.path_id < 0 || r.path_id == m.path_id) && r.window.contains(t)) {
        fa *= r.alpha_factor;
        fb *= r.beta_factor;
      }
    }
    if (fa != 1.0 || fb != 1.0) {
      // Recover alpha and the queue-search term from the precomputed sums
      // instead of the raw parameter table: the sums are the transfer
      // step's inputs, so both execution paths degrade the same doubles.
      const double beta_s = m.drain_occupancy;
      const double alpha = m.send_occupancy - beta_s;
      const double queue_term = m.completion_base - m.send_occupancy;
      e.send_occupancy = fa * alpha + fb * beta_s;
      e.drain_occupancy = fb * beta_s;
      e.completion_base = e.send_occupancy + queue_term;
      e.degraded = true;
    }

    if (m.off_node && !nic_degradations.empty()) {
      double sa = 1.0;
      double sb = 1.0;
      double da = 1.0;
      double db = 1.0;
      for (const NicDegradeRule& r : nic_degradations) {
        if (!r.window.contains(t)) continue;
        if ((r.node < 0 || r.node == m.src_node) &&
            (r.lane < 0 || r.lane == m.src_lane)) {
          sa *= r.alpha_factor;
          sb *= r.beta_factor;
        }
        if ((r.node < 0 || r.node == m.dst_node) &&
            (r.lane < 0 || r.lane == m.dst_lane)) {
          da *= r.alpha_factor;
          db *= r.beta_factor;
        }
      }
      const double rate_part = m.nic_occupancy - m.nic_overhead;
      if (sa != 1.0 || sb != 1.0) {
        e.nic_occupancy_src = sa * m.nic_overhead + sb * rate_part;
        e.degraded = true;
      }
      if (da != 1.0 || db != 1.0) {
        e.nic_occupancy_dst = da * m.nic_overhead + db * rate_part;
        e.degraded = true;
      }
    }

    const double inj = rank_injection_factor(m.src);
    if (inj != 1.0) {
      e.send_occupancy *= inj;
      e.nic_occupancy_src *= inj;
      e.degraded = true;
    }

    if (e.degraded) {
      e.extra_seconds = (e.send_occupancy - m.send_occupancy) +
                        (e.drain_occupancy - m.drain_occupancy);
      if (m.off_node) {
        e.extra_seconds += (e.nic_occupancy_src - m.nic_occupancy) +
                           (e.nic_occupancy_dst - m.nic_occupancy);
      }
    }
    return e;
  }

  [[nodiscard]] bool lane_down(int node, int lane, double t) const noexcept {
    for (const NicOutageRule& r : outages) {
      if ((r.node < 0 || r.node == node) && (r.lane < 0 || r.lane == lane) &&
          r.window.contains(t)) {
        return true;
      }
    }
    return false;
  }

  /// Earliest time >= t at which (node, lane) is up; +inf when an unbounded
  /// outage covers it.  Iterates to a fixpoint over overlapping windows.
  [[nodiscard]] double lane_up_at(int node, int lane,
                                  double t) const noexcept {
    double u = t;
    for (;;) {
      bool moved = false;
      for (const NicOutageRule& r : outages) {
        if ((r.node < 0 || r.node == node) &&
            (r.lane < 0 || r.lane == lane) && r.window.contains(u)) {
          if (r.window.end == std::numeric_limits<double>::infinity()) {
            return r.window.end;
          }
          u = r.window.end;
          moved = true;
        }
      }
      if (!moved) return u;
    }
  }

  struct LaneRoute {
    std::int32_t lane = 0;  ///< lane to inject on
    double at = 0.0;        ///< earliest usable time (>= probe time)
    bool failover = false;  ///< true when not the home lane at probe time
  };

  /// Route (node, home_lane) at time t around outages: the home lane when
  /// up, else the first surviving lane scanning (home+1) % lanes onward,
  /// else the lane with the earliest recovery (lowest index on ties).
  /// `at` is +inf when no lane of the node ever recovers.
  [[nodiscard]] LaneRoute route_lane(int node, int home_lane, int lanes,
                                     double t) const noexcept {
    if (!lane_down(node, home_lane, t)) {
      return {home_lane, t, false};
    }
    for (int k = 1; k < lanes; ++k) {
      const int lane = (home_lane + k) % lanes;
      if (!lane_down(node, lane, t)) return {lane, t, true};
    }
    double best = std::numeric_limits<double>::infinity();
    std::int32_t best_lane = static_cast<std::int32_t>(home_lane);
    for (int lane = 0; lane < lanes; ++lane) {
      const double up = lane_up_at(node, lane, t);
      if (up < best) {
        best = up;
        best_lane = lane;
      }
    }
    return {best_lane, best, true};
  }
};

}  // namespace hetcomm
