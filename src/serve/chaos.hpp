#pragma once
// Chaos/soak harness for `hetcomm serve` (docs/serve.md "Resilience").
//
// run_chaos() drives a live serve::Service through seeded adversarial
// schedules -- malformed-line bursts (the tests/data/bad corpus plus
// built-in variants), request storms at a multiple of the admission
// bound, deterministic FaultAbort patterns, randomized deadline mixes,
// and (on unix) slow / stalling / mid-stream-disconnecting socket
// clients -- and checks the service's resilience invariants the whole
// way:
//
//   * every request line gets exactly one reply (none lost, none
//     duplicated; correlated by id),
//   * the stats counters balance exactly (control + errors + degraded +
//     predict_only + measured == total, errors_by_code sums to errors)
//     and match the harness's own per-reply tallies,
//   * well-formed in-deadline requests answer bit-identically to a
//     one-shot service (volatile timing/cache fields aside),
//   * throughput recovers after the storm (recovery_ratio), and
//   * degraded (model-only) answers recommend exactly what the full
//     engine-executing service recommends on the hot plan set
//     (degraded_agreement) -- degradation may cost measurement detail,
//     never a different answer.
//
// Everything is derived from ChaosOptions::seed, so a failing schedule
// replays exactly.  The bench driver is bench/serve_chaos.cpp; the
// tier-1 contract test is tests/test_serve_chaos.cpp.

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "serve/service.hpp"

namespace hetcomm::serve::chaos {

struct ChaosOptions {
  /// Master seed for every randomized choice (schedules, deadline mix,
  /// malformed-line placement).  Same seed, same schedule, same verdict.
  std::uint64_t seed = 1;
  /// Well-formed data requests in each steady-state (baseline and
  /// post-storm) phase.
  int requests = 96;
  /// Storm size as a multiple of max_queue (the ISSUE-10 acceptance run
  /// uses 4x with ~10% malformed lines mixed in).
  int storm_factor = 4;
  /// Admission bound and policy of the service under test.
  std::size_t max_queue = 16;
  ShedPolicy shed_policy = ShedPolicy::Reject;
  /// Repetitions per measured request.
  int reps = 2;
  /// Batch window of the service under test.
  int window = 32;
  /// hetcomm.fault.v1 plan injected into a slice of storm requests ("" =
  /// no FaultAbort phase).  faults/flaky_abort.json aborts
  /// deterministically (loss probability 1, two attempts).
  std::string faults_path;
  /// Extra malformed request lines (the bench loads tests/data/bad/*);
  /// built-in variants are always in the rotation.
  std::vector<std::string> malformed_extra;
  /// Patterns in the degraded-agreement hot set (0 = skip the phase).
  int hot_patterns = 8;
  /// Run the unix-socket client phase (slow writer, mid-stream
  /// disconnect, oversized line, burst-then-wait, shutdown drain).
  bool socket_phase = true;
  /// Socket path for the socket phase ("" = derive one under /tmp).
  std::string socket_path;
};

struct PhaseStats {
  std::string name;
  std::int64_t sent = 0;
  std::int64_t answered = 0;
  std::int64_t ok = 0;
  std::int64_t errors = 0;
};

struct ChaosReport {
  std::uint64_t seed = 0;
  std::vector<PhaseStats> phases;
  std::int64_t sent_total = 0;
  std::int64_t answered_total = 0;
  /// Baseline replies that differed from the one-shot reference after
  /// stripping volatile fields (must be 0).
  std::int64_t mismatched_replies = 0;
  /// Observed error_code -> count across every reply the harness read.
  std::vector<std::pair<std::string, std::int64_t>> reply_codes;
  bool counters_balanced = false;
  double qps_baseline = 0.0;
  double qps_post_storm = 0.0;
  double recovery_ratio = 0.0;
  /// Fraction of hot patterns whose degraded answer matches the full
  /// engine-executing service's recommendation and ranking order.
  double degraded_agreement = 1.0;
  /// Final stats document of the stormed service (hetcomm.metrics.v1).
  obs::JsonValue stats;
  /// Human-readable invariant failures; empty means the run passed.
  std::vector<std::string> violations;

  [[nodiscard]] bool passed() const { return violations.empty(); }
  [[nodiscard]] obs::JsonValue to_json() const;
};

/// Built-in malformed request lines (a superset of the failure shapes in
/// tests/data/bad): bad JSON, non-objects, unknown keys/cmds, bad types,
/// out-of-range integers.  Each answers bad_request when admitted.
[[nodiscard]] std::vector<std::string> builtin_malformed_lines();

/// Run the full chaos schedule against fresh Service instances.
[[nodiscard]] ChaosReport run_chaos(const ChaosOptions& options);

}  // namespace hetcomm::serve::chaos
