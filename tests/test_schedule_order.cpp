// ReadyOrder: the compiled engine's per-phase schedule order.  Its result
// must be the exact (ready, index) order -- the order Engine::resolve()
// sorts by -- for every input, and an engine that runs several plans must
// schedule each exactly as a fresh engine would.

#include "hetsim/schedule_order.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <random>
#include <vector>

#include "core/compiled_plan.hpp"
#include "core/executor.hpp"
#include "core/strategy.hpp"

namespace hetcomm {
namespace {

/// The order the schedule must follow: indices stably sorted by ready.
std::vector<std::uint32_t> reference(const std::vector<double>& ready,
                                     std::vector<std::uint32_t> members) {
  std::stable_sort(members.begin(), members.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return ready[a] < ready[b];
                   });
  return members;
}

std::vector<std::uint32_t> all_indices(std::size_t n) {
  std::vector<std::uint32_t> v(n);
  std::iota(v.begin(), v.end(), 0u);
  return v;
}

/// Checks `ready` both as a whole phase and as a wave of every other index.
void expect_reference_order(ReadyOrder& order,
                            const std::vector<double>& ready) {
  EXPECT_EQ(order.sort(ready.data(), nullptr, ready.size()),
            reference(ready, all_indices(ready.size())));
  std::vector<std::uint32_t> wave;
  for (std::uint32_t i = 1; i < ready.size(); i += 2) wave.push_back(i);
  EXPECT_EQ(order.sort(ready.data(), wave.data(), wave.size()),
            reference(ready, wave));
}

TEST(ReadyOrderTest, EmptyAndSingle) {
  ReadyOrder order;
  EXPECT_TRUE(order.sort(nullptr, nullptr, 0).empty());
  const double one = 3.5;
  EXPECT_EQ(order.sort(&one, nullptr, 1), std::vector<std::uint32_t>{0});
  const std::uint32_t member = 0;
  EXPECT_EQ(order.sort(&one, &member, 1), std::vector<std::uint32_t>{0});
}

TEST(ReadyOrderTest, AllEqualKeepsIndexOrder) {
  ReadyOrder order;
  for (const std::size_t n : {2u, 16u, 17u, 300u}) {
    const std::vector<double> ready(n, 1.25e-5);
    EXPECT_EQ(order.sort(ready.data(), nullptr, n), all_indices(n));
    expect_reference_order(order, ready);
  }
}

TEST(ReadyOrderTest, ManyTiesBreakByIndex) {
  ReadyOrder order;
  std::mt19937_64 rng(7);
  std::vector<double> ready(257);
  for (double& r : ready) r = 1e-5 * static_cast<double>(rng() % 5);
  expect_reference_order(order, ready);
}

TEST(ReadyOrderTest, Reversed) {
  ReadyOrder order;
  for (const std::size_t n : {5u, 16u, 40u, 600u}) {
    std::vector<double> ready(n);
    for (std::size_t i = 0; i < n; ++i) {
      ready[i] = 1e-6 * static_cast<double>(n - i);
    }
    std::vector<std::uint32_t> expected = all_indices(n);
    std::reverse(expected.begin(), expected.end());
    EXPECT_EQ(order.sort(ready.data(), nullptr, n), expected);
    expect_reference_order(order, ready);
  }
}

TEST(ReadyOrderTest, HugeOutlierBesideACrowdedCluster) {
  // Every key but the outlier lands in the first bucket, in random order:
  // the move budget runs out and std::sort finishes.
  ReadyOrder order;
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> jitter(0.0, 1e-9);
  std::vector<double> ready(600);
  for (double& r : ready) r = 1.0 + jitter(rng);
  ready[123] = 1e12;
  expect_reference_order(order, ready);
  ready[123] = 0.5;  // the outlier below the cluster instead
  expect_reference_order(order, ready);
}

TEST(ReadyOrderTest, PositiveInfinity) {
  ReadyOrder order;
  std::vector<double> ready(40);
  for (std::size_t i = 0; i < ready.size(); ++i) {
    ready[i] = 1e-6 * static_cast<double>((i * 7) % 40);
  }
  ready[3] = std::numeric_limits<double>::infinity();
  ready[30] = std::numeric_limits<double>::infinity();
  expect_reference_order(order, ready);
  std::vector<double> small(ready.begin(), ready.begin() + 8);  // <= 16 keys
  expect_reference_order(order, small);
}

TEST(ReadyOrderTest, SpanTooSmallForAFiniteScale) {
  ReadyOrder order;
  const double tiny = std::numeric_limits<double>::denorm_min();
  std::vector<double> ready(64);
  for (std::size_t i = 0; i < ready.size(); ++i) {
    ready[i] = (i * 5) % 3 == 0 ? tiny : 0.0;
  }
  expect_reference_order(order, ready);
  // A span of a few ulps still has a finite scale; keys crowd the buckets.
  for (std::size_t i = 0; i < ready.size(); ++i) {
    ready[i] = 1.0;
    for (std::size_t u = 0; u < (i * 13) % 4; ++u) {
      ready[i] = std::nextafter(ready[i], 2.0);
    }
  }
  expect_reference_order(order, ready);
}

std::vector<std::uint32_t> by_bit_pattern(const std::vector<double>& ready) {
  std::vector<std::uint32_t> v = all_indices(ready.size());
  std::stable_sort(v.begin(), v.end(), [&](std::uint32_t a, std::uint32_t b) {
    return std::bit_cast<std::uint64_t>(ready[a]) <
           std::bit_cast<std::uint64_t>(ready[b]);
  });
  return v;
}

TEST(ReadyOrderTest, AnyDoubleIsOrderedByBitPattern) {
  // Outside the engine's domain (negative, NaN, -inf) the routine still
  // returns the exact (bit pattern, index) order, with no undefined
  // behaviour and in bounded time.
  ReadyOrder order;
  std::mt19937_64 rng(13);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  for (const std::size_t n : {9u, 100u, 513u}) {
    std::vector<double> ready(n);
    for (double& r : ready) r = std::bit_cast<double>(rng());
    ready[0] = std::numeric_limits<double>::quiet_NaN();
    ready[n / 2] = -std::numeric_limits<double>::infinity();
    ready[n - 1] = -0.0;
    EXPECT_EQ(order.sort(ready.data(), nullptr, n), by_bit_pattern(ready));
    std::rotate(ready.begin(), ready.begin() + 1, ready.end());  // NaN last
    EXPECT_EQ(order.sort(ready.data(), nullptr, n), by_bit_pattern(ready));
    // Finite bounds: negative keys fall in the first buckets, but their bit
    // patterns sort last.
    for (double& r : ready) r = unit(rng);
    ready[n / 3] = std::numeric_limits<double>::quiet_NaN();
    EXPECT_EQ(order.sort(ready.data(), nullptr, n), by_bit_pattern(ready));
  }
}

TEST(ReadyOrderTest, RandomArraysMatchStableSort) {
  // 10k arrays of 1-600 keys drawn from a few distinct levels plus jitter,
  // so ties are common; one ReadyOrder serves them all, as in the engine.
  ReadyOrder order;
  std::mt19937_64 rng(17);
  std::vector<double> ready;
  for (int trial = 0; trial < 10000; ++trial) {
    const std::size_t n = 1 + rng() % 600;
    const std::uint64_t levels = 1 + rng() % (n + 1);
    const bool jitter = rng() % 2 == 0;
    ready.resize(n);
    for (double& r : ready) {
      r = 1e-5 + 1e-7 * static_cast<double>(rng() % levels);
      if (jitter && rng() % 3 == 0) r += 1e-9 * static_cast<double>(rng() % 7);
    }
    const std::vector<std::uint32_t>& got =
        order.sort(ready.data(), nullptr, n);
    ASSERT_EQ(got, reference(ready, all_indices(n))) << "trial " << trial;
  }
}

TEST(ReadyOrderTest, InterleavedPlansMatchFreshEnginesAndTheInterpreter) {
  // Two split plans with the same phase sizes, alternated on one engine at
  // a high noise level: each repetition must match a fresh engine and the
  // interpreted run bit for bit, whichever plan ran before it.  The second
  // plan posts each phase of the first in reverse op order: the same phase
  // sizes, other ready times.
  const Topology topo{presets::lassen(4)};
  const ParamSet params = lassen_params();
  std::vector<core::CommPlan> plans;
  for (const char* strategy : {"split+MD", "split+DD"}) {
    plans.push_back(core::build_plan(core::random_pattern(topo, 16, 4096, 5),
                                     topo, params,
                                     core::parse_strategy(strategy)));
  }
  for (std::size_t p = 0; p < 2; ++p) {
    core::CommPlan reversed = plans[p];
    for (core::PlanPhase& phase : reversed.phases) {
      for (const core::PlanOp& op : phase.ops) ASSERT_LT(op.depends_on, 0);
      std::reverse(phase.ops.begin(), phase.ops.end());
    }
    plans.push_back(std::move(reversed));
  }
  std::vector<core::CompiledPlan> compiled;
  for (const core::CommPlan& plan : plans) {
    compiled.emplace_back(plan, topo, params);
  }

  constexpr double kSigma = 0.2;
  Engine shared(topo, params, NoiseModel(0, kSigma));
  for (std::uint64_t rep = 0; rep < 6; ++rep) {
    for (const std::size_t p : {0u, 2u, 1u, 3u}) {
      const std::uint64_t seed = mix_seed(99, rep);
      shared.reset(seed);
      shared.execute(compiled[p]);

      Engine fresh(topo, params, NoiseModel(seed, kSigma));
      fresh.execute(compiled[p]);
      Engine interpreted(topo, params, NoiseModel(seed, kSigma));
      const std::vector<double> clocks = core::run_plan(interpreted, plans[p]);
      for (int r = 0; r < topo.num_ranks(); ++r) {
        ASSERT_EQ(shared.clock(r), fresh.clock(r))
            << plans[p].strategy_name << " rep " << rep << " rank " << r;
        ASSERT_EQ(shared.clock(r), clocks[static_cast<std::size_t>(r)])
            << plans[p].strategy_name << " rep " << rep << " rank " << r;
      }
    }
  }
}

}  // namespace
}  // namespace hetcomm
