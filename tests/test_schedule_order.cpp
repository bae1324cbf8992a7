// ReadyOrder: the compiled engine's per-phase schedule order.  Its result
// must be the exact (ready, index) order -- the order Engine::resolve()
// sorts by -- for every input, and an engine that runs several plans must
// schedule each exactly as a fresh engine would.  Each ReadyOrderTest case
// runs the portable passes alone; its ReadyOrderAvx512fTest twin runs the
// same case with the AVX-512F network, where this CPU has it: 32-bit keys
// and a fix-up pass, one block of up to 256 keys or two merged.  The sizes
// 129, 256, 257, 512 and 513 sit at its padding to a whole block, its
// second block and its limit.

#include "hetsim/schedule_order.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <random>
#include <utility>
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

/// Defines ReadyOrderTest.<name> and ReadyOrderAvx512fTest.<name>, which
/// run the body that follows on the portable passes alone and with the
/// AVX-512F network.
#define READY_ORDER_TEST(name)                                           \
  void name##Body(ReadyOrder& order);                                    \
  TEST(ReadyOrderTest, name) {                                           \
    ReadyOrder order(nullptr);                                           \
    name##Body(order);                                                   \
  }                                                                      \
  TEST(ReadyOrderAvx512fTest, name) {                                    \
    const ReadyOrder::NetworkFn network = ready_order_network_avx512f(); \
    if (network == nullptr) {                                            \
      GTEST_SKIP() << "this build or CPU has no AVX-512F network";       \
    }                                                                    \
    ReadyOrder order(network);                                           \
    name##Body(order);                                                   \
  }                                                                      \
  void name##Body(ReadyOrder& order)

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

READY_ORDER_TEST(EmptyAndSingle) {
  EXPECT_TRUE(order.sort(nullptr, nullptr, 0).empty());
  const double one = 3.5;
  EXPECT_EQ(order.sort(&one, nullptr, 1), std::vector<std::uint32_t>{0});
  const std::uint32_t member = 0;
  EXPECT_EQ(order.sort(&one, &member, 1), std::vector<std::uint32_t>{0});
}

READY_ORDER_TEST(AllEqualKeepsIndexOrder) {
  for (const std::size_t n :
       {2u, 16u, 17u, 129u, 256u, 257u, 300u, 512u, 513u}) {
    const std::vector<double> ready(n, 1.25e-5);
    EXPECT_EQ(order.sort(ready.data(), nullptr, n), all_indices(n));
    expect_reference_order(order, ready);
  }
}

READY_ORDER_TEST(ManyTiesBreakByIndex) {
  std::mt19937_64 rng(7);
  for (const std::size_t n : {129u, 256u, 257u, 512u, 513u}) {
    std::vector<double> ready(n);
    for (double& r : ready) r = 1e-5 * static_cast<double>(rng() % 5);
    expect_reference_order(order, ready);
  }
}

READY_ORDER_TEST(Reversed) {
  for (const std::size_t n :
       {5u, 16u, 40u, 129u, 256u, 257u, 512u, 513u, 600u}) {
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

READY_ORDER_TEST(HugeOutlierBesideACrowdedCluster) {
  // An outlier two binades above or below the cluster still fits in one
  // key, and every key but the outlier lands in one bucket, in random
  // order: the move budget runs out and std::sort finishes.  At 1e12 the
  // span leaves no room for the index, and the pairs sort it.  Up to 512
  // keys the cluster also shares one truncated 32-bit key, so the
  // network's fix-up runs out of moves and declines first.
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> jitter(0.0, 1e-9);
  for (const std::size_t n : {129u, 300u, 512u, 600u}) {
    std::vector<double> ready(n);
    for (double& r : ready) r = 1.0 + jitter(rng);
    for (const double outlier : {4.0, 0.25, 1e12}) {
      ready[123] = outlier;
      expect_reference_order(order, ready);
    }
  }
}

READY_ORDER_TEST(PositiveInfinity) {
  for (const std::size_t n : {40u, 129u, 256u, 257u, 512u, 513u}) {
    std::vector<double> ready(n);
    for (std::size_t i = 0; i < ready.size(); ++i) {
      ready[i] = 1e-6 * static_cast<double>((i * 7) % 40);
    }
    ready[3] = std::numeric_limits<double>::infinity();
    ready[30] = std::numeric_limits<double>::infinity();
    expect_reference_order(order, ready);
    std::vector<double> small(ready.begin(), ready.begin() + 8);  // <= 16
    expect_reference_order(order, small);
  }
}

READY_ORDER_TEST(SpanTooSmallForAFiniteScale) {
  const double tiny = std::numeric_limits<double>::denorm_min();
  for (const std::size_t n : {64u, 129u, 256u, 257u, 512u, 513u}) {
    std::vector<double> ready(n);
    for (std::size_t i = 0; i < ready.size(); ++i) {
      ready[i] = (i * 5) % 3 == 0 ? tiny : 0.0;
    }
    expect_reference_order(order, ready);
    // A span of a few ulps: keys that differ in little but their index.
    for (std::size_t i = 0; i < ready.size(); ++i) {
      ready[i] = 1.0;
      for (std::size_t u = 0; u < (i * 13) % 4; ++u) {
        ready[i] = std::nextafter(ready[i], 2.0);
      }
    }
    expect_reference_order(order, ready);
  }
}

/// The (bit pattern of ready[i], i) order of `members`, in any order.
std::vector<std::uint32_t> by_bit_pattern(const std::vector<double>& ready,
                                          std::vector<std::uint32_t> members) {
  std::sort(members.begin(), members.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return std::pair(std::bit_cast<std::uint64_t>(ready[a]), a) <
                     std::pair(std::bit_cast<std::uint64_t>(ready[b]), b);
            });
  return members;
}

std::vector<std::uint32_t> by_bit_pattern(const std::vector<double>& ready) {
  return by_bit_pattern(ready, all_indices(ready.size()));
}

/// expect_reference_order for any double: (bit pattern, index) order.
void expect_bit_pattern_order(ReadyOrder& order,
                              const std::vector<double>& ready) {
  EXPECT_EQ(order.sort(ready.data(), nullptr, ready.size()),
            by_bit_pattern(ready));
  std::vector<std::uint32_t> wave;
  for (std::uint32_t i = 1; i < ready.size(); i += 2) wave.push_back(i);
  EXPECT_EQ(order.sort(ready.data(), wave.data(), wave.size()),
            by_bit_pattern(ready, wave));
}

READY_ORDER_TEST(SizesAroundEachPathBoundary) {
  // 16 and 17 keys: insertion against the bucket passes, and the network's
  // padding to 16 or 32 keys.  256 and 257: one block of the network
  // against two merged.  512 and 513: the network against the portable
  // passes.  The rest straddle the padding to 64, 128 or 256 keys.  Waves
  // of every other index of 256 to 258 keys hold 128 or 129 members, of
  // 512 to 514 keys 256 or 257, and of 1024 to 1026 keys 512 or 513.
  std::mt19937_64 rng(19);
  for (const std::size_t n :
       {1u,   2u,   7u,   8u,   9u,   15u,  16u,  17u,   31u,   32u,  33u,
        63u,  64u,  65u,  127u, 128u, 129u, 255u, 256u,  257u,  258u, 511u,
        512u, 513u, 514u, 1024u, 1025u, 1026u}) {
    std::vector<double> ready(n);
    for (int trial = 0; trial < 20; ++trial) {
      for (double& r : ready) {
        r = 1e-5 + 1e-8 * static_cast<double>(rng() % (n / 2 + 1));
      }
      expect_reference_order(order, ready);
    }
  }
}

READY_ORDER_TEST(SpansTooWideForOneKeySortAsPairs) {
  // A ready time of 0 beside positive ones, -0.0 or NaN leaves no room for
  // the index beside the bit-pattern span, at every size.
  for (const std::size_t n :
       {5u, 16u, 17u, 100u, 128u, 129u, 256u, 257u, 300u, 512u, 513u}) {
    std::vector<double> ready(n);
    for (std::size_t i = 0; i < n; ++i) {
      ready[i] = 1e-6 * static_cast<double>((i * 7) % 13 + 1);
    }
    for (const double odd :
         {0.0, -0.0, std::numeric_limits<double>::quiet_NaN()}) {
      ready[n / 2] = odd;
      expect_bit_pattern_order(order, ready);
    }
  }
}

READY_ORDER_TEST(SpanAtTheKeyLimit) {
  // With w index bits the widest span that fits the portable passes' 64-bit
  // key is 2^(64 - w) - 1, and one more no longer fits.  At the widest the
  // largest index's key is all ones, and at 16, 128, 256 and 512 keys so is
  // its truncated 32-bit key, the network's padding value.
  const std::uint64_t one = std::bit_cast<std::uint64_t>(1.0);
  for (const std::size_t n :
       {16u, 17u, 128u, 129u, 256u, 257u, 300u, 512u, 513u}) {
    const int w = std::bit_width(n - 1);
    for (const std::uint64_t past : {0u, 1u}) {
      std::vector<double> ready(n);
      for (std::size_t i = 0; i < n; ++i) {
        ready[i] = std::bit_cast<double>(one + (i * 7919) % 1000);
      }
      const std::uint64_t widest = (std::uint64_t{1} << (64 - w)) - 1;
      ready[n - 1] = std::bit_cast<double>(one + widest + past);
      expect_bit_pattern_order(order, ready);
    }
  }
}

READY_ORDER_TEST(AnyDoubleIsOrderedByBitPattern) {
  // Outside the engine's domain (negative, NaN, -inf) the routine still
  // returns the exact (bit pattern, index) order, with no undefined
  // behaviour and in bounded time.
  std::mt19937_64 rng(13);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  for (const std::size_t n : {9u, 100u, 129u, 256u, 257u, 512u, 513u}) {
    std::vector<double> ready(n);
    for (double& r : ready) r = std::bit_cast<double>(rng());
    ready[0] = std::numeric_limits<double>::quiet_NaN();
    ready[n / 2] = -std::numeric_limits<double>::infinity();
    ready[n - 1] = -0.0;
    EXPECT_EQ(order.sort(ready.data(), nullptr, n), by_bit_pattern(ready));
    std::rotate(ready.begin(), ready.begin() + 1, ready.end());  // NaN last
    EXPECT_EQ(order.sort(ready.data(), nullptr, n), by_bit_pattern(ready));
    // Finite values of both signs: negative bit patterns sort last.
    for (double& r : ready) r = unit(rng);
    ready[n / 3] = std::numeric_limits<double>::quiet_NaN();
    EXPECT_EQ(order.sort(ready.data(), nullptr, n), by_bit_pattern(ready));
  }
}

READY_ORDER_TEST(RandomArraysMatchStableSort) {
  // 10k arrays of 1-600 keys drawn from a few distinct levels plus jitter,
  // so ties are common; one ReadyOrder serves them all, as in the engine.
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

READY_ORDER_TEST(NeighboursThatShareTheirTopBits) {
  // Keys distinct in 64 bits whose difference sits far below the span's top
  // bits, with the later ready time at the smaller index: runs of 2, 3 or 4
  // keys a few ulps apart, descending with the index, spaced 2^40 ulps from
  // the next run.  The network's truncated keys tie inside a run and order
  // it by index, so its fix-up must reverse every run.
  const std::uint64_t one = std::bit_cast<std::uint64_t>(1.0);
  for (const std::size_t n :
       {17u, 100u, 129u, 200u, 256u, 257u, 300u, 511u, 512u}) {
    for (const std::size_t run : {2u, 3u, 4u}) {
      std::vector<double> ready(n);
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t base = static_cast<std::uint64_t>(i / run) << 40;
        const std::uint64_t ulps = 3 * (run - 1 - i % run);
        ready[i] = std::bit_cast<double>(one + base + ulps);
      }
      expect_bit_pattern_order(order, ready);
    }
  }
}

TEST(ReadyOrderAvx512fTest, NetworkOrdersEverySize) {
  // The network called directly, at every size it takes, on whole phases
  // and on shuffled members.  Spans of 3 ulps keep every bit, and random
  // spans of about 2^40 and 2^62 ulps leave the truncated keys few ties:
  // the fix-up stays within its budget, and the network returns the
  // (bit pattern, index) order and writes nothing past n.
  const ReadyOrder::NetworkFn network = ready_order_network_avx512f();
  if (network == nullptr) {
    GTEST_SKIP() << "this build or CPU has no AVX-512F network";
  }
  std::mt19937_64 rng(23);
  const std::uint64_t one = std::bit_cast<std::uint64_t>(1.0);
  for (std::size_t n = 1; n <= ReadyOrder::kNetworkMax; ++n) {
    for (int trial = 0; trial < 24; ++trial) {
      const int span_bits = trial % 3 == 0 ? 62 : trial % 3 == 1 ? 40 : 2;
      std::vector<double> ready(2 * n);
      for (double& r : ready) {
        r = std::bit_cast<double>(one + (rng() >> (64 - span_bits)));
      }
      std::vector<std::uint32_t> members = all_indices(2 * n);
      std::shuffle(members.begin(), members.end(), rng);
      members.resize(n);
      const bool whole = trial % 2 == 0;
      if (whole) members = all_indices(n);

      std::vector<std::uint32_t> order(n + 1, 0xdeadu);
      ASSERT_TRUE(network(ready.data(), whole ? nullptr : members.data(), n,
                          order.data()))
          << "n " << n << " trial " << trial;
      EXPECT_EQ(order[n], 0xdeadu) << "wrote past n = " << n;
      order.pop_back();
      ASSERT_EQ(order, by_bit_pattern(ready, members))
          << "n " << n << " trial " << trial;
    }
  }
}

TEST(ReadyOrderAvx512fTest, NetworkDeclinesACrowdedCluster) {
  // A cluster within 2^-30 of 1.0, beside an outlier at 4.0, shares one
  // truncated key: the fix-up would have to sort it whole, so the network
  // declines and writes nothing.  Without the outlier the same cluster
  // keeps enough bits, and the order is exact.
  const ReadyOrder::NetworkFn network = ready_order_network_avx512f();
  if (network == nullptr) {
    GTEST_SKIP() << "this build or CPU has no AVX-512F network";
  }
  std::mt19937_64 rng(29);
  std::uniform_real_distribution<double> jitter(0.0, 1e-9);
  for (const std::size_t n : {64u, 128u, 129u, 256u, 257u, 300u, 512u}) {
    std::vector<double> ready(2 * n);
    for (double& r : ready) r = 1.0 + jitter(rng);
    std::vector<std::uint32_t> members = all_indices(2 * n);
    std::shuffle(members.begin(), members.end(), rng);
    members.resize(n);
    for (const bool whole : {true, false}) {
      const std::uint32_t* m = whole ? nullptr : members.data();
      const std::vector<std::uint32_t> subset =
          whole ? all_indices(n) : members;
      std::vector<std::uint32_t> order(n, 0xdeadu);
      ASSERT_TRUE(network(ready.data(), m, n, order.data())) << "n " << n;
      EXPECT_EQ(order, by_bit_pattern(ready, subset)) << "n " << n;

      std::vector<double> outlier = ready;
      outlier[whole ? n / 2 : members[n / 2]] = 4.0;
      std::fill(order.begin(), order.end(), 0xdeadu);
      EXPECT_FALSE(network(outlier.data(), m, n, order.data())) << "n " << n;
      EXPECT_EQ(order, std::vector<std::uint32_t>(n, 0xdeadu));
    }
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
