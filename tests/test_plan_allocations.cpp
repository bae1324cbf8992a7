// Heap-allocation budget of a plan-cache miss: random_pattern, build_plan
// and the CompiledPlan constructor, for each of the 8 Table-5 strategies,
// and Advisor::rank, on the CLI's default pattern (4 lassen nodes, 16
// messages of 4096 bytes per GPU, seed 1).  Lowering and compiling allocate
// per phase, not per flow, slice or chunk; a change that allocates per flow
// again fails here.  A whole serve request that repeats that pattern's
// {"random": ...} spec has its own budget.
//
// This binary alone replaces the global operator new and operator delete:
// they count calls and forward to malloc and free.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <iterator>
#include <new>
#include <string>
#include <vector>

#include "core/advisor.hpp"
#include "core/compiled_plan.hpp"
#include "core/strategy.hpp"
#include "hetsim/params.hpp"
#include "serve/service.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// std::stable_sort's buffer comes from the nothrow form; under ASan an
// unreplaced one would pair the sanitizer's new with the free below.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace hetcomm {
namespace {

/// Heap allocations made by `f()`.
template <class F>
std::size_t allocations_of(F&& f) {
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  f();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

const Topology& topo() {
  static const Topology t(presets::lassen(4));
  return t;
}

// Budgets are the counts this layout makes plus 25%, rounded down.  The
// per-flow layout before it made 81 (random_pattern), 11-834 (build_plan)
// and 50-138 (CompiledPlan) on the same input; CHANGES.md lists both.
TEST(PlanAllocations, RandomPatternAllocatesPerRow) {
  const std::size_t n =
      allocations_of([] { (void)core::random_pattern(topo(), 16, 4096, 1); });
  EXPECT_LE(n, 25u) << "random_pattern made " << n << " allocations";
}

struct Budget {
  const char* strategy;
  std::size_t build_plan;
  std::size_t compile;
};

TEST(PlanAllocations, LoweringAndCompileAllocatePerPhase) {
  const Budget budgets[] = {
      {"standard (staged)", 6, 12},   {"standard (device-aware)", 3, 7},
      {"3-step (staged)", 18, 28},    {"3-step (device-aware)", 17, 23},
      {"2-step (staged)", 17, 22},    {"2-step (device-aware)", 16, 17},
      {"split+MD", 27, 27},           {"split+DD", 32, 27},
  };
  const core::CommPattern pattern = core::random_pattern(topo(), 16, 4096, 1);
  const ParamSet params = lassen_params();
  const std::vector<core::StrategyConfig> roster = core::table5_strategies();
  ASSERT_EQ(roster.size(), std::size(budgets));
  for (std::size_t i = 0; i < roster.size(); ++i) {
    const core::StrategyConfig& cfg = roster[i];
    ASSERT_EQ(cfg.name(), budgets[i].strategy);
    core::CommPlan plan;
    const std::size_t built = allocations_of(
        [&] { plan = core::build_plan(pattern, topo(), params, cfg); });
    const std::size_t compiled = allocations_of(
        [&] { (void)core::CompiledPlan(plan, topo(), params); });
    EXPECT_LE(built, budgets[i].build_plan)
        << cfg.name() << ": build_plan made " << built << " allocations";
    EXPECT_LE(compiled, budgets[i].compile)
        << cfg.name() << ": CompiledPlan made " << compiled << " allocations";
  }
}

// Advisor::rank on the same pattern.  The roster minus this machine's
// identity aliases is built once per Advisor, so a call allocates one
// scratch row for its pattern statistics, its result and the stable sort's
// buffer: 3.  Rebuilding the roster per call made 19.  The budget is the
// count plus 25%, rounded down.
TEST(PlanAllocations, AdvisorRankAllocatesItsResult) {
  const core::Advisor advisor(topo(), lassen_params());
  const core::CommPattern pattern = core::random_pattern(topo(), 16, 4096, 1);
  std::vector<core::Recommendation> ranking;
  const std::size_t n =
      allocations_of([&] { ranking = advisor.rank(pattern); });
  ASSERT_FALSE(ranking.empty());
  EXPECT_LE(n, 3u) << "Advisor::rank made " << n << " allocations";
}

// One serve request, parse to reply, that repeats a {"random": ...} spec
// whose plan is cached.  The spec's resolved hash and statistics are
// remembered, so the request neither regenerates its pattern nor
// summarizes it again, and strategy names are spelled once per program:
// 39 allocations.  Regenerating and re-ranking every time made 73.
TEST(PlanAllocations, RepeatedRandomSpecRequest) {
  serve::ServiceOptions options;
  options.jobs = 1;
  serve::Service service(options);
  const std::string line =
      R"({"nodes": 4, "pattern": {"random": {"msgs_per_gpu": 16, )"
      R"("bytes": 4096, "seed": 1}}, "reps": 8, "seed": 3})";
  (void)service.handle_line(line);  // ranks, compiles and caches its plan
  (void)service.handle_line(line);
  std::string reply;
  const std::size_t n =
      allocations_of([&] { reply = service.handle_line(line); });
  ASSERT_NE(reply.find(R"("cache": "hit")"), std::string::npos) << reply;
  EXPECT_LE(n, 48u) << "a repeated random-spec request made " << n
                   << " allocations";
}

}  // namespace
}  // namespace hetcomm
