#include "sparse/coarsen.hpp"

#include <gtest/gtest.h>

#include <set>

#include "sparse/comm_graph.hpp"
#include "sparse/generators.hpp"

namespace hetcomm::sparse {
namespace {

TEST(Aggregation, CoversEveryRowExactlyOnce) {
  const CsrMatrix m = mesh_laplacian_2d(20, 20);
  const Aggregation agg = aggregate_greedy(m);
  EXPECT_GT(agg.num_aggregates, 0);
  EXPECT_LT(agg.num_aggregates, m.rows());
  for (const std::int64_t id : agg.aggregate_of) {
    EXPECT_GE(id, 0);
    EXPECT_LT(id, agg.num_aggregates);
  }
  // Every aggregate id is used.
  std::set<std::int64_t> used(agg.aggregate_of.begin(),
                              agg.aggregate_of.end());
  EXPECT_EQ(static_cast<std::int64_t>(used.size()), agg.num_aggregates);
}

TEST(Aggregation, MeshCoarseningRatioNearStencilSize) {
  // Distance-1 aggregation on a 5-point stencil groups ~3-5 vertices.
  const CsrMatrix m = mesh_laplacian_2d(40, 40);
  const Aggregation agg = aggregate_greedy(m);
  const double ratio =
      static_cast<double>(m.rows()) / static_cast<double>(agg.num_aggregates);
  EXPECT_GE(ratio, 2.0);
  EXPECT_LT(ratio, 6.0);
}

TEST(Aggregation, RejectsRectangular) {
  const CsrMatrix rect = CsrMatrix::from_triplets(2, 3, {{0, 1, 1.0}});
  EXPECT_THROW((void)aggregate_greedy(rect), std::invalid_argument);
  // Columns past the aggregation would index outside it.
  EXPECT_THROW((void)coarsen(rect, Aggregation{{0, 0}, 1}),
               std::invalid_argument);
}

TEST(Coarsen, GalerkinPreservesRowSums) {
  // With piecewise-constant P, row sums are conserved in aggregate:
  // sum(A_c) == sum(A) and each coarse row sum equals the sum of its fine
  // rows' sums.
  const CsrMatrix m = banded_fem(300, 10, 6, 3);
  const Aggregation agg = aggregate_greedy(m);
  const CsrMatrix mc = coarsen(m, agg);
  EXPECT_EQ(mc.rows(), agg.num_aggregates);

  auto total = [](const CsrMatrix& a) {
    double s = 0.0;
    for (const double v : a.values()) s += v;
    return s;
  };
  EXPECT_NEAR(total(mc), total(m), 1e-9);
}

TEST(Coarsen, CoarseDegreeGrowsRelativeToSize) {
  // The classic AMG effect: coarse operators are denser per row.
  const CsrMatrix m = mesh_laplacian_2d(48, 48);
  const Hierarchy h = build_hierarchy(m, 32, 6);
  ASSERT_GE(h.levels.size(), 3u);
  for (std::size_t l = 1; l < h.levels.size(); ++l) {
    EXPECT_LT(h.levels[l].rows(), h.levels[l - 1].rows()) << "level " << l;
  }
  // Mean degree does not collapse (stays within a factor of the fine one).
  EXPECT_GT(h.levels[1].mean_degree(), 0.8 * h.levels[0].mean_degree());
}

TEST(Coarsen, HierarchyStopsAtMinRows) {
  const CsrMatrix m = mesh_laplacian_2d(32, 32);
  const Hierarchy h = build_hierarchy(m, 100, 16);
  for (std::size_t l = 0; l + 1 < h.levels.size(); ++l) {
    EXPECT_GT(h.levels[l].rows(), 100) << "level " << l;
  }
  EXPECT_THROW((void)build_hierarchy(m, 0, 4), std::invalid_argument);
}

TEST(Coarsen, PatternSymmetryPreserved) {
  const CsrMatrix m = banded_fem(200, 8, 4, 11);
  const CsrMatrix mc = coarsen(m, aggregate_greedy(m));
  EXPECT_TRUE(mc.pattern_symmetric());
  EXPECT_NO_THROW(mc.validate());
}

TEST(Coarsen, CoarseLevelsHaveHigherRelativeFanout) {
  // The communication motivation: partitioned across the same GPUs, a
  // coarse level reaches at least as many neighbor parts per part (often
  // more) while rows per part shrink.
  const CsrMatrix fine = banded_fem(4000, 40, 8, 9, /*with_values=*/false);
  const Hierarchy h = build_hierarchy(fine, 200, 4);
  ASSERT_GE(h.levels.size(), 3u);
  const int parts = 16;
  auto mean_fanout = [&](const CsrMatrix& m) {
    const RowPartition part = RowPartition::contiguous(m.rows(), parts);
    const core::CommPattern p = spmv_comm_pattern(m, part);
    double fanout = 0.0;
    for (int q = 0; q < parts; ++q) {
      fanout += static_cast<double>(p.sends_from(q).size());
    }
    return fanout / parts;
  };
  EXPECT_GE(mean_fanout(h.levels[2]), mean_fanout(h.levels[0]));
}

}  // namespace
}  // namespace hetcomm::sparse
