#include "sparse/comm_graph.hpp"

#include <gtest/gtest.h>

#include "core/pattern_io.hpp"
#include "machine/machine.hpp"
#include "sparse/generators.hpp"
#include "sparse/suitesparse_profiles.hpp"

namespace hetcomm::sparse {
namespace {

TEST(HaloMap, TridiagonalNeedsOneGhostPerSide) {
  // 12 rows over 3 parts; each interior part needs one column from each
  // neighbor (tridiagonal coupling).
  std::vector<Triplet> t;
  for (std::int64_t i = 0; i < 12; ++i) {
    t.push_back({i, i, 2.0});
    if (i > 0) t.push_back({i, i - 1, -1.0});
    if (i < 11) t.push_back({i, i + 1, -1.0});
  }
  const CsrMatrix m = CsrMatrix::from_triplets(12, 12, t);
  const RowPartition part = RowPartition::contiguous(12, 3);
  const HaloMap halo = halo_map(m, part);
  ASSERT_EQ(halo.needed.size(), 3u);
  EXPECT_EQ(halo.needed[0], (std::vector<std::int64_t>{4}));
  EXPECT_EQ(halo.needed[1], (std::vector<std::int64_t>{3, 8}));
  EXPECT_EQ(halo.needed[2], (std::vector<std::int64_t>{7}));
}

TEST(HaloMap, DuplicateColumnsCountedOnce) {
  // Two rows of part 1 both reference column 0: one ghost value suffices.
  const CsrMatrix m = CsrMatrix::from_triplets(
      4, 4, {{2, 0, 1.0}, {3, 0, 1.0}, {0, 0, 1.0}, {1, 1, 1.0},
             {2, 2, 1.0}, {3, 3, 1.0}});
  const RowPartition part = RowPartition::contiguous(4, 2);
  const HaloMap halo = halo_map(m, part);
  EXPECT_EQ(halo.needed[1], (std::vector<std::int64_t>{0}));
}

TEST(HaloMap, RejectsMismatchedInputs) {
  const CsrMatrix m = CsrMatrix::from_triplets(4, 4, {{0, 0, 1.0}});
  EXPECT_THROW((void)halo_map(m, RowPartition::contiguous(5, 2)),
               std::invalid_argument);
  const CsrMatrix rect = CsrMatrix::from_triplets(4, 5, {{0, 0, 1.0}});
  EXPECT_THROW((void)halo_map(rect, RowPartition::contiguous(4, 2)),
               std::invalid_argument);
}

TEST(SpmvCommPattern, BytesCountDistinctColumns) {
  const CsrMatrix m = CsrMatrix::from_triplets(
      4, 4, {{2, 0, 1.0}, {2, 1, 1.0}, {3, 0, 1.0}, {0, 0, 1.0},
             {1, 1, 1.0}, {2, 2, 1.0}, {3, 3, 1.0}});
  const RowPartition part = RowPartition::contiguous(4, 2);
  const core::CommPattern pattern = spmv_comm_pattern(m, part, 8);
  // Part 1 needs columns {0, 1} from part 0 => 16 bytes, one message.
  EXPECT_EQ(pattern.bytes(0, 1), 16);
  EXPECT_EQ(pattern.bytes(1, 0), 0);
  EXPECT_EQ(pattern.total_messages(), 1);
  EXPECT_THROW((void)spmv_comm_pattern(m, part, 0), std::invalid_argument);
}

TEST(SpmvCommPattern, SymmetricMatrixGivesSymmetricNeighbors) {
  const CsrMatrix m = banded_fem(400, 12, 6, 21);
  const RowPartition part = RowPartition::contiguous(400, 8);
  const core::CommPattern pattern = spmv_comm_pattern(m, part);
  for (int p = 0; p < 8; ++p) {
    for (int q = 0; q < 8; ++q) {
      // Structural symmetry => if p sends to q, q sends to p.
      EXPECT_EQ(pattern.bytes(p, q) > 0, pattern.bytes(q, p) > 0)
          << p << "->" << q;
    }
  }
}

TEST(SpmvCommPattern, NarrowBandTouchesOnlyNeighbors) {
  const CsrMatrix m = banded_fem(800, 10, 4, 3);
  const RowPartition part = RowPartition::contiguous(800, 8);  // 100 rows/part
  const core::CommPattern pattern = spmv_comm_pattern(m, part);
  for (int p = 0; p < 8; ++p) {
    for (const core::GpuMessage& msg : pattern.sends_from(p)) {
      EXPECT_LE(std::abs(msg.dst_gpu - p), 1)
          << "band 10 << 100 rows/part must stay nearest-neighbor";
    }
  }
}

TEST(SpmvCommPattern, WideBandTouchesManyParts) {
  const CsrMatrix m = banded_fem(800, 300, 8, 3);
  const RowPartition part = RowPartition::contiguous(800, 8);
  const core::CommPattern pattern = spmv_comm_pattern(m, part);
  int max_fanout = 0;
  for (int p = 0; p < 8; ++p) {
    max_fanout = std::max(
        max_fanout, static_cast<int>(pattern.sends_from(p).size()));
  }
  EXPECT_GE(max_fanout, 3);
}

TEST(SpmvCommPattern, NodeAwarePatternHashesArePinned) {
  // Clients hold pattern hashes as refs, so these must never change.  The
  // audikw_1 case is the benchmark's fixture; thermal2 takes the long-range
  // generator.
  struct Pinned {
    const char* name;
    double scale;
    std::int64_t bytes_per_value;
    std::uint64_t hash;
  };
  const Pinned kPinned[] = {
      {"audikw_1", 0.015, 533, 0x84382ea4d3a8be1bULL},
      {"thermal2", 0.01, 800, 0x883dd68e3dc2d7b1ULL},
  };
  const Topology topo = machine::preset_machine("lassen").topology(4);
  for (const Pinned& p : kPinned) {
    const CsrMatrix m = generate_standin(profile_by_name(p.name), p.scale, 1);
    const RowPartition part =
        RowPartition::contiguous(m.rows(), topo.num_gpus());
    EXPECT_EQ(core::pattern_hash(
                  spmv_comm_pattern(m, part, topo, p.bytes_per_value)),
              p.hash)
        << p.name;
  }
}

TEST(DistributedSpmv, MatchesSequentialKernel) {
  const CsrMatrix m = banded_fem(600, 25, 8, 77);
  std::vector<double> x(600);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = 0.25 * static_cast<double>(i % 17) - 1.0;
  }
  const std::vector<double> y_seq = spmv(m, x);
  for (const int parts : {1, 2, 5, 16}) {
    const RowPartition part = RowPartition::contiguous(600, parts);
    const std::vector<double> y_dist = distributed_spmv(m, part, x);
    ASSERT_EQ(y_dist.size(), y_seq.size());
    for (std::size_t i = 0; i < y_seq.size(); ++i) {
      EXPECT_DOUBLE_EQ(y_dist[i], y_seq[i]) << "parts=" << parts << " i=" << i;
    }
  }
}

TEST(DistributedSpmv, ArrowMatrixStillExact) {
  CsrMatrix base = banded_fem(400, 10, 4, 5);
  const CsrMatrix m = with_arrow(base, 10, 20, 6);
  std::vector<double> x(400, 1.0);
  const std::vector<double> y_seq = spmv(m, x);
  const std::vector<double> y_dist =
      distributed_spmv(m, RowPartition::contiguous(400, 7), x);
  for (std::size_t i = 0; i < y_seq.size(); ++i) {
    EXPECT_DOUBLE_EQ(y_dist[i], y_seq[i]);
  }
}

}  // namespace
}  // namespace hetcomm::sparse
