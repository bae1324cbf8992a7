#include "core/comm_pattern.hpp"

#include <gtest/gtest.h>

namespace hetcomm::core {
namespace {

TEST(CommPattern, AccumulatesBytesAndMultiplicity) {
  CommPattern p(4);
  p.add(0, 1, 100);
  p.add(0, 1, 50);
  p.add(0, 2, 10);
  EXPECT_EQ(p.bytes(0, 1), 150);
  EXPECT_EQ(p.total_bytes(), 160);
  EXPECT_EQ(p.total_messages(), 3);
  const auto sends = p.sends_from(0);
  ASSERT_EQ(sends.size(), 2u);
  EXPECT_EQ(sends[0].dst_gpu, 1);
  EXPECT_EQ(sends[0].count, 2);
  EXPECT_EQ(sends[1].count, 1);
}

TEST(CommPattern, IgnoresSelfAndZero) {
  CommPattern p(4);
  p.add(1, 1, 100);
  p.add(0, 1, 0);
  EXPECT_EQ(p.total_bytes(), 0);
  EXPECT_EQ(p.total_messages(), 0);
}

TEST(CommPattern, RejectsBadInput) {
  CommPattern p(2);
  EXPECT_THROW((void)p.add(0, 5, 10), std::out_of_range);
  EXPECT_THROW((void)p.add(-1, 0, 10), std::out_of_range);
  EXPECT_THROW((void)p.add(0, 1, -1), std::invalid_argument);
  EXPECT_THROW((void)CommPattern(0), std::invalid_argument);
  // Payload plus dedup bytes past int64 are rejected, and the pattern
  // keeps its state.
  const std::int64_t half = std::int64_t{1} << 62;
  p.add(0, 1, half);
  EXPECT_THROW((void)p.add(1, 0, half), std::invalid_argument);
  EXPECT_THROW((void)p.set_node_dedup(1, 0, half), std::invalid_argument);
  EXPECT_EQ(p.total_bytes(), half);
  EXPECT_EQ(p.total_messages(), 1);
  EXPECT_FALSE(p.has_dedup_info());
  p.set_node_dedup(1, 0, half - 1);  // payload + dedup fill int64 exactly
  EXPECT_THROW((void)p.add(1, 0, 1), std::invalid_argument);
  p.set_node_dedup(1, 0, 5);  // overwriting frees the old size's room
  p.add(1, 0, half / 2);
  EXPECT_EQ(p.node_dedup_bytes(1, 0), 5);
}

TEST(CommPattern, RecvsMirrorSends) {
  CommPattern p(4);
  p.add(0, 3, 100);
  p.add(1, 3, 200);
  const std::vector<GpuMessage> recvs = p.recvs_to(3);
  ASSERT_EQ(recvs.size(), 2u);
  EXPECT_EQ(recvs[0].dst_gpu, 0);  // source, for recvs
  EXPECT_EQ(recvs[0].bytes, 100);
  EXPECT_EQ(p.recv_bytes(3), 300);
  EXPECT_EQ(p.send_bytes(1), 200);
}

TEST(CommPattern, InterIntraNodeFilters) {
  const Topology topo(presets::lassen(2));
  CommPattern p(topo.num_gpus());
  p.add(0, 1, 100);  // on-socket
  p.add(0, 2, 200);  // on-node
  p.add(0, 4, 300);  // off-node
  const CommPattern inter = p.internode_only(topo);
  const CommPattern intra = p.intranode_only(topo);
  EXPECT_EQ(inter.total_bytes(), 300);
  EXPECT_EQ(intra.total_bytes(), 300);
  EXPECT_EQ(inter.bytes(0, 4), 300);
  EXPECT_EQ(intra.bytes(0, 1), 100);
}

TEST(CommPattern, FilterPreservesMultiplicity) {
  const Topology topo(presets::lassen(2));
  CommPattern p(topo.num_gpus());
  p.add(0, 4, 100);
  p.add(0, 4, 100);
  const CommPattern inter = p.internode_only(topo);
  EXPECT_EQ(inter.sends_from(0).front().count, 2);
  EXPECT_EQ(inter.total_bytes(), 200);
}

TEST(PatternStats, Table7QuantitiesOnHandPattern) {
  const Topology topo(presets::lassen(3));  // gpus 0-3 node0, 4-7 node1, ...
  CommPattern p(topo.num_gpus());
  p.add(0, 4, 100);  // node0 -> node1
  p.add(0, 5, 100);  // node0 -> node1
  p.add(1, 8, 400);  // node0 -> node2
  p.add(0, 1, 999);  // intra-node, excluded from stats
  const PatternStats st = compute_stats(p, topo);
  EXPECT_EQ(st.s_proc, 400);       // gpu 1 sends 400 inter-node
  EXPECT_EQ(st.s_node, 600);       // node 0 injects 600
  EXPECT_EQ(st.s_node_node, 400);  // node0->node2
  EXPECT_EQ(st.m_proc, 2);         // gpu 0 sends two messages
  EXPECT_EQ(st.m_proc_node, 1);    // each gpu targets one node
  EXPECT_EQ(st.m_node_node, 2);    // two messages node0->node1
  EXPECT_EQ(st.num_internode_nodes, 2);
  EXPECT_EQ(st.total_internode_bytes, 600);
  EXPECT_EQ(st.total_internode_messages, 3);
  EXPECT_EQ(st.typical_msg_bytes, 200);
}

TEST(PatternStats, MultiplicityCountsAsSeparateMessages) {
  const Topology topo(presets::lassen(2));
  CommPattern p(topo.num_gpus());
  for (int i = 0; i < 10; ++i) p.add(0, 4, 64);
  const PatternStats st = compute_stats(p, topo);
  EXPECT_EQ(st.m_proc, 10);
  EXPECT_EQ(st.m_node_node, 10);
  EXPECT_EQ(st.s_proc, 640);
}

TEST(PatternStats, EmptyPattern) {
  const Topology topo(presets::lassen(2));
  const PatternStats st = compute_stats(CommPattern(topo.num_gpus()), topo);
  EXPECT_EQ(st.s_node, 0);
  EXPECT_EQ(st.total_internode_messages, 0);
  EXPECT_EQ(st.typical_msg_bytes, 0);
}

TEST(PatternStats, TopologyMismatchThrows) {
  const Topology topo(presets::lassen(2));
  EXPECT_THROW((void)compute_stats(CommPattern(3), topo), std::invalid_argument);
}

TEST(RandomPattern, DeterministicForFixedSeed) {
  const Topology topo(presets::lassen(2));
  const CommPattern a = random_pattern(topo, 5, 128, 42);
  const CommPattern b = random_pattern(topo, 5, 128, 42);
  EXPECT_EQ(a.total_bytes(), b.total_bytes());
  for (int g = 0; g < topo.num_gpus(); ++g) {
    EXPECT_EQ(a.send_bytes(g), b.send_bytes(g));
  }
  EXPECT_EQ(a.total_messages(), 5 * topo.num_gpus());
}

TEST(RandomPattern, NeverSendsToSelf) {
  const Topology topo(presets::lassen(2));
  const CommPattern p = random_pattern(topo, 50, 8, 7);
  for (int g = 0; g < topo.num_gpus(); ++g) {
    EXPECT_EQ(p.bytes(g, g), 0);
  }
}

// Two messages of 2^62 + 1 bytes overflow the int64 byte total.  With
// two GPUs both of the first source's messages go to the one other GPU, so
// the overflow falls inside one destination's run.
TEST(RandomPattern, RejectsByteTotalOverflow) {
  const std::int64_t big = (std::int64_t{1} << 62) + 1;
  for (const int gpus_per_socket : {2, 4}) {
    const Topology topo(MachineShape{1, 1, gpus_per_socket, 4});
    try {
      (void)random_pattern(topo, 2, big, 3);
      ADD_FAILURE() << "no overflow with " << topo.num_gpus() << " GPUs";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), "CommPattern: total bytes overflow int64");
    }
  }
}

TEST(RandomPattern, RejectsNegativeSize) {
  const Topology topo(presets::lassen(1));
  try {
    (void)random_pattern(topo, 1, -1, 3);
    ADD_FAILURE() << "negative size accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "CommPattern::add: negative size");
  }
}

}  // namespace
}  // namespace hetcomm::core
