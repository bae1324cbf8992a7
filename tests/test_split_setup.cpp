#include "core/split_setup.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>

namespace hetcomm::core {
namespace {

class SplitSetupTest : public ::testing::Test {
 protected:
  Topology topo_{presets::lassen(4)};  // ppn=40, gpn=4
};

TEST_F(SplitSetupTest, SmallVolumesConglomeratePerNodePair) {
  // Lines 12-13: max receive volume below the cap => one message per pair.
  CommPattern p(topo_.num_gpus());
  p.add(0, 4, 500);   // node0 -> node1
  p.add(1, 5, 300);   // node0 -> node1
  p.add(0, 8, 200);   // node0 -> node2
  const SplitSetup setup = split_setup(p, topo_, /*cap=*/16384);
  EXPECT_EQ(setup.chunks.size(), 2u);  // (0,1) and (0,2)
  std::map<std::pair<int, int>, std::int64_t> vol;
  for (const SplitChunk& c : setup.chunks) vol[{c.src_node, c.dst_node}] = c.bytes;
  EXPECT_EQ((vol[{0, 1}]), 800);
  EXPECT_EQ((vol[{0, 2}]), 200);
}

TEST_F(SplitSetupTest, LargeVolumesSplitAtCap) {
  CommPattern p(topo_.num_gpus());
  p.add(0, 4, 10000);  // node0 -> node1, > cap
  const SplitSetup setup = split_setup(p, topo_, /*cap=*/4096);
  // total/PPN = 250 < cap, so the effective cap stays 4096 => 3 chunks.
  ASSERT_EQ(setup.chunks.size(), 3u);
  std::int64_t total = 0;
  for (const SplitChunk& c : setup.chunks) {
    EXPECT_LE(c.bytes, 4096);
    total += c.bytes;
  }
  EXPECT_EQ(total, 10000);
}

TEST_F(SplitSetupTest, CapRaisedWhenChunksWouldExceedPpn) {
  // Lines 14-17: cap rises to ceil(total / PPN) when needed.
  CommPattern p(topo_.num_gpus());
  const std::int64_t vol = 40LL * 4096 * 10;  // would be 400 chunks at cap
  p.add(0, 4, vol);
  const SplitSetup setup = split_setup(p, topo_, /*cap=*/4096);
  const SplitNodeInfo& info = setup.node_info.at(1);
  EXPECT_EQ(info.effective_cap, (vol + 39) / 40);
  EXPECT_LE(static_cast<int>(setup.chunks.size()), topo_.ppn());
}

TEST_F(SplitSetupTest, NodeInfoMatchesTable1Definitions) {
  CommPattern p(topo_.num_gpus());
  p.add(0, 4, 700);    // node0 -> node1
  p.add(8, 5, 900);    // node2 -> node1
  p.add(12, 6, 100);   // node3 -> node1
  const SplitSetup setup = split_setup(p, topo_, 16384);
  const SplitNodeInfo& info = setup.node_info.at(1);
  EXPECT_EQ(info.total_in_recv_vol, 1700);
  EXPECT_EQ(info.max_in_recv_size, 900);
  EXPECT_EQ(info.num_in_nodes, 3);
}

TEST_F(SplitSetupTest, ChunkSlicesPartitionFlows) {
  CommPattern p(topo_.num_gpus());
  p.add(0, 4, 3000);
  p.add(1, 5, 2000);
  p.add(2, 6, 1500);
  const SplitSetup setup = split_setup(p, topo_, /*cap=*/1024);
  std::map<std::pair<int, int>, std::int64_t> flow_bytes;
  for (const SplitChunk& c : setup.chunks) {
    std::int64_t chunk_total = 0;
    for (const FlowSlice& s : setup.slices_of(c)) {
      flow_bytes[{s.src_gpu, s.dst_gpu}] += s.bytes;
      chunk_total += s.bytes;
    }
    EXPECT_EQ(chunk_total, c.bytes);
  }
  EXPECT_EQ((flow_bytes[{0, 4}]), 3000);
  EXPECT_EQ((flow_bytes[{1, 5}]), 2000);
  EXPECT_EQ((flow_bytes[{2, 6}]), 1500);
}

TEST_F(SplitSetupTest, RecvAssignmentDescendingFromRankZero) {
  // Line 18: largest chunk to local rank 0, next to 1, ...
  CommPattern p(topo_.num_gpus());
  p.add(0, 4, 5000);
  p.add(8, 5, 9000);
  p.add(12, 6, 1000);
  const SplitSetup setup = split_setup(p, topo_, 16384);
  std::vector<const SplitChunk*> inbound = setup.recv_chunks(1);
  ASSERT_EQ(inbound.size(), 3u);
  // Find assignment by size.
  std::map<std::int64_t, int> rank_by_size;
  for (const SplitChunk* c : inbound) {
    rank_by_size[c->bytes] = topo_.rank_location(c->recv_rank).local_rank;
  }
  EXPECT_EQ(rank_by_size.at(9000), 0);
  EXPECT_EQ(rank_by_size.at(5000), 1);
  EXPECT_EQ(rank_by_size.at(1000), 2);
}

TEST_F(SplitSetupTest, SendAssignmentDescendingFromLastRank) {
  CommPattern p(topo_.num_gpus());
  p.add(0, 4, 5000);   // node0 -> node1
  p.add(0, 8, 9000);   // node0 -> node2
  p.add(0, 12, 1000);  // node0 -> node3
  const SplitSetup setup = split_setup(p, topo_, 16384);
  std::map<std::int64_t, int> rank_by_size;
  for (const SplitChunk* c : setup.send_chunks(0)) {
    rank_by_size[c->bytes] = topo_.rank_location(c->send_rank).local_rank;
  }
  const int ppn = topo_.ppn();
  EXPECT_EQ(rank_by_size.at(9000), ppn - 1);
  EXPECT_EQ(rank_by_size.at(5000), ppn - 2);
  EXPECT_EQ(rank_by_size.at(1000), ppn - 3);
}

TEST_F(SplitSetupTest, AssignmentsWrapAroundPpn) {
  // More chunks than processes: assignment cycles.
  const Topology small(MachineShape{2, 1, 1, 2});  // ppn=2
  CommPattern p(small.num_gpus());
  p.add(0, 1, 10000);
  const SplitSetup setup = split_setup(p, small, /*cap=*/1024);
  // total/PPN = 5000 > cap => effective cap 5000 => 2 chunks on 2 ranks.
  EXPECT_EQ(setup.node_info.at(1).effective_cap, 5000);
  EXPECT_EQ(setup.chunks.size(), 2u);
  std::set<int> senders, receivers;
  for (const SplitChunk& c : setup.chunks) {
    senders.insert(c.send_rank);
    receivers.insert(c.recv_rank);
  }
  EXPECT_EQ(senders.size(), 2u);
  EXPECT_EQ(receivers.size(), 2u);
}

// Ties in chunk size keep the (source node, destination node) order, and
// the local ranks wrap around ppn.  Two GPUs and two cores per node.
TEST_F(SplitSetupTest, EqualInboundChunksKeepSourceOrderAndWrap) {
  const Topology small(MachineShape{4, 1, 2, 2});  // ppn=2, gpn=2
  CommPattern p(small.num_gpus());
  p.add(7, 1, 1000);  // node3 -> node0
  p.add(2, 0, 1000);  // node1 -> node0
  p.add(5, 0, 1000);  // node2 -> node0
  const SplitSetup setup = split_setup(p, small, /*cap=*/16384);
  ASSERT_EQ(setup.chunks.size(), 3u);
  std::map<int, int> recv_local_by_src;
  std::map<int, int> send_local_by_src;
  for (const SplitChunk& c : setup.chunks) {
    ASSERT_EQ(c.dst_node, 0);
    EXPECT_EQ(c.bytes, 1000);
    recv_local_by_src[c.src_node] =
        small.rank_location(c.recv_rank).local_rank;
    send_local_by_src[c.src_node] =
        small.rank_location(c.send_rank).local_rank;
  }
  EXPECT_EQ(recv_local_by_src, (std::map<int, int>{{1, 0}, {2, 1}, {3, 0}}));
  EXPECT_EQ(send_local_by_src, (std::map<int, int>{{1, 1}, {2, 1}, {3, 1}}));
}

TEST_F(SplitSetupTest, EqualOutboundChunksKeepDestinationOrderAndWrap) {
  const Topology small(MachineShape{4, 1, 2, 2});  // ppn=2, gpn=2
  CommPattern p(small.num_gpus());
  p.add(1, 7, 1000);  // node0 -> node3
  p.add(0, 2, 1000);  // node0 -> node1
  p.add(1, 4, 1000);  // node0 -> node2
  const SplitSetup setup = split_setup(p, small, /*cap=*/16384);
  ASSERT_EQ(setup.chunks.size(), 3u);
  std::map<int, int> send_local_by_dst;
  std::map<int, int> recv_local_by_dst;
  for (const SplitChunk& c : setup.chunks) {
    ASSERT_EQ(c.src_node, 0);
    EXPECT_EQ(c.bytes, 1000);
    send_local_by_dst[c.dst_node] =
        small.rank_location(c.send_rank).local_rank;
    recv_local_by_dst[c.dst_node] =
        small.rank_location(c.recv_rank).local_rank;
  }
  EXPECT_EQ(send_local_by_dst, (std::map<int, int>{{1, 1}, {2, 0}, {3, 1}}));
  EXPECT_EQ(recv_local_by_dst, (std::map<int, int>{{1, 0}, {2, 0}, {3, 0}}));
}

TEST_F(SplitSetupTest, EveryChunkHasAssignedEndpointsOnCorrectNodes) {
  CommPattern p(topo_.num_gpus());
  for (int g = 0; g < topo_.num_gpus(); ++g) {
    p.add(g, (g + 5) % topo_.num_gpus(), 2500 * (g + 1));
  }
  const SplitSetup setup = split_setup(p, topo_, 4096);
  for (const SplitChunk& c : setup.chunks) {
    ASSERT_GE(c.send_rank, 0);
    ASSERT_GE(c.recv_rank, 0);
    EXPECT_EQ(topo_.node_of_rank(c.send_rank), c.src_node);
    EXPECT_EQ(topo_.node_of_rank(c.recv_rank), c.dst_node);
  }
}

TEST_F(SplitSetupTest, InvalidCapThrows) {
  CommPattern p(topo_.num_gpus());
  EXPECT_THROW((void)split_setup(p, topo_, 0), std::invalid_argument);
  EXPECT_THROW((void)split_setup(p, topo_, -4), std::invalid_argument);
}

TEST_F(SplitSetupTest, IntranodeTrafficProducesNoChunks) {
  CommPattern p(topo_.num_gpus());
  p.add(0, 1, 100000);
  p.add(0, 2, 100000);
  const SplitSetup setup = split_setup(p, topo_, 4096);
  EXPECT_TRUE(setup.chunks.empty());
  EXPECT_TRUE(setup.node_info.empty());
}

}  // namespace
}  // namespace hetcomm::core
