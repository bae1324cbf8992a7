#include "core/pattern_io.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace hetcomm::core {
namespace {

CommPattern sample() {
  CommPattern p(8);
  p.add(0, 4, 1000);
  p.add(0, 4, 500);  // multiplicity 2
  p.add(1, 7, 64);
  p.add(3, 2, 12345);
  p.set_node_dedup(0, 1, 900);
  return p;
}

TEST(PatternIo, RoundTripPreservesEverything) {
  const CommPattern original = sample();
  std::stringstream buf;
  write_pattern(buf, original);
  const CommPattern back = read_pattern(buf);

  EXPECT_EQ(back.num_gpus(), original.num_gpus());
  EXPECT_EQ(back.total_bytes(), original.total_bytes());
  EXPECT_EQ(back.total_messages(), original.total_messages());
  for (int src = 0; src < original.num_gpus(); ++src) {
    const auto a = original.sends_from(src);
    const auto b = back.sends_from(src);
    ASSERT_EQ(a.size(), b.size()) << "src " << src;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].dst_gpu, b[i].dst_gpu);
      EXPECT_EQ(a[i].bytes, b[i].bytes);
      EXPECT_EQ(a[i].count, b[i].count);
    }
  }
  EXPECT_EQ(back.node_dedup_bytes(0, 1), 900);
  EXPECT_EQ(back.node_dedup_bytes(1, 1), -1);
}

TEST(PatternIo, EmptyPatternRoundTrips) {
  std::stringstream buf;
  write_pattern(buf, CommPattern(4));
  const CommPattern back = read_pattern(buf);
  EXPECT_EQ(back.num_gpus(), 4);
  EXPECT_EQ(back.total_bytes(), 0);
}

TEST(PatternIo, SkipsCommentsAndBlankLines) {
  std::istringstream in(
      "hetcomm-pattern v1\n"
      "gpus 4\n"
      "\n"
      "# a comment\n"
      "msg 0 1 100 1\n");
  const CommPattern p = read_pattern(in);
  EXPECT_EQ(p.bytes(0, 1), 100);
}

TEST(PatternIo, RejectsMalformedInput) {
  {
    std::istringstream in("wrong header\n");
    EXPECT_THROW((void)read_pattern(in), std::runtime_error);
  }
  {
    std::istringstream in("hetcomm-pattern v1\ngpus -2\n");
    EXPECT_THROW((void)read_pattern(in), std::runtime_error);
  }
  {
    std::istringstream in("hetcomm-pattern v1\ngpus 2\nmsg 0 1 5 0\n");
    EXPECT_THROW((void)read_pattern(in), std::runtime_error);
  }
  {
    std::istringstream in("hetcomm-pattern v1\ngpus 2\nbogus 1 2 3\n");
    EXPECT_THROW((void)read_pattern(in), std::runtime_error);
  }
  {
    std::istringstream in("hetcomm-pattern v1\ngpus 2\nmsg 0 9 5 1\n");
    EXPECT_THROW((void)read_pattern(in), std::out_of_range);
  }
}

TEST(PatternIo, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/hetcomm_pattern.txt";
  write_pattern_file(path, sample());
  const CommPattern back = read_pattern_file(path);
  EXPECT_EQ(back.total_bytes(), sample().total_bytes());
  EXPECT_THROW((void)read_pattern_file("/nonexistent/nope.txt"),
               std::runtime_error);
}

// Clients hold pattern hashes as refs across server restarts and releases,
// so the values themselves are part of the contract.  Each constant was
// recorded from the byte-by-byte FNV-1a fold.
TEST(PatternHash, ValuesArePinned) {
  // sample() carries a dedup annotation.
  EXPECT_EQ(pattern_hash(sample()), 0x50b5ac1e684223b2ULL);
  EXPECT_EQ(pattern_hash(random_pattern(Topology(presets::lassen(4)), 16,
                                        4096, 1)),
            0x6e9661b782dedad9ULL);
  {
    // Interior zero bytes (65536 = 0x010000) and words above 2^32.
    CommPattern p(300);
    p.add(0, 1, 65536);
    p.add(1, 299, (std::int64_t{1} << 32) + 7);
    p.add(299, 0, std::int64_t{0x0102030405060708});
    p.set_node_dedup(1, 70000, std::int64_t{1} << 40);
    EXPECT_EQ(pattern_hash(p), 0x0bd16772638a13bcULL);
  }
  {
    // A flow count above 255 needs a second count byte.
    CommPattern p(4);
    for (int i = 0; i < 300; ++i) p.add(2, 3, 1 + i % 5);
    EXPECT_EQ(pattern_hash(p), 0x56fdc61400467a5eULL);
  }
  EXPECT_EQ(pattern_hash(CommPattern(1)), 0x89cd31291d2aefa4ULL);
  EXPECT_EQ(pattern_hash(CommPattern(16)), 0x987468c2d70edbd5ULL);
}

}  // namespace
}  // namespace hetcomm::core
