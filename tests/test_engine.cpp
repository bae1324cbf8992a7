#include "hetsim/engine.hpp"

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <utility>
#include <vector>

namespace hetcomm {
namespace {

ParamSet clean_params() {
  ParamSet p = lassen_params();
  p.overheads.post_overhead = 0.0;
  p.overheads.queue_search_per_entry = 0.0;
  p.overheads.pack_per_byte = 0.0;
  return p;
}

class EngineTest : public ::testing::Test {
 protected:
  Topology topo_{presets::lassen(2)};
  ParamSet params_ = clean_params();
};

TEST_F(EngineTest, UncontendedMessageCostsPostalTime) {
  Engine engine(topo_, params_);
  const std::int64_t bytes = 4096;  // eager regime
  engine.isend(0, 1, bytes, 0, MemSpace::Host);
  engine.irecv(1, 0, bytes, 0, MemSpace::Host);
  engine.resolve();
  const PostalParams& pp =
      params_.messages.get(MemSpace::Host, Protocol::Eager, PathClass::OnSocket);
  EXPECT_DOUBLE_EQ(engine.clock(1), pp.time(bytes));
}

TEST_F(EngineTest, OffNodeMessageUsesOffNodeParameters) {
  Engine engine(topo_, params_);
  const int dst = topo_.rank_of(1, 0, 0);
  const std::int64_t bytes = 100000;  // rendezvous regime
  engine.isend(0, dst, bytes, 0, MemSpace::Host);
  engine.irecv(dst, 0, bytes, 0, MemSpace::Host);
  engine.resolve();
  const PostalParams& pp = params_.messages.get(
      MemSpace::Host, Protocol::Rendezvous, PathClass::OffNode);
  EXPECT_DOUBLE_EQ(engine.clock(dst), pp.time(bytes));
}

TEST_F(EngineTest, DeviceMessagesUseGpuTable) {
  Engine engine(topo_, params_);
  const int dst = topo_.rank_of(1, 0, 0);
  const std::int64_t bytes = 4096;
  engine.isend(0, dst, bytes, 0, MemSpace::Device);
  engine.irecv(dst, 0, bytes, 0, MemSpace::Device);
  engine.resolve();
  const PostalParams& pp =
      params_.messages.get(MemSpace::Device, Protocol::Eager, PathClass::OffNode);
  EXPECT_DOUBLE_EQ(engine.clock(dst), pp.time(bytes));
}

TEST_F(EngineTest, SequentialMessagesFromOneSenderSerialize) {
  Engine engine(topo_, params_);
  const std::int64_t bytes = 4096;
  const int m = 5;
  for (int i = 0; i < m; ++i) {
    engine.isend(0, 1, bytes, i, MemSpace::Host);
    engine.irecv(1, 0, bytes, i, MemSpace::Host);
  }
  engine.resolve();
  const PostalParams& pp =
      params_.messages.get(MemSpace::Host, Protocol::Eager, PathClass::OnSocket);
  // m messages cost ~ m * (alpha + beta*s): postal model for message trains.
  EXPECT_NEAR(engine.clock(1), m * pp.time(bytes), pp.time(bytes) * 1e-9);
}

TEST_F(EngineTest, NicInjectionLimitsConcurrentSenders) {
  Engine engine(topo_, params_);
  // All 40 ranks of node 0 send large messages to node 1 simultaneously.
  const std::int64_t bytes = 1 << 20;
  const int ppn = topo_.ppn();
  for (int p = 0; p < ppn; ++p) {
    const int src = topo_.ranks_on_node(0)[p];
    const int dst = topo_.ranks_on_node(1)[p];
    engine.isend(src, dst, bytes, p, MemSpace::Host);
    engine.irecv(dst, src, bytes, p, MemSpace::Host);
  }
  engine.resolve();
  // The last completion is bounded below by the aggregate NIC occupancy.
  const double nic_time = static_cast<double>(bytes) * ppn *
                          params_.injection.inv_rate_cpu;
  EXPECT_GE(engine.max_clock(), nic_time);
  // ... and is far beyond a single uncontended transfer.
  const PostalParams& pp = params_.messages.get(
      MemSpace::Host, Protocol::Rendezvous, PathClass::OffNode);
  EXPECT_GT(engine.max_clock(), 5.0 * pp.time(bytes));
}

TEST_F(EngineTest, SmallMessagesNotInjectionLimited) {
  // With one sender the max-rate model reduces to the postal model.
  Engine engine(topo_, params_);
  const int dst = topo_.rank_of(1, 0, 0);
  engine.isend(0, dst, 256, 0, MemSpace::Host);
  engine.irecv(dst, 0, 256, 0, MemSpace::Host);
  engine.resolve();
  const PostalParams& pp =
      params_.messages.get(MemSpace::Host, Protocol::Short, PathClass::OffNode);
  EXPECT_DOUBLE_EQ(engine.clock(dst), pp.time(256));
}

TEST_F(EngineTest, RendezvousWaitsForReceivePosting) {
  Engine engine(topo_, params_);
  const std::int64_t bytes = 1 << 20;  // rendezvous
  engine.isend(0, 1, bytes, 0, MemSpace::Host);
  // Receiver is busy for 1 ms before posting its receive.
  engine.compute(1, 1e-3);
  engine.irecv(1, 0, bytes, 0, MemSpace::Host);
  engine.resolve();
  const PostalParams& pp = params_.messages.get(
      MemSpace::Host, Protocol::Rendezvous, PathClass::OnSocket);
  EXPECT_NEAR(engine.clock(1), 1e-3 + pp.time(bytes), 1e-12);
}

TEST_F(EngineTest, EagerDoesNotWaitForReceivePosting) {
  Engine engine(topo_, params_);
  const std::int64_t bytes = 1024;  // eager
  engine.isend(0, 1, bytes, 0, MemSpace::Host);
  engine.compute(1, 1e-3);
  engine.irecv(1, 0, bytes, 0, MemSpace::Host);
  engine.resolve();
  // Transfer started at time 0; receiver clock is just its compute time
  // (message landed during the computation).
  EXPECT_NEAR(engine.clock(1), 1e-3, 1e-6);
}

TEST_F(EngineTest, CopyAdvancesClockByCopyModel) {
  Engine engine(topo_, params_);
  const std::int64_t bytes = 1 << 20;
  engine.copy(0, 0, CopyDir::DeviceToHost, bytes, 1);
  const PostalParams cp = copy_params_for(params_.copies,
                                          CopyDir::DeviceToHost, 1);
  EXPECT_DOUBLE_EQ(engine.clock(0), cp.time(bytes));
}

TEST_F(EngineTest, SequentialCopiesSerializeOnDma) {
  Engine engine(topo_, params_);
  const std::int64_t bytes = 1 << 20;
  engine.copy(0, 0, CopyDir::DeviceToHost, bytes, 1);
  engine.copy(1, 0, CopyDir::DeviceToHost, bytes, 1);  // same GPU, other rank
  const PostalParams cp = copy_params_for(params_.copies,
                                          CopyDir::DeviceToHost, 1);
  // Second copy queues behind the first's occupancy.
  EXPECT_GT(engine.clock(1), cp.time(bytes));
}

TEST_F(EngineTest, SharedCopiesOverlap) {
  Engine engine(topo_, params_);
  const std::int64_t bytes = 1 << 20;
  // Four ranks each copy a quarter, 4-proc parameters.
  for (int p = 0; p < 4; ++p) {
    engine.copy(topo_.rank_of(0, 0, p), 0, CopyDir::DeviceToHost, bytes / 4, 4);
  }
  const PostalParams cp4 = copy_params_for(params_.copies,
                                           CopyDir::DeviceToHost, 4);
  // Completion is close to one shared copy's duration, not four times it.
  EXPECT_LT(engine.max_clock(), 2.0 * cp4.time(bytes / 4));
}

TEST_F(EngineTest, UnmatchedSendThrows) {
  Engine engine(topo_, params_);
  engine.isend(0, 1, 100, 7, MemSpace::Host);
  EXPECT_THROW((void)engine.resolve(), std::logic_error);
}

TEST_F(EngineTest, UnmatchedRecvThrows) {
  Engine engine(topo_, params_);
  engine.irecv(1, 0, 100, 7, MemSpace::Host);
  EXPECT_THROW((void)engine.resolve(), std::logic_error);
}

TEST_F(EngineTest, SizeMismatchThrows) {
  Engine engine(topo_, params_);
  engine.isend(0, 1, 100, 7, MemSpace::Host);
  engine.irecv(1, 0, 200, 7, MemSpace::Host);
  EXPECT_THROW((void)engine.resolve(), std::logic_error);
}

TEST_F(EngineTest, FailedResolveDropsPendingOperations) {
  // A failed resolve() must not leave the unmatched operations queued, or
  // the next phase would silently try to match against stale posts.
  Engine engine(topo_, params_);
  engine.isend(0, 1, 100, 7, MemSpace::Host);
  EXPECT_THROW((void)engine.resolve(), std::logic_error);
  EXPECT_FALSE(engine.has_pending());

  engine.isend(0, 1, 100, 3, MemSpace::Host);
  engine.irecv(1, 0, 200, 3, MemSpace::Host);  // size mismatch
  EXPECT_THROW((void)engine.resolve(), std::logic_error);
  EXPECT_FALSE(engine.has_pending());

  // The engine remains usable: a well-formed exchange resolves cleanly.
  engine.isend(0, 1, 100, 3, MemSpace::Host);
  engine.irecv(1, 0, 100, 3, MemSpace::Host);
  engine.resolve();
  EXPECT_GT(engine.clock(1), 0.0);
}

TEST_F(EngineTest, ResetAfterFailedResolveMatchesFreshEngine) {
  Engine a(topo_, params_, NoiseModel(11, 0.05));
  a.irecv(1, 0, 64, 0, MemSpace::Host);  // unmatched receive
  EXPECT_THROW((void)a.resolve(), std::logic_error);
  a.reset(11);
  a.isend(0, 1, 4096, 0, MemSpace::Host);
  a.irecv(1, 0, 4096, 0, MemSpace::Host);
  a.resolve();

  Engine b(topo_, params_, NoiseModel(11, 0.05));
  b.isend(0, 1, 4096, 0, MemSpace::Host);
  b.irecv(1, 0, 4096, 0, MemSpace::Host);
  b.resolve();

  for (int r = 0; r < topo_.num_ranks(); ++r) {
    EXPECT_EQ(a.clock(r), b.clock(r)) << "rank " << r;
  }
}

TEST_F(EngineTest, NetworkCountersTrackOffNodeTraffic) {
  Engine engine(topo_, params_);
  engine.isend(0, 1, 100, 0, MemSpace::Host);  // on-socket
  engine.irecv(1, 0, 100, 0, MemSpace::Host);
  const int dst = topo_.rank_of(1, 0, 0);
  engine.isend(0, dst, 300, 1, MemSpace::Host);  // off-node
  engine.irecv(dst, 0, 300, 1, MemSpace::Host);
  engine.resolve();
  EXPECT_EQ(engine.network_bytes(), 300);
  EXPECT_EQ(engine.network_messages(), 1);
}

TEST_F(EngineTest, ResetClearsState) {
  Engine engine(topo_, params_);
  engine.compute(0, 1.0);
  const int dst = topo_.rank_of(1, 0, 0);
  engine.isend(0, dst, 100, 0, MemSpace::Host);
  engine.irecv(dst, 0, 100, 0, MemSpace::Host);
  engine.resolve();
  engine.reset();
  EXPECT_DOUBLE_EQ(engine.max_clock(), 0.0);
  EXPECT_EQ(engine.network_bytes(), 0);
  EXPECT_FALSE(engine.has_pending());
}

TEST_F(EngineTest, TraceRecordsMessagesAndCopies) {
  Engine engine(topo_, params_);
  engine.set_tracing(true);
  engine.copy(0, 0, CopyDir::DeviceToHost, 128, 1);
  engine.isend(0, 1, 128, 0, MemSpace::Host);
  engine.irecv(1, 0, 128, 0, MemSpace::Host);
  engine.resolve();
  ASSERT_EQ(engine.trace().copies.size(), 1u);
  ASSERT_EQ(engine.trace().messages.size(), 1u);
  const MessageTrace& mt = engine.trace().messages.front();
  EXPECT_EQ(mt.src, 0);
  EXPECT_EQ(mt.dst, 1);
  EXPECT_EQ(mt.protocol, Protocol::Short);
  EXPECT_EQ(mt.path, PathClass::OnSocket);
  EXPECT_GT(mt.completion, mt.start);
}

TEST_F(EngineTest, QueueSearchCostGrowsWithPostedReceives) {
  ParamSet with_queue = params_;
  with_queue.overheads.queue_search_per_entry = 1e-6;
  // One receive posted.
  Engine a(topo_, with_queue);
  a.isend(0, 1, 1024, 0, MemSpace::Host);
  a.irecv(1, 0, 1024, 0, MemSpace::Host);
  a.resolve();
  // Many receives posted at the same receiver.
  Engine b(topo_, with_queue);
  for (int i = 0; i < 10; ++i) {
    b.isend(i + 2, 1, 1024, i, MemSpace::Host);
    b.irecv(1, i + 2, 1024, i, MemSpace::Host);
  }
  b.isend(0, 1, 1024, 99, MemSpace::Host);
  b.irecv(1, 0, 1024, 99, MemSpace::Host);
  b.resolve();
  EXPECT_GT(b.clock(1), a.clock(1));
}

TEST_F(EngineTest, InvalidArgumentsThrow) {
  Engine engine(topo_, params_);
  EXPECT_THROW((void)engine.isend(-1, 0, 10, 0, MemSpace::Host), std::out_of_range);
  EXPECT_THROW((void)engine.isend(0, 1, -5, 0, MemSpace::Host),
               std::invalid_argument);
  EXPECT_THROW((void)engine.copy(0, 99, CopyDir::DeviceToHost, 10),
               std::out_of_range);
  EXPECT_THROW((void)engine.copy(0, 0, CopyDir::DeviceToHost, 10, 0),
               std::invalid_argument);
  EXPECT_THROW((void)engine.compute(0, -1.0), std::invalid_argument);
}

TEST_F(EngineTest, ResetWithSeedMatchesFreshEngineEventForEvent) {
  // reset(seed) must be indistinguishable from constructing a new engine
  // with NoiseModel(seed, sigma): same clocks, same traced event times,
  // even with noise enabled.
  const double sigma = 0.05;
  const std::uint64_t seed = 0xabcdULL;
  const auto drive = [&](Engine& engine) {
    engine.set_tracing(true);
    const int dst = topo_.rank_of(1, 0, 0);
    engine.copy(0, 0, CopyDir::DeviceToHost, 32768, 1);
    for (int i = 0; i < 8; ++i) {
      engine.isend(0, dst, 4096 + 512 * i, i, MemSpace::Host);
      engine.irecv(dst, 0, 4096 + 512 * i, i, MemSpace::Host);
    }
    engine.resolve();
  };

  Engine fresh(topo_, params_, NoiseModel(seed, sigma));
  drive(fresh);

  Engine reused(topo_, params_, NoiseModel(999, sigma));
  drive(reused);  // dirty the engine with a different seed first
  reused.reset(seed);
  drive(reused);

  EXPECT_EQ(fresh.max_clock(), reused.max_clock());
  ASSERT_EQ(fresh.trace().messages.size(), reused.trace().messages.size());
  for (std::size_t i = 0; i < fresh.trace().messages.size(); ++i) {
    const MessageTrace& a = fresh.trace().messages[i];
    const MessageTrace& b = reused.trace().messages[i];
    EXPECT_EQ(a.start, b.start) << "message " << i;
    EXPECT_EQ(a.completion, b.completion) << "message " << i;
    EXPECT_EQ(a.bytes, b.bytes) << "message " << i;
  }
  ASSERT_EQ(fresh.trace().copies.size(), reused.trace().copies.size());
  for (std::size_t i = 0; i < fresh.trace().copies.size(); ++i) {
    EXPECT_EQ(fresh.trace().copies[i].completion,
              reused.trace().copies[i].completion)
        << "copy " << i;
  }
}

TEST_F(EngineTest, ResetPreservesTracingEnablement) {
  Engine engine(topo_, params_);
  engine.set_tracing(true);
  engine.reset(7);
  engine.isend(0, 1, 128, 0, MemSpace::Host);
  engine.irecv(1, 0, 128, 0, MemSpace::Host);
  engine.resolve();
  EXPECT_EQ(engine.trace().messages.size(), 1u);
}

TEST_F(EngineTest, MoveMidSweepPreservesPendingOperations) {
  // Regression for the defaulted move operations: an engine moved while it
  // still holds posted-but-unresolved operations must carry them along and
  // finish with the same clocks as an uninterrupted run.
  const int dst = topo_.rank_of(1, 0, 0);
  const auto post_first_half = [&](Engine& engine) {
    engine.compute(0, 1e-5);
    engine.isend(0, dst, 60000, 0, MemSpace::Host);
    engine.copy(1, 0, CopyDir::HostToDevice, 16384, 1);
  };
  const auto post_second_half_and_resolve = [&](Engine& engine) {
    engine.irecv(dst, 0, 60000, 0, MemSpace::Host);
    engine.isend(1, 0, 2048, 1, MemSpace::Host);
    engine.irecv(0, 1, 2048, 1, MemSpace::Host);
    engine.resolve();
  };

  Engine uninterrupted(topo_, params_, NoiseModel(3, 0.02));
  post_first_half(uninterrupted);
  post_second_half_and_resolve(uninterrupted);

  Engine source(topo_, params_, NoiseModel(3, 0.02));
  post_first_half(source);
  Engine moved(std::move(source));  // mid-sweep move
  post_second_half_and_resolve(moved);

  for (int r = 0; r < topo_.num_ranks(); ++r) {
    EXPECT_EQ(uninterrupted.clock(r), moved.clock(r)) << "rank " << r;
  }
  EXPECT_EQ(uninterrupted.network_bytes(), moved.network_bytes());

  // Move assignment mid-sweep behaves the same way.
  Engine source2(topo_, params_, NoiseModel(3, 0.02));
  post_first_half(source2);
  Engine assigned(topo_, params_);
  assigned = std::move(source2);
  post_second_half_and_resolve(assigned);
  EXPECT_EQ(uninterrupted.max_clock(), assigned.max_clock());
}

TEST(EngineNoise, ZeroSigmaIsDeterministic) {
  const Topology topo(presets::lassen(2));
  const ParamSet params = clean_params();
  auto run = [&](std::uint64_t seed) {
    Engine engine(topo, params, NoiseModel(seed, 0.0));
    engine.isend(0, 1, 5000, 0, MemSpace::Host);
    engine.irecv(1, 0, 5000, 0, MemSpace::Host);
    engine.resolve();
    return engine.clock(1);
  };
  EXPECT_DOUBLE_EQ(run(1), run(2));
}

TEST(EngineNoise, MixSeedDecorrelatesNearbyReps) {
  // Per-rep seeds come from mix_seed(base, rep); sequential rep indices must
  // map to well-spread, collision-free stream seeds.
  std::set<std::uint64_t> seen;
  for (std::uint64_t rep = 0; rep < 1000; ++rep) {
    seen.insert(mix_seed(0x5eed, rep));
  }
  EXPECT_EQ(seen.size(), 1000u);
  EXPECT_NE(mix_seed(1, 0), mix_seed(2, 0));
  EXPECT_NE(mix_seed(0, 0), 0u);
}

TEST(EngineNoise, NoiseMeanIsUnbiased) {
  NoiseModel noise(42, 0.1);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += noise.perturb(1.0);
  EXPECT_NEAR(sum / n, 1.0, 0.01);
}

/// Checks `batch` against the scalar reference noise_factor, element for
/// element, over 1080 (stream, first draw, n) triples at two sigmas; 0.5
/// reaches the 2^-6 floor.  Sizes straddle the kernel's 8-draw vectors.
void expect_batch_matches_reference(NoiseBatchFn batch) {
  std::mt19937_64 rng(0xba7c4ULL);
  const std::size_t sizes[] = {0, 1, 7, 8, 9, 63, 64, 65, 1000};
  bool floored = false;
  std::vector<double> out;
  for (int round = 0; round < 120; ++round) {
    const std::uint64_t stream = rng();
    for (const std::size_t n : sizes) {
      // Small first draws, as in a repetition, and arbitrary ones, whose
      // 4 * draw sequence numbers wrap.
      const std::uint64_t first = round % 2 == 0 ? rng() % 4096 : rng();
      for (const double sigma : {0.02, 0.5}) {
        out.assign(n + 1, -1.0);
        batch(stream, first, sigma, out.data(), n);
        for (std::size_t k = 0; k < n; ++k) {
          const double want = noise_factor(stream, first + k, sigma);
          ASSERT_EQ(out[k], want) << "stream " << stream << " draw "
                                  << first + k << " sigma " << sigma;
          floored = floored || want == 0x1.0p-6;
        }
        ASSERT_EQ(out[n], -1.0) << "wrote past n = " << n;
      }
    }
  }
  EXPECT_TRUE(floored);
}

TEST(EngineNoise, BatchMatchesScalarReference) {
  expect_batch_matches_reference(&noise_factors);
}

TEST(EngineNoise, Avx512dqKernelMatchesScalarReference) {
  const NoiseBatchFn kernel = noise_factors_avx512dq();
  if (kernel == nullptr) {
    GTEST_SKIP() << "this build or CPU has no AVX-512DQ kernel";
  }
  expect_batch_matches_reference(kernel);
}

/// Checks `batch` against noise_factor at batch lengths that leave 1 to 7
/// draws past the last whole vector of eight, from first draws whose hash
/// input counter 4 * draw + j + 1 (or the draw index itself) wraps 2^64
/// inside the batch.
void expect_wrapping_batches_match_reference(NoiseBatchFn batch) {
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  const std::uint64_t firsts[] = {
      (kMax >> 2) - 3,   // 4 * draw wraps to 0 at k = 4
      (kMax >> 2) - 12,  // ... at k = 13, in the second vector of eight
      kMax >> 2,         // u3's counter of the first draw wraps to 0
      kMax - 5,          // the draw index first + k wraps at k = 6
  };
  std::vector<double> out;
  for (const std::uint64_t first : firsts) {
    for (const std::size_t n : {3u, 5u, 13u, 15u, 22u, 31u, 33u}) {
      out.assign(n + 1, -1.0);
      batch(0x1234abcdULL, first, 0.05, out.data(), n);
      for (std::size_t k = 0; k < n; ++k) {
        ASSERT_EQ(out[k], noise_factor(0x1234abcdULL, first + k, 0.05))
            << "first " << first << " k " << k << " n " << n;
      }
      ASSERT_EQ(out[n], -1.0) << "wrote past n = " << n;
    }
  }
}

TEST(EngineNoise, WrappingCountersAndShortTailsMatchScalarReference) {
  expect_wrapping_batches_match_reference(&noise_factors);
  const NoiseBatchFn kernel = noise_factors_avx512dq();
  if (kernel == nullptr) {
    GTEST_SKIP() << "this build or CPU has no AVX-512DQ kernel";
  }
  expect_wrapping_batches_match_reference(kernel);
}

TEST(EngineNoise, DrawsPastThePrefetchedBatchContinueTheSequence) {
  // execute() prefetches one factor per step; lost-message retries draw
  // past the batch, and a second prefetch replaces an unread remainder.
  for (const std::size_t n : {0, 1, 9, 64}) {
    for (const std::size_t k : {0, 1, 5, 17}) {
      NoiseModel batched(77, 0.05);
      NoiseModel plain(77, 0.05);
      ASSERT_EQ(batched.perturb(1.0), plain.perturb(1.0));  // mid-stream
      batched.prefetch(n);
      for (std::size_t i = 0; i < n + k; ++i) {
        if (i == n / 2) batched.prefetch(k);
        ASSERT_EQ(batched.perturb(3.5e-6), plain.perturb(3.5e-6));
      }
      EXPECT_EQ(batched.draws(), plain.draws());
    }
  }
}

TEST(EngineNoise, CopiesAndMovesMidBatchContinueExactly) {
  NoiseModel reference(9, 0.05);
  NoiseModel batched(9, 0.05);
  batched.prefetch(40);
  for (int i = 0; i < 13; ++i) {
    ASSERT_EQ(batched.perturb(1.0), reference.perturb(1.0));
  }
  NoiseModel copied = batched;
  NoiseModel assigned(1, 0.3);
  assigned = batched;
  NoiseModel moved = std::move(batched);
  for (int i = 0; i < 40; ++i) {
    const double want = reference.perturb(1.0);
    ASSERT_EQ(copied.perturb(1.0), want);
    ASSERT_EQ(assigned.perturb(1.0), want);
    ASSERT_EQ(moved.perturb(1.0), want);
  }
}

TEST(EngineNoise, ReseedDropsTheBatchAndZeroSigmaConsumesNothing) {
  NoiseModel model(5, 0.05);
  model.prefetch(16);
  (void)model.perturb(1.0);
  model.reseed(6);
  NoiseModel fresh(6, 0.05);
  for (int i = 0; i < 32; ++i) {
    ASSERT_EQ(model.perturb(1.0), fresh.perturb(1.0));
  }

  NoiseModel silent(5, 0.0);
  silent.prefetch(16);
  EXPECT_EQ(silent.perturb(2.5), 2.5);
  EXPECT_EQ(silent.draws(), 0u);
}

}  // namespace
}  // namespace hetcomm
