#include "runtime/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "runtime/sweep.hpp"

namespace hetcomm::runtime {
namespace {

TEST(ThreadPoolTest, HardwareJobsIsPositive) {
  EXPECT_GE(hardware_jobs(), 1);
}

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(257, [&](std::int64_t i, int) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, WorkerIndicesAreDenseAndInRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> per_worker(3);
  pool.parallel_for(1000, [&](std::int64_t, int worker) {
    ASSERT_GE(worker, 0);
    ASSERT_LT(worker, 3);
    ++per_worker[worker];
  });
  int total = 0;
  for (const auto& c : per_worker) total += c.load();
  EXPECT_EQ(total, 1000);
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInlineAsWorkerZero) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  const std::thread::id caller = std::this_thread::get_id();
  pool.parallel_for(16, [&](std::int64_t, int worker) {
    EXPECT_EQ(worker, 0);
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(ThreadPoolTest, ZeroThreadsMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), hardware_jobs());
}

TEST(ThreadPoolTest, NegativeThreadCountThrows) {
  EXPECT_THROW(ThreadPool(-1), std::invalid_argument);
}

TEST(ThreadPoolTest, PropagatesFirstTaskException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(64,
                        [](std::int64_t i, int) {
                          if (i == 17) throw std::runtime_error("task 17");
                        }),
      std::runtime_error);
  // The pool stays usable after a failed run.
  std::atomic<int> count{0};
  pool.parallel_for(8, [&](std::int64_t, int) { ++count; });
  EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPoolTest, RethrowsTheLowestFailedTask) {
  // Task 7 throws while task 3 is still asleep; task 3's error, the lowest
  // failed index, must be the one rethrown, in every round.
  ThreadPool pool(4);
  for (int round = 0; round < 5; ++round) {
    std::string what;
    try {
      pool.parallel_for(16, [](std::int64_t i, int) {
        if (i == 3) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          throw std::runtime_error("task 3");
        }
        if (i == 7) throw std::runtime_error("task 7");
      });
    } catch (const std::runtime_error& e) {
      what = e.what();
    }
    EXPECT_EQ(what, "task 3") << "round " << round;
  }
}

TEST(ThreadPoolTest, ZeroTasksIsANoOp) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.parallel_for(0, [&](std::int64_t, int) { ++count; });
  EXPECT_EQ(count.load(), 0);
}

TEST(ThreadPoolTest, PoolIsReusableAcrossRuns) {
  ThreadPool pool(3);
  std::atomic<std::int64_t> sum{0};
  for (int round = 0; round < 5; ++round) {
    pool.parallel_for(100, [&](std::int64_t i, int) { sum += i; });
  }
  EXPECT_EQ(sum.load(), 5 * (99 * 100 / 2));
}

TEST(SweepTest, ResultsComeBackInGridOrderUnderContention) {
  // Cells finish out of order (later cells sleep less), yet sweep() must
  // return results in item order.
  std::vector<int> items(32);
  std::iota(items.begin(), items.end(), 0);
  const std::vector<int> out = sweep(
      items,
      [](const int& i) {
        std::this_thread::sleep_for(std::chrono::microseconds(500 * (32 - i)));
        return i * i;
      },
      SweepOptions{4, false, nullptr});
  ASSERT_EQ(out.size(), items.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i * i));
  }
}

TEST(SweepTest, IdenticalResultsAtAnyJobsCount) {
  std::vector<int> items(64);
  std::iota(items.begin(), items.end(), 1);
  const auto square = [](const int& i) { return 3 * i + 1; };
  const std::vector<int> serial = sweep(items, square, SweepOptions{1});
  const std::vector<int> wide = sweep(items, square, SweepOptions{8});
  EXPECT_EQ(serial, wide);
}

TEST(SweepTest, ReportAccountsEveryCellInRegistrationOrder) {
  SweepRunner runner(SweepOptions{2});
  std::vector<int> out(3, 0);
  EXPECT_EQ(runner.add("alpha", [&] { out[0] = 1; }), 0u);
  EXPECT_EQ(runner.add("beta", [&] { out[1] = 2; }), 1u);
  EXPECT_EQ(runner.add("gamma", [&] { out[2] = 3; }), 2u);
  EXPECT_EQ(runner.size(), 3u);

  const SweepReport report = runner.run();
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3}));
  ASSERT_EQ(report.cells.size(), 3u);
  EXPECT_EQ(report.cells[0].label, "alpha");
  EXPECT_EQ(report.cells[1].label, "beta");
  EXPECT_EQ(report.cells[2].label, "gamma");
  for (const CellStats& cell : report.cells) EXPECT_GE(cell.seconds, 0.0);
  EXPECT_GE(report.wall_seconds, 0.0);
  EXPECT_GE(report.total_cell_seconds(), 0.0);
}

TEST(SweepTest, ProgressLinesMentionEveryLabel) {
  std::ostringstream progress;
  SweepRunner runner(SweepOptions{1, true, &progress});
  runner.add("first-cell", [] {});
  runner.add("second-cell", [] {});
  runner.run();
  const std::string text = progress.str();
  EXPECT_NE(text.find("first-cell"), std::string::npos);
  EXPECT_NE(text.find("second-cell"), std::string::npos);
  EXPECT_NE(text.find("[2/2]"), std::string::npos);
}

TEST(SweepTest, EmptySweepReturnsEmptyReport) {
  SweepRunner runner;
  const SweepReport report = runner.run();
  EXPECT_TRUE(report.cells.empty());
  const std::vector<int> none =
      sweep(std::vector<int>{}, [](const int& i) { return i; });
  EXPECT_TRUE(none.empty());
}

TEST(SweepTest, CellExceptionIsRethrown) {
  SweepRunner runner(SweepOptions{2});
  runner.add("ok", [] {});
  runner.add("boom", [] { throw std::runtime_error("cell failed"); });
  EXPECT_THROW(runner.run(), std::runtime_error);
}

TEST(SweepTest, ReportAttributesEveryCellToAWorker) {
  SweepRunner runner(SweepOptions{3});
  for (int i = 0; i < 8; ++i) {
    runner.add("cell" + std::to_string(i), [] {});
  }
  const SweepReport report = runner.run();
  ASSERT_EQ(report.workers.size(), 3u);
  std::int64_t cells = 0;
  double busy = 0.0;
  for (std::size_t w = 0; w < report.workers.size(); ++w) {
    EXPECT_EQ(report.workers[w].worker, static_cast<int>(w));
    EXPECT_GE(report.workers[w].cells, 0);
    EXPECT_GE(report.workers[w].busy_seconds, 0.0);
    cells += report.workers[w].cells;
    busy += report.workers[w].busy_seconds;
  }
  EXPECT_EQ(cells, 8);
  EXPECT_NEAR(busy, report.total_cell_seconds(), 1e-12);
  for (const CellStats& cell : report.cells) {
    EXPECT_GE(cell.worker, 0);
    EXPECT_LT(cell.worker, 3);
  }
  const double util = report.utilization();
  EXPECT_GE(util, 0.0);
  EXPECT_LE(util, 1.0 + 1e-9);
}

TEST(SweepTest, EmptyReportUtilizationIsZero) {
  SweepRunner runner;
  const SweepReport report = runner.run();
  EXPECT_EQ(report.utilization(), 0.0);
}

}  // namespace
}  // namespace hetcomm::runtime
