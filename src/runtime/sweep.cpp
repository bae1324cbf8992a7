#include "runtime/sweep.hpp"

#include <atomic>
#include <chrono>
#include <iostream>
#include <mutex>

#include "runtime/thread_pool.hpp"

namespace hetcomm::runtime {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

double SweepReport::total_cell_seconds() const noexcept {
  double total = 0.0;
  for (const CellStats& c : cells) total += c.seconds;
  return total;
}

double SweepReport::utilization() const noexcept {
  if (workers.empty() || wall_seconds <= 0.0) return 0.0;
  return total_cell_seconds() /
         (wall_seconds * static_cast<double>(workers.size()));
}

SweepRunner::SweepRunner(SweepOptions options) : options_(options) {}

std::size_t SweepRunner::add(std::string label, std::function<void()> fn) {
  cells_.push_back({std::move(label), std::move(fn)});
  return cells_.size() - 1;
}

SweepReport SweepRunner::run() {
  SweepReport report;
  report.cells.resize(cells_.size());
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    report.cells[i].label = cells_[i].label;
  }
  if (cells_.empty()) return report;

  std::ostream* progress =
      options_.progress
          ? (options_.progress_stream ? options_.progress_stream : &std::cerr)
          : nullptr;
  std::mutex progress_mu;
  std::atomic<std::size_t> completed{0};

  const auto sweep_start = Clock::now();
  int jobs = options_.jobs == 0 ? hardware_jobs() : options_.jobs;
  if (static_cast<std::size_t>(jobs) > cells_.size()) {
    jobs = static_cast<int>(cells_.size());
  }
  ThreadPool pool(jobs);
  pool.parallel_for(
      static_cast<std::int64_t>(cells_.size()),
      [&](std::int64_t index, int worker) {
        const auto i = static_cast<std::size_t>(index);
        const auto cell_start = Clock::now();
        cells_[i].fn();
        report.cells[i].seconds = seconds_since(cell_start);
        report.cells[i].worker = worker;
        const std::size_t done = completed.fetch_add(1) + 1;
        if (progress != nullptr) {
          std::lock_guard<std::mutex> lock(progress_mu);
          *progress << "[" << done << "/" << cells_.size() << "] "
                    << cells_[i].label << " ("
                    << report.cells[i].seconds << " s)\n";
        }
      });
  report.wall_seconds = seconds_since(sweep_start);

  // Fold per-cell accounting into per-worker utilization (cells record the
  // worker that ran them, so this is a deterministic post-pass).
  report.workers.assign(static_cast<std::size_t>(jobs), WorkerStats{});
  for (std::size_t w = 0; w < report.workers.size(); ++w) {
    report.workers[w].worker = static_cast<int>(w);
  }
  for (const CellStats& c : report.cells) {
    if (c.worker < 0 || c.worker >= jobs) continue;
    WorkerStats& ws = report.workers[static_cast<std::size_t>(c.worker)];
    ++ws.cells;
    ws.busy_seconds += c.seconds;
  }
  return report;
}

}  // namespace hetcomm::runtime
