#pragma once
// Declarative sweep runtime.
//
// Every experiment in the paper is a grid sweep -- preset x pattern x
// strategy x size -- of independent, CPU-bound cells.  SweepRunner lets a
// bench/CLI binary register the grid once, fans the cells across a
// ThreadPool, and accounts per-cell wall time, while results land in
// registration (grid) order regardless of which worker finishes first:
// each cell writes into its own preallocated slot, so output is
// bit-identical at any --jobs value.
//
//   SweepRunner runner({.jobs = opts.jobs});
//   std::vector<double> time(grid.size());
//   for (std::size_t i = 0; i < grid.size(); ++i)
//     runner.add(grid[i].label(), [&, i] { time[i] = simulate(grid[i]); });
//   runner.run();                    // time[] is now filled, grid order
//
// The typed convenience wrapper `sweep(items, fn)` does the slot
// bookkeeping for the common map-over-grid case.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

namespace hetcomm::runtime {

struct SweepOptions {
  int jobs = 0;       ///< worker threads; 0 = hardware concurrency
  bool progress = false;  ///< report each finished cell
  std::ostream* progress_stream = nullptr;  ///< nullptr = std::cerr
};

/// Wall-time accounting for one finished cell.
struct CellStats {
  std::string label;
  double seconds = 0.0;
  int worker = -1;  ///< pool worker that ran the cell (-1 = never ran)
};

/// Utilization of one pool worker over the whole sweep.
struct WorkerStats {
  int worker = 0;
  std::int64_t cells = 0;      ///< cells this worker executed
  double busy_seconds = 0.0;   ///< sum of its cells' wall times
};

struct SweepReport {
  double wall_seconds = 0.0;      ///< elapsed time for the whole sweep
  std::vector<CellStats> cells;   ///< per cell, in registration order
  std::vector<WorkerStats> workers;  ///< per pool worker, ascending index

  /// Sum of per-cell times; wall_seconds times the effective parallelism.
  [[nodiscard]] double total_cell_seconds() const noexcept;

  /// total_cell_seconds / (wall_seconds * workers): 1.0 = perfectly packed
  /// workers, lower = idle tails or load imbalance.  0 when unknowable.
  [[nodiscard]] double utilization() const noexcept;
};

class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions options = {});

  /// Register a cell; returns its grid index.  `fn` runs exactly once, on
  /// some worker thread; it must write its result into caller-owned storage
  /// keyed by this index (distinct slots need no locking).
  std::size_t add(std::string label, std::function<void()> fn);

  [[nodiscard]] std::size_t size() const noexcept { return cells_.size(); }

  /// Run every registered cell across the pool; blocks until all finish.
  /// Progress lines ("[done/total] label (time)") go to the progress stream
  /// as cells complete.  Rethrows the first cell exception after draining.
  SweepReport run();

 private:
  struct Cell {
    std::string label;
    std::function<void()> fn;
  };

  SweepOptions options_;
  std::vector<Cell> cells_;
};

/// Map `fn` over `items` across threads; results come back in item order,
/// bit-identical for any jobs count.  The result type must be default-
/// constructible (slots are preallocated).
template <typename Item, typename Fn>
auto sweep(const std::vector<Item>& items, Fn&& fn,
           const SweepOptions& options = {})
    -> std::vector<std::invoke_result_t<Fn&, const Item&>> {
  using Result = std::invoke_result_t<Fn&, const Item&>;
  static_assert(!std::is_void_v<Result>,
                "sweep: fn must return a value; use SweepRunner for void");
  std::vector<Result> out(items.size());
  SweepRunner runner(options);
  for (std::size_t i = 0; i < items.size(); ++i) {
    runner.add("cell " + std::to_string(i),
               [&out, &items, &fn, i] { out[i] = fn(items[i]); });
  }
  runner.run();
  return out;
}

/// sweep() with workload dedup: `keys[i]` is a stable fingerprint of item
/// i's work (e.g. core::pattern_hash of the pattern a cell simulates).
/// `fn` runs once per *distinct* key -- on the first item carrying it --
/// and every later duplicate copies that representative's result instead
/// of recomputing.  Results still land in item order and are bit-identical
/// to plain sweep() for any jobs count, because equal keys promise equal
/// work.  Throws std::invalid_argument when keys and items disagree in
/// length.
template <typename Item, typename Fn>
auto sweep_keyed(const std::vector<Item>& items,
                 const std::vector<std::uint64_t>& keys, Fn&& fn,
                 const SweepOptions& options = {})
    -> std::vector<std::invoke_result_t<Fn&, const Item&>> {
  using Result = std::invoke_result_t<Fn&, const Item&>;
  static_assert(!std::is_void_v<Result>,
                "sweep_keyed: fn must return a value");
  if (keys.size() != items.size()) {
    throw std::invalid_argument("sweep_keyed: one key per item required");
  }
  // representative[i]: index of the first item with items[i]'s key.
  std::vector<std::size_t> representative(items.size());
  std::vector<std::size_t> unique;  // first-occurrence indices, item order
  {
    std::unordered_map<std::uint64_t, std::size_t> first;
    first.reserve(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
      const auto [it, inserted] = first.emplace(keys[i], i);
      representative[i] = it->second;
      if (inserted) unique.push_back(i);
    }
  }
  std::vector<Result> out(items.size());
  SweepRunner runner(options);
  for (const std::size_t i : unique) {
    runner.add("cell " + std::to_string(i),
               [&out, &items, &fn, i] { out[i] = fn(items[i]); });
  }
  runner.run();
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (representative[i] != i) out[i] = out[representative[i]];
  }
  return out;
}

}  // namespace hetcomm::runtime
