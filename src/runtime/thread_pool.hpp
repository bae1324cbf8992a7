#pragma once
// Fixed-size worker pool for fanning independent simulation work across
// threads (repetitions inside core::measure(), sweep cells inside
// runtime::SweepRunner).
//
// Determinism contract: the pool hands out task indices dynamically, so
// *which* worker runs a task is scheduling-dependent -- callers must make
// results independent of that by writing each task's output to a
// preallocated slot keyed by task index and deriving any randomness from
// the task index, never from the worker.  Workers are identified by a dense
// index in [0, num_threads()) so callers can keep per-worker scratch state
// (e.g. one reusable hetsim::Engine per worker).

#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "obs/trace.hpp"

namespace hetcomm::runtime {

/// Usable hardware concurrency: std::thread::hardware_concurrency(), but
/// never less than 1 (the standard allows it to report 0).
[[nodiscard]] int hardware_jobs() noexcept;

class ThreadPool {
 public:
  /// A pool of `threads` workers (0 = hardware_jobs()).  The calling thread
  /// of parallel_for() acts as worker 0, so only `threads - 1` OS threads
  /// are spawned and a 1-thread pool runs everything inline.
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int num_threads() const noexcept {
    return static_cast<int>(workers_.size()) + 1;
  }

  /// Task signature: fn(task_index, worker_index).
  using Task = std::function<void(std::int64_t, int)>;

  /// Span tracing for one parallel_for call: each task records a
  /// `pool.wait` span (submission to claim -- how long the task sat in
  /// the queue) and a `pool.run` span, both on the claiming worker's ring
  /// and track, parented under `parent` in `trace_id`.  Null tracer (the
  /// default) records nothing and costs one branch per task.
  struct TraceHook {
    obs::Tracer* tracer;
    std::uint64_t trace_id;
    std::uint32_t parent;
    // Spelled-out constructor (not default member initializers) so the
    // `= TraceHook()` default argument below is usable while ThreadPool
    // is still incomplete.
    constexpr explicit TraceHook(obs::Tracer* t = nullptr,
                                 std::uint64_t id = 0,
                                 std::uint32_t p = 0) noexcept
        : tracer(t), trace_id(id), parent(p) {}
  };

  /// Run tasks 0..count-1 across the pool and block until all complete.
  /// If any task throws, remaining unclaimed tasks are skipped and, after
  /// every worker has drained, the exception of the lowest-index failed
  /// task is rethrown here.  Tasks are claimed in index order, so that is
  /// the lowest failing task of the whole range, whatever the timing.
  /// Not reentrant: one parallel_for at a time per pool.
  void parallel_for(std::int64_t count, const Task& fn,
                    const TraceHook& trace = TraceHook());

 private:
  struct Impl;
  Impl* impl_;  ///< owned; out-of-line so <mutex> stays out of the header
  std::vector<std::thread> workers_;
};

}  // namespace hetcomm::runtime
