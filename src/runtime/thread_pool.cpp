#include "runtime/thread_pool.hpp"

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <mutex>
#include <stdexcept>

namespace hetcomm::runtime {

int hardware_jobs() noexcept {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

struct ThreadPool::Impl {
  std::mutex mu;
  std::condition_variable start_cv;
  std::condition_variable done_cv;

  // Current job, published under `mu` and bumped via `epoch`.
  const Task* task = nullptr;
  std::int64_t count = 0;
  std::uint64_t epoch = 0;
  std::size_t workers_done = 0;
  bool stop = false;

  std::atomic<std::int64_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;  ///< of the lowest failed task, under `mu`
  std::int64_t error_task = 0;

  // Tracing for the current job (set by parallel_for before the epoch
  // bump, so workers read it after their start_cv wake).  Name slots are
  // interned once per traced call, not per task.
  ThreadPool::TraceHook trace;
  double submit_time = 0.0;  ///< tracer-epoch seconds at submission
  std::uint16_t wait_name = 0;
  std::uint16_t run_name = 0;
  std::uint16_t task_key = 0;

  /// Claim and run tasks until none remain or a task has failed.
  void drain(int worker) {
    for (;;) {
      if (failed.load(std::memory_order_relaxed)) return;
      const std::int64_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      const obs::TraceAttr task_attr[] = {{task_key, false, i}};
      const auto track = static_cast<std::uint16_t>(worker);
      double claimed = 0.0;
      std::uint32_t run_span = 0;
      if (trace.tracer != nullptr) {
        claimed = trace.tracer->now();
        trace.tracer->record_span(worker, trace.trace_id, trace.parent,
                                  wait_name, track, submit_time, claimed,
                                  task_attr);
        run_span = trace.tracer->new_span_id();
      }
      try {
        (*task)(i, worker);
      } catch (...) {
        // Tasks are claimed in index order, so every task below the first
        // failure seen is already claimed and runs to completion: keeping
        // the lowest failed index makes the rethrown error deterministic.
        std::lock_guard<std::mutex> lock(mu);
        if (!error || i < error_task) {
          error = std::current_exception();
          error_task = i;
        }
        failed.store(true, std::memory_order_relaxed);
        return;
      }
      if (trace.tracer != nullptr) {
        trace.tracer->record_span(worker, trace.trace_id, trace.parent,
                                  run_name, track, claimed,
                                  trace.tracer->now(), task_attr, run_span);
      }
    }
  }

  void worker_loop(int worker) {
    std::uint64_t seen = 0;
    for (;;) {
      std::unique_lock<std::mutex> lock(mu);
      start_cv.wait(lock, [&] { return stop || epoch != seen; });
      if (stop) return;
      seen = epoch;
      lock.unlock();
      drain(worker);
      lock.lock();
      ++workers_done;
      done_cv.notify_all();
    }
  }
};

ThreadPool::ThreadPool(int threads) : impl_(new Impl) {
  if (threads < 0) {
    delete impl_;
    throw std::invalid_argument("ThreadPool: thread count must be >= 0");
  }
  if (threads == 0) threads = hardware_jobs();
  workers_.reserve(static_cast<std::size_t>(threads - 1));
  for (int w = 1; w < threads; ++w) {
    workers_.emplace_back([this, w] { impl_->worker_loop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->stop = true;
  }
  impl_->start_cv.notify_all();
  for (std::thread& t : workers_) t.join();
  delete impl_;
}

void ThreadPool::parallel_for(std::int64_t count, const Task& fn,
                              const TraceHook& trace) {
  if (count <= 0) return;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->task = &fn;
    impl_->count = count;
    impl_->trace = trace;
    if (trace.tracer != nullptr) {
      impl_->submit_time = trace.tracer->now();
      impl_->wait_name = trace.tracer->intern("pool.wait");
      impl_->run_name = trace.tracer->intern("pool.run");
      impl_->task_key = trace.tracer->intern("task");
    }
    impl_->next.store(0, std::memory_order_relaxed);
    impl_->failed.store(false, std::memory_order_relaxed);
    impl_->error = nullptr;
    impl_->workers_done = 0;
    ++impl_->epoch;
  }
  impl_->start_cv.notify_all();

  impl_->drain(/*worker=*/0);  // the calling thread participates

  std::unique_lock<std::mutex> lock(impl_->mu);
  impl_->done_cv.wait(lock,
                      [&] { return impl_->workers_done == workers_.size(); });
  impl_->task = nullptr;
  impl_->trace = TraceHook();
  if (impl_->error) {
    std::exception_ptr error = impl_->error;
    impl_->error = nullptr;
    lock.unlock();
    std::rethrow_exception(error);
  }
}

}  // namespace hetcomm::runtime
