/// \file work_queue.hpp
/// \brief Minimal worker pool (std::thread + a task queue) for the batch
///        engine. No external dependencies.
///
/// The pool owns `num_threads - 1` worker threads; the caller of
/// run_indexed() participates as the remaining worker, so a pool of size 1
/// spawns no threads and runs everything inline (the deterministic baseline
/// the batch-engine tests compare against). Index claiming is a single
/// atomic fetch-add over a shared job object, so items are load-balanced
/// dynamically — important because item costs are highly skewed (one
/// exact-classifier bucket can hold many classes, most hold one).

#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace facet {

class WorkerPool {
 public:
  /// `num_threads` = 0 selects std::thread::hardware_concurrency().
  explicit WorkerPool(std::size_t num_threads = 0);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Total workers, including the calling thread: always >= 1.
  [[nodiscard]] std::size_t num_threads() const noexcept { return threads_.size() + 1; }

  /// Invokes fn(i) once for every i in [0, count), distributed over the
  /// pool plus the calling thread. Blocks until all invocations finish.
  /// If any invocation throws, the first captured exception is rethrown
  /// here after the batch drains.
  void run_indexed(std::size_t count, const std::function<void(std::size_t)>& fn);

  /// Splits [0, count) into contiguous chunks, small enough (about 32 per
  /// worker) that dynamic claiming evens out uneven item costs, and invokes
  /// fn(begin, end) once per chunk through run_indexed().
  void run_chunked(std::size_t count, const std::function<void(std::size_t, std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> threads_;
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
};

}  // namespace facet
