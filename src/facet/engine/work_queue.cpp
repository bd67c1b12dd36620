#include "facet/engine/work_queue.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

namespace facet {

namespace {

/// Shared state of one run_indexed() batch. Heap-allocated and owned via
/// shared_ptr by every queued drain task, so a worker that wakes up late can
/// never touch a dead job.
struct JobState {
  std::function<void(std::size_t)> fn;
  std::size_t count = 0;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> pending{0};
  std::mutex mutex;
  std::condition_variable done_cv;
  bool done = false;
  std::exception_ptr error;
};

void drain(const std::shared_ptr<JobState>& job)
{
  for (;;) {
    const std::size_t i = job->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job->count) {
      return;
    }
    try {
      job->fn(i);
    } catch (...) {
      const std::lock_guard<std::mutex> lock{job->mutex};
      if (!job->error) {
        job->error = std::current_exception();
      }
    }
    if (job->pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      const std::lock_guard<std::mutex> lock{job->mutex};
      job->done = true;
      job->done_cv.notify_all();
    }
  }
}

}  // namespace

WorkerPool::WorkerPool(std::size_t num_threads)
{
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  threads_.reserve(num_threads - 1);
  for (std::size_t t = 0; t + 1 < num_threads; ++t) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

WorkerPool::~WorkerPool()
{
  {
    const std::lock_guard<std::mutex> lock{mutex_};
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) {
    t.join();
  }
}

void WorkerPool::run_indexed(std::size_t count, const std::function<void(std::size_t)>& fn)
{
  if (count == 0) {
    return;
  }
  if (threads_.empty() || count == 1) {
    for (std::size_t i = 0; i < count; ++i) {
      fn(i);
    }
    return;
  }

  auto job = std::make_shared<JobState>();
  job->fn = fn;
  job->count = count;
  job->pending.store(count, std::memory_order_relaxed);

  // One drain task per worker that could usefully participate; each loops
  // claiming indices until the job is exhausted.
  const std::size_t helpers = std::min(threads_.size(), count - 1);
  {
    const std::lock_guard<std::mutex> lock{mutex_};
    for (std::size_t t = 0; t < helpers; ++t) {
      queue_.emplace_back([job] { drain(job); });
    }
  }
  work_cv_.notify_all();

  drain(job);

  std::unique_lock<std::mutex> lock{job->mutex};
  job->done_cv.wait(lock, [&] { return job->done; });
  if (job->error) {
    std::rethrow_exception(job->error);
  }
}

void WorkerPool::run_chunked(std::size_t count, const std::function<void(std::size_t, std::size_t)>& fn)
{
  const std::size_t chunk = std::max<std::size_t>(16, count / (num_threads() * 32));
  run_indexed((count + chunk - 1) / chunk, [&](std::size_t c) {
    const std::size_t begin = c * chunk;
    fn(begin, std::min(begin + chunk, count));
  });
}

void WorkerPool::worker_loop()
{
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock{mutex_};
      work_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) {
        return;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

}  // namespace facet
