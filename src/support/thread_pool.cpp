#include "support/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

#include "support/error.h"

#ifdef __linux__
#include <sched.h>
#endif

namespace vdep {

std::size_t default_worker_count() {
#ifdef __linux__
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    const int n = CPU_COUNT(&mask);
    if (n > 0) return static_cast<std::size_t>(n);
  }
#endif
  return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(std::size_t num_threads) {
  VDEP_REQUIRE(num_threads >= 1, "ThreadPool needs at least one thread");
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (stopping_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

namespace {

// Shared between the caller and the helper tasks it enqueues. Helpers may
// start after the caller already returned (all chunks drained), so the state
// is shared_ptr-owned, never stack-referenced.
struct Batch {
  std::int64_t num_chunks = 0;
  std::function<void(std::int64_t)> body;
  std::atomic<std::int64_t> next{0};
  std::atomic<std::int64_t> remaining{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  std::mutex done_mutex;
  std::condition_variable done_cv;

  void run_chunks() {
    for (;;) {
      std::int64_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_chunks) return;
      try {
        body(c);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
      if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lock(done_mutex);
        done_cv.notify_all();
      }
    }
  }
};

}  // namespace

void ThreadPool::parallel_for(std::int64_t num_chunks,
                              const std::function<void(std::int64_t)>& body) {
  if (num_chunks <= 0) return;
  if (num_chunks == 1 || workers_.size() == 1) {
    for (std::int64_t c = 0; c < num_chunks; ++c) body(c);
    return;
  }

  auto batch = std::make_shared<Batch>();
  batch->num_chunks = num_chunks;
  batch->body = body;  // copy: outlives the caller if helpers start late
  batch->remaining.store(num_chunks, std::memory_order_relaxed);

  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < workers_.size(); ++i)
      tasks_.emplace([batch] { batch->run_chunks(); });
  }
  wake_.notify_all();

  // The caller participates too, then waits for stragglers.
  batch->run_chunks();
  {
    std::unique_lock<std::mutex> lock(batch->done_mutex);
    batch->done_cv.wait(lock, [&] {
      return batch->remaining.load(std::memory_order_acquire) == 0;
    });
  }
  // Take the error out of the batch: a helper that still holds the batch
  // must not drop the last reference to the exception the caller handles.
  std::exception_ptr error = std::move(batch->first_error);
  if (error) std::rethrow_exception(error);
}

}  // namespace vdep
