#include "support/thread_pool.h"

#include <algorithm>
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

void ThreadPool::Job::release() noexcept {
  if (refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) delete this;
}

ThreadPool::ThreadPool(std::size_t num_threads) {
  VDEP_REQUIRE(num_threads >= 1, "ThreadPool needs at least one thread");
  // Room for a few posts per thread up front; the ring doubles when a
  // backlog outgrows it and never shrinks.
  ring_.resize(std::max<std::size_t>(16, 4 * num_threads));
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
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return stopping_ || queued_ != 0; });
      if (queued_ == 0) return;  // stopping, and every queued call ran
      Entry& front = ring_[head_];
      job = front.job;
      if (--front.calls == 0) {
        head_ = (head_ + 1) % ring_.size();
        --queued_;
      }
    }
    job->help();
    job->release();
  }
}

void ThreadPool::post(Job& job, std::size_t helpers) {
  if (helpers == 0) return;
  job.refs_.fetch_add(helpers, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (queued_ == ring_.size()) {
      std::vector<Entry> bigger(2 * ring_.size());
      for (std::size_t k = 0; k < queued_; ++k)
        bigger[k] = ring_[(head_ + k) % ring_.size()];
      ring_.swap(bigger);
      head_ = 0;
    }
    ring_[(head_ + queued_) % ring_.size()] = {&job, helpers};
    ++queued_;
  }
  // One wake-up call either way: waking several threads one by one costs
  // the poster a system call each, which measured slower than waking
  // every idle thread at once and letting those that find no call left
  // wait again.
  if (helpers == 1)
    wake_.notify_one();
  else
    wake_.notify_all();
}

namespace {

// The chunks of one parallel_for call. A helper that starts after every
// chunk was claimed touches only the counter it claims from, so the body
// stays the caller's: a claimed chunk keeps the caller waiting.
struct Chunks final : ThreadPool::Job {
  Chunks(std::int64_t n, const std::function<void(std::int64_t)>& b)
      : num_chunks(n), body(b), remaining(n) {}

  void help() noexcept override {
    for (;;) {
      const std::int64_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_chunks) return;
      try {
        body(c);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
      if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        finished.store(1, std::memory_order_release);
        finished.notify_all();
      }
    }
  }

  const std::int64_t num_chunks;
  const std::function<void(std::int64_t)>& body;
  std::atomic<std::int64_t> next{0};
  std::atomic<std::int64_t> remaining;
  std::atomic<int> finished{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;
};

}  // namespace

void ThreadPool::parallel_for(std::int64_t num_chunks,
                              const std::function<void(std::int64_t)>& body) {
  if (num_chunks <= 0) return;
  if (num_chunks == 1 || workers_.size() == 1) {
    for (std::int64_t c = 0; c < num_chunks; ++c) body(c);
    return;
  }

  const std::unique_ptr<Chunks, Release> chunks(new Chunks(num_chunks, body));
  const auto helpers = static_cast<std::size_t>(num_chunks - 1);
  post(*chunks, std::min(workers_.size(), helpers));
  // The caller runs chunks too, then waits for the ones still running.
  chunks->help();
  while (chunks->finished.load(std::memory_order_acquire) == 0)
    chunks->finished.wait(0, std::memory_order_acquire);
  // Take the error out of the job: a helper that still holds the job must
  // not drop the last reference to the exception the caller handles.
  std::exception_ptr error = std::move(chunks->first_error);
  if (error) std::rethrow_exception(error);
}

}  // namespace vdep
