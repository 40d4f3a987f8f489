// A minimal fixed-size thread pool for DOALL execution.
//
// Design follows the C++ Core Guidelines concurrency rules: threads are
// created once and reused (CP.41), waiting is always condition- or
// futex-based (CP.42), and the pool joins its workers on destruction
// (CP.23/CP.26 - no detached threads).
//
// Work reaches the pool threads as helper calls of a Job: state that the
// posting caller and every queued call own together by reference count, so
// the caller may return before a helper has even started. A late helper
// sees the job's work gone and returns; the last reference deletes the
// job, on whichever thread drops it. The queue holds (job, calls) entries
// in a ring that reuses its storage, so a post allocates nothing once the
// ring has held its largest backlog. parallel_for is a job whose caller
// waits for its chunks, not for its helpers.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "support/checked.h"

namespace vdep {

/// The worker count of a run that names none: the cpus in the calling
/// thread's affinity mask (taskset masks, cgroup cpusets), or the hardware
/// concurrency when the mask cannot be read; at least 1.
std::size_t default_worker_count();

class ThreadPool {
 public:
  /// Work shared by its poster and the helper calls it queued. A new job
  /// holds one reference, the poster's; each queued call holds one more
  /// until its help() returns. Whoever drops the last deletes the job.
  class Job {
   public:
    Job() = default;
    virtual ~Job() = default;
    Job(const Job&) = delete;
    Job& operator=(const Job&) = delete;

    /// One helper call, on a pool thread. It may start after the poster
    /// returned, so it touches nothing the poster owns unless the job's
    /// own state says that state is still in use.
    virtual void help() noexcept = 0;

    /// Drops one reference; the last one deletes the job.
    void release() noexcept;

   private:
    friend class ThreadPool;
    std::atomic<std::size_t> refs_{1};
  };

  /// A poster's handle on its job: a deleter that drops the poster's
  /// reference instead of deleting.
  struct Release {
    void operator()(Job* job) const noexcept { job->release(); }
  };

  /// Creates `num_threads` workers (>= 1).
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Queues `helpers` calls of job.help(), each holding a reference to the
  /// job, wakes that many threads, and returns without waiting for any.
  void post(Job& job, std::size_t helpers);

  /// Runs body(chunk) for every chunk index in [0, num_chunks) across the
  /// caller and min(size(), num_chunks - 1) helpers, and blocks until all
  /// chunks finished (not until the helpers left). Exceptions thrown by
  /// the body are captured and the first one is rethrown on the caller
  /// thread.
  void parallel_for(std::int64_t num_chunks,
                    const std::function<void(std::int64_t)>& body);

 private:
  struct Entry {
    Job* job = nullptr;
    std::size_t calls = 0;  ///< helper calls of `job` not yet taken
  };

  void worker_loop();

  std::vector<std::thread> workers_;
  /// Ring of queued entries: `queued_` of them from `head_` on.
  std::vector<Entry> ring_;
  std::size_t head_ = 0;
  std::size_t queued_ = 0;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stopping_ = false;
};

}  // namespace vdep
