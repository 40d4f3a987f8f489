// A minimal fixed-size thread pool for DOALL execution.
//
// Design follows the C++ Core Guidelines concurrency rules: threads are
// created once and reused (CP.41), tasks are value closures (CP.31), waiting
// is always condition-based (CP.42), and the pool joins its workers on
// destruction (CP.23/CP.26 - no detached threads).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
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
  /// Creates `num_threads` workers (>= 1).
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Runs body(chunk) for every chunk index in [0, num_chunks) across the
  /// pool and blocks until all chunks finished. Exceptions thrown by the
  /// body are captured and the first one is rethrown on the caller thread.
  void parallel_for(std::int64_t num_chunks,
                    const std::function<void(std::int64_t)>& body);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stopping_ = false;
};

}  // namespace vdep
