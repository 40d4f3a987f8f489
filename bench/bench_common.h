// Helpers shared by the bench programs.
#pragma once

#include <cstddef>

#include "support/thread_pool.h"

namespace vdep::bench {

/// The worker count every bench program defaults to and stamps into its
/// JSON rows as `hw_threads`: default_worker_count(), the cpus of the
/// process's affinity mask, so a run under `taskset` measures and reports
/// the cpus it may use, like the library's own "0 workers" default.
inline std::size_t hw_threads() {
  static const std::size_t hw = default_worker_count();
  return hw;
}

}  // namespace vdep::bench
