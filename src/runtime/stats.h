// Execution counters of the streaming runtime.
//
// Every worker owns one WorkerStats per source and mutates it without
// synchronization before retiring the descriptor it counts; the driver
// aggregates at the run's end (no source live), so readers only ever see
// final values. The aggregate view (RuntimeStats) is what benches and ExecReport
// report.
#pragma once

#include <exception>
#include <string>
#include <vector>

#include "runtime/task.h"
#include "support/checked.h"

namespace vdep::runtime {

using i64 = checked::i64;

/// Steal-distance classes mirrored from topo::Topology (kSameCpu,
/// kSmtSibling, kSameNode, kRemoteNode) — duplicated here so the counter
/// block stays free of topology headers.
inline constexpr int kStealDistances = 4;

/// Private counters of one worker context (no atomics: single writer, read
/// only after the run ended). Padded to a cache line so adjacent workers'
/// counters never share one.
struct alignas(64) WorkerStats {
  i64 tasks = 0;       ///< leaf descriptors executed to completion
  i64 splits = 0;      ///< descriptors divided and re-enqueued
  i64 steals = 0;      ///< successful steals from another worker's deque
  i64 iterations = 0;  ///< loop-body iterations executed
  /// Of `iterations`, those a compiled scan ran column-wise
  /// (CompiledKernel::execute_column).
  i64 column_iterations = 0;
  i64 busy_ns = 0;     ///< wall time spent inside descriptor execution
  /// Wall time with no runnable descriptor: from each failed pop to the
  /// steal that ended the episode, or to the run's end.
  i64 idle_ns = 0;
  /// Full steal sweeps (every other deque probed) that came back empty.
  i64 failed_steals = 0;
  /// Splits by chosen axis: slots 0..kMaxDims-1 are the boxed DOALL-prefix
  /// dimensions (outermost first), slot kClassAxis the class range. Their
  /// sum equals `splits`.
  i64 axis_splits[TaskDescriptor::kMaxDims + 1] = {};
  /// Successful steals by victim distance under the run's worker->cpu
  /// assignment: same cpu (oversubscribed co-residents), SMT sibling, same
  /// NUMA node, remote node. Their sum equals `steals`.
  i64 steals_by_distance[kStealDistances] = {};
};

/// Per-source completion counters of a run (one per DriveSource; a
/// batch turns them into per-request ExecReports).
struct SourceStats {
  i64 iterations = 0;
  i64 column_iterations = 0;  ///< of `iterations`, run column-wise
  i64 tasks = 0;   ///< leaf descriptors executed
  i64 splits = 0;
  i64 inner_splits = 0;  ///< splits along inner DOALL axes (task.h)
  i64 steals = 0;  ///< stolen descriptors of this source
  i64 done_ns = 0; ///< run start -> this source's last descriptor retired
  /// Queue latency: run start -> first descriptor of this source starts
  /// executing (how long the request waited behind the other sources).
  i64 queue_ns = 0;
};

/// Aggregated run outcome.
struct RuntimeStats {
  /// Per worker context, summed over sources.
  std::vector<WorkerStats> workers;
  /// Per source, summed over worker contexts.
  std::vector<SourceStats> sources;
  /// Makespan of the whole run: from the first context's start (seeding
  /// done) to the last descriptor's retirement, as the caller saw it.
  i64 wall_ns = 0;
  /// Worker contexts the run offered work to: `threads`, fewer when
  /// seeding found fewer unsplittable pieces (1: the caller ran the lone
  /// piece), 0 for an empty run. On a pool busy elsewhere some of them may
  /// never start; the others steal their seeded pieces.
  i64 workers_used = 0;
  /// First failure (a leaf threw): the descriptors still queued retired
  /// without running. Single-request callers rethrow it; a batch
  /// attaches the request index from error_source.
  std::exception_ptr error;
  i64 error_source = -1;

  i64 total_tasks() const;
  i64 total_splits() const;
  i64 total_steals() const;
  /// Steals at one victim distance (0 = same cpu .. 3 = remote node).
  i64 total_steals_by_distance(int d) const;
  i64 total_iterations() const;
  i64 total_column_iterations() const;
  /// Splits along one axis (0..kMaxDims-1 or TaskDescriptor::kClassAxis).
  i64 total_axis_splits(int axis) const;
  /// Splits along inner DOALL axes (axis >= 1, class axis excluded) — the
  /// splits the legacy outer-only policy could never perform.
  i64 total_inner_splits() const;
  /// Max over workers of busy_ns — the critical-path estimate.
  i64 max_busy_ns() const;
  i64 total_idle_ns() const;
  i64 total_failed_steals() const;

  /// Multi-line human-readable table (one row per worker + totals).
  std::string to_string() const;
};

/// Publishes one run's aggregated per-worker counters into the global
/// obs::MetricsRegistry (vdep_worker_busy_ns, vdep_worker_idle_ns,
/// vdep_tasks_total, ...). No-op when the registry is disabled.
void publish_run_metrics(const std::vector<WorkerStats>& workers);

}  // namespace vdep::runtime
