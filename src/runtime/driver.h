// The work-stealing descriptor driver: the one scheduling loop every
// executor that speaks TaskDescriptor shares — the streaming plan executor,
// the inspector's pass 1 and executor, and batch serving (many requests,
// one worker set). Chase-Lev deques, workers pinned to topology-assigned cpus,
// depth-first splitting along the longest (or locality-preferred) axis,
// distance-ordered steal sweeps, idle waits woken by pushes, first-error
// abort, and the tracing/metrics gates. A run ends when its last
// descriptor retires, and the caller returns then.
//
// A run drives one or more *sources*. Each source is a root descriptor plus
// how to split it and how to run its leaves; its descriptors carry the
// source index in TaskDescriptor::source, so descriptors of different
// sources interleave in the same deques and migrate between workers by the
// normal stealing rules. Legality is per source: two descriptors of one
// source are disjoint iteration boxes of that source's space (Lemma 1 x
// Theorem 2), and descriptors of different sources touch different stores
// entirely, so any interleaving is safe. A single-request run is the
// one-source case.
//
// The driver owns *scheduling* only. What a leaf descriptor means (a boxed
// DOALL prefix x class range to scan, a native-kernel range call, a run of
// inspector classes, a rank range of inspector pass 1) is the caller's
// business, encoded in the source's leaf function. A leaf keeps no state
// of its own: it gets the (worker, source) counter block and its worker
// context's LeafScratch, one set of buffers that serves every source the
// context runs, so a run builds nothing per (worker, source).
#pragma once

#include <functional>
#include <span>

#include "exec/compiled.h"
#include "runtime/stats.h"
#include "runtime/task.h"
#include "support/thread_pool.h"

namespace vdep::runtime {

/// One worker context's reusable leaf buffers, lent in turn to every leaf
/// the context runs, whatever its source: a scan's cursor (the point being
/// scanned, its original-coordinate image, the class label and the
/// partition recurrence's lattice coordinates) and a compiled body's
/// value stack and columns. Leaves size what they use; nothing shrinks.
struct LeafScratch {
  /// What one source's leaves use of a scratch: the cursor's length and
  /// the compiled body's stack values and value columns.
  struct Size {
    int depth = 0;
    std::size_t stack = 0;
    std::size_t columns = 0;
  };
  /// Grows every buffer to at least `size`.
  void fit(const Size& size);

  /// The worker context (0 is the caller's).
  int worker = 0;
  intlin::Vec point, orig, label, lattice;
  exec::CompiledKernel::Scratch kernel;
};

/// Runs one leaf descriptor. `stats` is the running context's counter
/// block for the leaf's source (iterations are counted by the leaf
/// itself); `scratch` is that context's.
using LeafFn =
    std::function<void(const TaskDescriptor&, WorkerStats&, LeafScratch&)>;

/// One root of a run: the box to cover, how to split it, how to run leaves.
struct DriveSource {
  TaskDescriptor root;
  /// Descriptor grain in cells: descriptors with more cells keep splitting.
  i64 grain = 1;
  /// Locality weights for the split-axis choice (task.h). All-zero (the
  /// default) keeps the longest-axis policy.
  SplitPrefs prefs;
  /// Runs every leaf of this source, on any worker. Must outlive the
  /// drive_descriptors call and be safe to call concurrently; never
  /// called after that call returned.
  LeafFn leaf;
  /// Which axes may split (task.h SplitLimits): the class range unless the
  /// plan's classes write neighbouring cells (StreamExecutor::
  /// splits_classes), a scan's column level only into long columns.
  SplitLimits limits;
  /// The LeafScratch this source's leaves use. Every context's scratch is
  /// fitted to the largest over the run's sources before the context
  /// starts, so a run allocates the same per context whichever leaves
  /// each one runs.
  LeafScratch::Size scratch;
};

/// A run's switches that change neither its schedule nor its results: the
/// observability gates and worker pinning. They are chosen per run, never
/// baked into an executor, so one executor (e.g. a memoized one) serves
/// requests that differ in them.
struct RunSwitches {
  /// Allow this run to emit trace events when the global obs::TraceRecorder
  /// is enabled (leaf spans, split/steal/idle events). Off, the run never
  /// touches the recorder regardless of its state.
  bool trace = true;
  /// Same gate for the global obs::MetricsRegistry (histograms during the
  /// run + per-worker counters at the end).
  bool metrics = true;
  /// Pin each worker to the cpu topo::Topology::system().assign_workers
  /// hands it for the duration of the run (previous affinity restored at
  /// exit). Also honors the VDEP_PIN=0 environment opt-out; no-op on hosts
  /// without sched_setaffinity. Results are bit-identical either way.
  bool pin_workers = true;
};

struct DriveOptions {
  /// Worker contexts (the caller is context 0).
  std::size_t threads = 1;
  RunSwitches switches;
};

/// Splits every source's root recursively down to its grain across
/// `opts.threads` work-stealing workers and runs every leaf through its
/// source's leaf function.
///
/// Seeding: the nonempty roots, in source order, are split fattest-first
/// until there are at least `threads` pieces (or nothing is splittable),
/// sorted by (source, position) and dealt round-robin across the deques —
/// so with one source pinned worker k starts on the k-th slice of the
/// space (the slice a first-touch store placed on k's node), and with at
/// least `threads` sources each deque starts on whole requests. Seeding
/// splits are charged to worker 0's counters, so tasks == splits + 1 holds
/// per source. Idle workers then steal nearest-first.
///
/// When seeding runs out of splittable pieces first, no descriptor can
/// ever be created again, so the run starts only pieces.size() worker
/// contexts; a single context is the calling thread alone, with no pool
/// hand-off and no pinning. RuntimeStats::workers_used records the count
/// (RuntimeStats::workers keeps `threads` entries either way).
///
/// The calling thread is worker 0. With `pool` null, the other contexts
/// run on threads spawned here and joined before the return; otherwise
/// min(pool->size(), contexts - 1) helper calls are queued on the pool
/// and claim contexts 1, 2, ... without a join. Either way the call
/// returns when the last descriptor retired, with every counter, idle
/// time and trace event of the run recorded: a helper still leaving, or
/// starting only now, touches nothing of the caller's (see
/// docs/RUNTIME.md). Contexts a pool never started get no idle time;
/// their seeded pieces are stolen. The first leaf exception aborts the
/// run: the descriptors still queued retire without running their leaf,
/// no leaf starts after the return, and the error plus its source index
/// come back in RuntimeStats::error / error_source (not rethrown).
RuntimeStats drive_descriptors(std::span<const DriveSource> sources,
                               const DriveOptions& opts,
                               ThreadPool* pool = nullptr);

/// drive_descriptors over `source` alone, rethrowing its first leaf error:
/// the single-source run every executor's run() makes.
RuntimeStats drive(const DriveSource& source, const DriveOptions& opts,
                   ThreadPool* pool = nullptr);

namespace detail {
/// Whether a run should really pin: opted in, more than one worker, the
/// host supports sched_setaffinity, and VDEP_PIN=0 is not set.
bool effective_pin(bool opt_in, std::size_t threads);
}  // namespace detail

}  // namespace vdep::runtime
