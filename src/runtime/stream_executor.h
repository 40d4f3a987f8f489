// Streaming execution of a TransformPlan: work-stealing over descriptors,
// iterations regenerated on the fly.
//
// exec::build_schedule stores every iteration vector of every work item —
// O(total iterations x depth) memory and build time; it survives as the
// tests' oracle. The StreamExecutor never builds that list. The root
// TaskDescriptor covers the whole (DOALL-prefix hull) x (partition class)
// iteration box; workers split it recursively (task.h) into leaves held in
// Chase-Lev deques (work_queue.h), and each leaf *scans* its iterations
// directly from the Partitioning class recurrence (trans::Partitioning, the
// paper's loop (3.2)) or the plain transformed bounds, each boxed DOALL
// dimension intersected with the leaf's range. Peak schedule state is
// O(active descriptors): a few dozen small boxes, independent of the
// iteration count.
//
// Loop bodies run through one exec::CompiledKernel built with the executor
// and bound once per run; workers share both beside their own Scratch — a
// plan's column level (column_level below) as whole columns, everything
// else one point at a time. Nests the kernel's one-time range proof
// rejects fall back to the exact interpreter. Both
// bodies produce final stores bit-identical to the sequential reference —
// legality is the same Lemma 1 x Theorem 2 argument as the materialized
// schedule, only the cover of the box (and, in a column, the order of
// independent iterations) changed.
//
// Splits prefer the DOALL axis with the largest address stride (keeps each
// leaf's touched rows contiguous; task.h SplitPrefs) and fall back to the
// longest axis when the plan gives no signal.
//
// Classes are cosets of a lattice, so neighbouring iterations of different
// classes can write neighbouring cells. When the plan's written references
// put two classes within a cache line of each other, the class range stops
// being a split axis (splits_classes()): class parallelism there is false
// sharing. A plan with nothing else to split then seeds one piece, which
// the driver runs on the caller.
//
// An executor depends on bounds and on the schedule-shaping StreamOptions
// only, never on data or on the per-run RunSwitches (tracing, metrics,
// pinning), so the API memoizes one per (artifact, bounds, options) and
// reuses it across requests (api/executable.h); it is immutable after
// construction and safe to run from several threads at once.
#pragma once

#include <functional>
#include <memory>

#include "codegen/rewrite.h"
#include "exec/kernel.h"
#include "runtime/driver.h"
#include "runtime/stats.h"
#include "runtime/task.h"
#include "support/thread_pool.h"

namespace vdep::exec {
class CompiledKernel;
}

namespace vdep::runtime {

using intlin::Vec;

struct StreamOptions {
  /// Worker count; 0 means hardware concurrency.
  std::size_t num_threads = 0;
  /// Descriptor grain in cells; 0 picks it from the worker count (task.h
  /// pick_grain).
  i64 grain = 0;
  /// How many DOALL-prefix dimensions descriptors box and split; 0 = all
  /// (capped at TaskDescriptor::kMaxDims). 1 is the outer-only splitter,
  /// bench_runtime_throughput's single-axis baseline.
  int split_dims = 0;
  /// Build no compiled kernel and always interpret (tests / debugging).
  bool force_interpreter = false;
  // Tracing, metrics and worker pinning are not construction options: they
  // are per-run RunSwitches (runtime/driver.h), so one executor serves
  // runs that differ in them.
};

/// Whether distinct partition classes of `plan` write cells of `nest` less
/// than one cache line apart: for some written affine reference with flat
/// step g per partition-block coordinate, some offset delta with
/// |delta_k| < h_kk and delta outside lattice(H) has |g . delta| under
/// 64 / sizeof(i64) cells. Plans whose offset box is too large to
/// enumerate, and overflowing products, count as not sharing. A property
/// of (nest, plan) only: StreamExecutor keeps the class range whole when
/// it holds.
bool classes_share_lines(const loopir::LoopNest& nest,
                         const trans::TransformPlan& plan);

/// The column level of a transformed nest with `num_doall` DOALL-prefix
/// levels: the deepest DOALL level whose coordinate appears in no deeper
/// level's lower- or upper-bound term, or -1 when none does. Every
/// dependence distance is zero there (Lemma 1), so the iterations that
/// differ only in it are mutually independent, and since no deeper bound
/// reads it, the deeper points are the same for each of its values: a
/// compiled scan runs the level innermost, as one column per deeper point
/// (CompiledKernel::execute_column).
int column_level(const loopir::LoopNest& transformed, int num_doall);

class StreamExecutor {
 public:
  /// Leaf runner / factory types shared with the descriptor driver
  /// (runtime/driver.h), which owns the scheduling loop.
  using LeafFn = runtime::LeafFn;
  using LeafFactory = runtime::LeafFactory;

  /// `plan` must come from trans::plan_transform on `original`'s PDM (or
  /// be otherwise legal for it); legality is not re-checked here.
  StreamExecutor(const loopir::LoopNest& original,
                 const trans::TransformPlan& plan, StreamOptions opts = {});

  /// Runs the whole plan over `store` and returns the worker counters.
  /// Spawns num_threads() - 1 helper threads; the caller is worker 0.
  /// `sw` carries the run's tracing, metrics and pinning switches.
  RuntimeStats run(exec::ArrayStore& store, RunSwitches sw = {}) const;

  /// Same, but the workers are `pool`'s threads (plus the caller) instead
  /// of freshly spawned ones — use when a long-lived pool already exists.
  /// num_threads() worker contexts are distributed over the pool.
  RuntimeStats run(exec::ArrayStore& store, ThreadPool& pool,
                   RunSwitches sw = {}) const;

  /// Native-kernel mode: descriptor leaves are handed whole to
  /// `kernel.execute_range` (typically a dlopen-ed jit::NativeKernel built
  /// from this executor's plan) instead of being scanned per iteration.
  /// Work stealing, splitting and stats are identical to run(); only leaf
  /// execution changes.
  RuntimeStats run(exec::ArrayStore& store, const exec::RangeKernel& kernel,
                   RunSwitches sw = {}) const;
  RuntimeStats run(exec::ArrayStore& store, const exec::RangeKernel& kernel,
                   ThreadPool& pool, RunSwitches sw = {}) const;

  /// Test/diagnostic mode: streams every *original* iteration in execution
  /// order to `sink(worker, iter)` instead of mutating a store. The sink
  /// must be safe to call concurrently for distinct workers.
  RuntimeStats run_trace(
      const std::function<void(int, const Vec&)>& sink) const;

  /// This plan over `store` as one source of a descriptor-driver run
  /// (runtime/driver.h): root(), grain(), the locality prefs and the leaf
  /// runner run()/run(kernel) use — so a batch can drive many plans'
  /// descriptors over one worker set. Binds `store` once (PreconditionError
  /// on a mis-sized buffer) for every worker: with `kernel` null leaves scan
  /// through body() (the interpreter when null), else they go whole to
  /// `kernel`. `store` and `kernel` must outlive the run; so must this
  /// executor.
  DriveSource source(exec::ArrayStore& store,
                     const exec::RangeKernel* kernel = nullptr) const;

  /// The root descriptor: the rectangular hull of every boxed DOALL-prefix
  /// dimension times the full class range.
  TaskDescriptor root() const;
  /// Whether descriptors may split the class range: false when
  /// classes_share_lines(nest, plan), since splitting those classes would
  /// put workers on the same cache lines. DOALL axes split either way.
  bool splits_classes() const { return split_classes_; }
  /// DOALL-prefix dimensions descriptors box and split (<= num_doall).
  int boxed_dims() const { return ndims_; }
  /// The transformed level compiled scans run as columns
  /// (column_level(transformed nest, num_doall)); -1 when every compiled
  /// scan runs per point.
  int column_level() const { return column_level_; }
  i64 grain() const { return grain_; }
  i64 num_classes() const { return classes_; }
  std::size_t num_threads() const { return threads_; }
  const StreamOptions& options() const { return opts_; }
  /// The executor's own copy of the original bounded nest.
  const loopir::LoopNest& nest() const { return original_; }
  /// The compiled body; null when forced to or proven unable to compile.
  const exec::CompiledKernel* body() const { return body_.get(); }

 private:
  struct Worker;
  LeafFactory make_leaf_factory(exec::ArrayStore& store,
                                const exec::RangeKernel* kernel) const;
  /// One scan-path worker context: Worker + recursive descriptor scan,
  /// through body_ over `bufs` when set, else `body`.
  LeafFn make_scan_leaf(
      int id, WorkerStats& stats, std::function<void(const Vec&)> body,
      std::shared_ptr<const exec::BufferTable> bufs = nullptr) const;
  void compute_hull();
  void compute_split_prefs();
  void execute_leaf(const TaskDescriptor& task, Worker& w) const;
  void scan_prefix(int level, const TaskDescriptor& task, Worker& w) const;
  void scan_tail(int level, Worker& w) const;
  void emit(Worker& w) const;

  loopir::LoopNest original_;
  codegen::TransformedNest tn_;
  std::optional<trans::Partitioning> part_;
  StreamOptions opts_;
  std::size_t threads_ = 1;
  int depth_ = 0;
  int num_doall_ = 0;
  int ndims_ = 0;  ///< boxed DOALL-prefix dimensions (<= kMaxDims)
  i64 classes_ = 1;
  bool identity_ = true;  ///< T == I: transformed coords are original coords
  i64 grain_ = 1;
  SplitPrefs split_prefs_;
  bool split_classes_ = true;
  int column_level_ = -1;
  /// Row column_level_ of T^{-1}: one step along the column level in
  /// original coordinates.
  Vec column_step_;
  /// Rectangular hull [min, max] of each DOALL-prefix dimension over the
  /// transformed space (interval arithmetic over the bounds, outermost-in).
  std::vector<std::pair<i64, i64>> hull_;
  /// Owns its nest, so it survives a move of the executor.
  std::shared_ptr<const exec::CompiledKernel> body_;
};

}  // namespace vdep::runtime
