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
// Loop bodies run through one exec::CompiledKernel, built on the first
// scan (a native-kernel executor never builds it) and bound once per run;
// workers share both. A leaf's scan state is a cursor on its own stack
// over its worker context's LeafScratch (runtime/driver.h), so a run
// builds nothing per worker or per leaf. Nests the kernel's one-time
// range proof rejects fall back to the exact interpreter. A plan with a
// DOALL level scans in column order: one DOALL level (column_level())
// moves innermost (one more Fourier-Motzkin rewrite, under T * P), and
// each point of the other levels runs that level's range as one column
// (CompiledKernel::execute_column). Lemma 1 puts every dependence distance
// at zero there, so the move keeps every distance's sign and a column's
// iterations are mutually independent. Plans with no DOALL level run one
// point at a time. Both bodies produce final stores bit-identical to the
// sequential reference — legality is the same Lemma 1 x Theorem 2 argument
// as the materialized schedule, only the cover of the box and the order of
// independent iterations changed.
//
// Splits prefer the DOALL axis with the largest address stride (keeps each
// leaf's touched rows contiguous; task.h SplitPrefs) and fall back to the
// longest axis when the plan gives no signal. A scan's column level splits
// only into halves of SplitLimits::kColumnFloor values or more (task.h).
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
// reuses it across requests (api/executable.h); apart from the scan state
// its first scan builds once (std::call_once), it is immutable after
// construction and safe to run from several threads at once.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <optional>

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
  /// Worker count; 0 means default_worker_count().
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

/// Address locality of a plan's DOALL levels over `nest` (i = j T^{-1}).
/// `weight[d]` is the total absolute movement, in elements, of the affine
/// accesses' flat addresses per unit step along transformed level d;
/// empty when a stride product overflows. `column` is the level compiled
/// scans run as columns: the lightest (ties to the deepest), the deepest
/// DOALL level without weights, -1 with no DOALL level. StreamExecutor
/// splits by the weights and scans by the column; CompiledLoop::summary()
/// names the column.
struct DoallLocality {
  Vec weight;
  int column = -1;
};
DoallLocality doall_locality(const loopir::LoopNest& nest,
                             const intlin::Mat& t_inverse, int num_doall);

class StreamExecutor {
 public:
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
  /// function run()/run(kernel) use — so a batch can drive many plans'
  /// descriptors over one worker set. Binds `store` once (PreconditionError
  /// on a mis-sized buffer) for every worker: with `kernel` null leaves scan
  /// through body() (the interpreter when null), else they go whole to
  /// `kernel`. The first scan-path source builds the body and the column
  /// order, once per executor. `store` and `kernel` must outlive the run;
  /// so must this executor.
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
  /// The transformed level compiled scans run as columns, permuted
  /// innermost (DoallLocality::column); -1 when the plan has no DOALL level
  /// and every compiled scan runs per point.
  int column_level() const { return column_; }
  i64 grain() const { return grain_; }
  i64 num_classes() const { return classes_; }
  std::size_t num_threads() const { return threads_; }
  const StreamOptions& options() const { return opts_; }
  /// The executor's own copy of the original bounded nest.
  const loopir::LoopNest& nest() const { return original_; }
  /// The compiled body, built on first use; null when forced to or proven
  /// unable to compile.
  const exec::CompiledKernel* body() const { return scan().body.get(); }

 private:
  struct Cursor;
  /// What a scan leaf runs each original iteration through: the compiled
  /// `kernel` over `bufs` when set, else the interpreter over `store` when
  /// set, else `sink` (run_trace).
  struct ScanBody {
    const exec::CompiledKernel* kernel = nullptr;
    const exec::BufferTable* bufs = nullptr;
    exec::ArrayStore* store = nullptr;
    const std::function<void(int, const Vec&)>* sink = nullptr;
  };
  /// What only a scan needs, built by its first use (scan()).
  struct ScanState {
    std::once_flag built;
    /// The compiled body; null when forced to or proven unable to compile.
    std::shared_ptr<const exec::CompiledKernel> body;
    /// tn_ under T * P, P moving column_level() innermost; unset when tn_
    /// already scans in that order (no DOALL level, or it is innermost).
    std::optional<codegen::TransformedNest> permuted;
    /// Row column_level() of T^{-1}: one step along the column level in
    /// original coordinates.
    Vec column_step;
    /// Whether the column level's range reads a level past the DOALL ones
    /// (the partition block or sequential tail): then it is evaluated at
    /// every point of that level, else once per point of the DOALL ones.
    bool column_per_point = false;
  };
  const ScanState& scan() const;
  /// The split limits of a scan-path (`scan`) or native-kernel source.
  SplitLimits split_limits(bool scan) const;
  void compute_hull();
  /// One scan-path leaf: a Cursor over `scratch`, scanning through `body`.
  /// The scan state must be built (scan()).
  void execute_leaf(const TaskDescriptor& task, WorkerStats& stats,
                    LeafScratch& scratch, const ScanBody& body) const;
  void scan_prefix(int level, const TaskDescriptor& task, Cursor& w) const;
  void scan_tail(int level, Cursor& w) const;
  /// The original iteration of w.j (w.j itself under identity).
  const Vec& original_point(Cursor& w) const;
  /// Sets w's column range at w.j, clipped to the leaf's slice; false when
  /// it is empty.
  bool column_range(Cursor& w) const;
  void emit(Cursor& w) const;
  /// Runs original iteration `it` through w's body.
  void run_point(Cursor& w, const Vec& it) const;

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
  int column_ = -1;  ///< column_level()
  /// Rectangular hull [min, max] of each DOALL-prefix dimension over the
  /// transformed space (interval arithmetic over the bounds, outermost-in).
  std::vector<std::pair<i64, i64>> hull_;
  /// Shared, so it survives a move of the executor and is built once for
  /// every thread that scans through it.
  std::shared_ptr<ScanState> scan_ = std::make_shared<ScanState>();
};

}  // namespace vdep::runtime
