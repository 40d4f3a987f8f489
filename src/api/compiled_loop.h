// CompiledLoop: an immutable, shareable handle over the staged compilation
// artifacts of one loop structure.
//
// The stages mirror the paper's pipeline and are queryable separately:
//
//   analysis()  PDM + rank (Section 2)            — structure-only, cached
//   plan()      TransformPlan + legality cert     — structure-only, cached
//   codegen()   emitted C, memoized per option    — lazy, bounds enter here
//   execute()   a batch of one (api/batch.h)      — bounds + data enter here
//   check()     execute + bit-exact verification against sequential
//
// A handle = {shared PlanArtifact, concrete bounded nest}. The artifact is
// keyed by the structural fingerprint (api/fingerprint.h) and shared by
// every handle whose nest has the same structure — compile once at n=10,
// move to new bounds with at() (or re-compile: it is a cache hit) and
// execute at n=1000 without re-running Hermite/Smith/Fourier–Motzkin. The
// bounds-level state of a run (executor with its compiled body, native
// kernel — or an indirect nest's last dynamic partition) is memoized on
// the artifact too, per (bounds, execution options): a warm execute() at
// bounds already run only binds it to the request's store, after comparing
// the store's index arrays with the memoized partition's when the nest is
// inspected.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "api/fingerprint.h"
#include "codegen/emit_c.h"
#include "dep/pdm.h"
#include "exec/array_store.h"
#include "exec/runner.h"
#include "jit/toolchain.h"
#include "support/expected.h"
#include "support/thread_pool.h"
#include "trans/planner.h"

namespace vdep {

using intlin::i64;

// ---------------------------------------------------------------- options

/// Which program codegen() emits.
enum class CodegenTarget {
  kTransformed,  ///< unimodular rewrite + Theorem-2 class loops
  kOriginal,     ///< the sequential source nest
};

/// Builder-style code generation options (replaces the bool soup of
/// codegen::EmitOptions at the API boundary).
class CodegenOptions {
 public:
  CodegenOptions& target(CodegenTarget t) { target_ = t; return *this; }
  CodegenOptions& openmp(bool v) { openmp_ = v; return *this; }
  CodegenOptions& with_main(bool v) { with_main_ = v; return *this; }
  CodegenOptions& kernel_name(std::string v) { kernel_name_ = std::move(v); return *this; }

  CodegenTarget target() const { return target_; }
  bool openmp() const { return openmp_; }
  bool with_main() const { return with_main_; }
  const std::string& kernel_name() const { return kernel_name_; }

  /// Canonical memoization key of this option set.
  std::string memo_key() const;

 private:
  CodegenTarget target_ = CodegenTarget::kTransformed;
  bool openmp_ = true;
  bool with_main_ = true;
  std::string kernel_name_ = "kernel";
};

/// What runs the loop bodies.
enum class ExecBackend {
  kCompiled,     ///< postfix exec::CompiledKernel, interpreter fallback;
                 ///< int64 overflow fails kOverflow, as with kInterpreter
  kInterpreter,  ///< exact tree-walking interpreter, always
  kJit,          ///< dlopen-ed native kernel; falls back to kCompiled when
                 ///< no toolchain is available or the plan is not JITable.
                 ///< An affine nest's range kernel wraps on int64 overflow
                 ///< (-fwrapv); an indirect nest's inspector leaves run its
                 ///< row kernel, whose overflow fails kOverflow
  kInspector,    ///< runtime inspector–executor: dependence components are
                 ///< discovered at the given bounds/data (src/inspect/) and
                 ///< run as dynamic partition classes. The only backend for
                 ///< indirect subscripts (A[B[i]]); non-affine nests route
                 ///< here automatically whatever the policy says
};

/// Builder-style execution policy of execute()/check()/execute_batch(): every
/// run streams descriptors through the work-stealing scheduler
/// (runtime::drive_descriptors); the policy picks the workers, the grain,
/// the backend and the per-run switches.
class ExecPolicy {
 public:
  ExecPolicy& threads(std::size_t t) { threads_ = t; return *this; }
  ExecPolicy& grain(i64 g) { grain_ = g; return *this; }
  ExecPolicy& backend(ExecBackend b) { backend_ = b; return *this; }
  /// Whether ExecReport.checksum is computed (a full store scan per
  /// request — diagnostics; serving paths turn it off).
  ExecPolicy& digest(bool v) { digest_ = v; return *this; }
  /// Toolchain/flag options used when backend() == kJit.
  ExecPolicy& jit_options(jit::JitOptions o) { jit_ = std::move(o); return *this; }
  /// Allow this execution to emit events into the global obs::TraceRecorder
  /// when it is enabled (off: the run never touches the recorder).
  ExecPolicy& trace(bool v) { trace_ = v; return *this; }
  /// Same gate for the global obs::MetricsRegistry.
  ExecPolicy& metrics(bool v) { metrics_ = v; return *this; }
  /// Pin each worker to its topology-assigned cpu for the run (previous
  /// affinity restored afterwards). VDEP_PIN=0 overrides from outside.
  /// Results are bit-identical either way; only placement changes.
  ExecPolicy& pin_workers(bool v) { pin_workers_ = v; return *this; }

  /// 0 = default_worker_count().
  std::size_t threads() const { return threads_; }
  i64 grain() const { return grain_; }              ///< 0 = automatic
  ExecBackend backend() const { return backend_; }
  const jit::JitOptions& jit_options() const { return jit_; }
  bool digest() const { return digest_; }
  bool trace() const { return trace_; }
  bool metrics() const { return metrics_; }
  bool pin_workers() const { return pin_workers_; }

 private:
  std::size_t threads_ = 0;
  i64 grain_ = 0;
  ExecBackend backend_ = ExecBackend::kCompiled;
  jit::JitOptions jit_;
  bool digest_ = true;
  bool trace_ = true;
  bool metrics_ = true;
  bool pin_workers_ = true;
};

// -------------------------------------------------------------- artifacts

/// Stage 1 — dependence analysis (paper Section 2). Structure-only.
struct LoopAnalysis {
  dep::Pdm pdm;
  int rank = 0;
  bool all_uniform = false;  ///< Corollary 5: classical uniform distances
  /// False when the nest has indirect subscripts the PDM cannot model: the
  /// pdm/plan fields degrade to a serial identity plan and execute() goes
  /// through the runtime inspector regardless of ExecPolicy::backend.
  bool affine = true;
};

/// Stage 2 — transformation plan plus its legality certificate
/// (Theorem 1 re-checked on the final T, not just trusted from
/// construction). Structure-only.
struct LoopPlan {
  trans::TransformPlan transform;
  bool legal = false;
  int doall_loops = 0;
  i64 partition_classes = 1;
};

/// Where an inspected request's dynamic partition came from
/// (ExecReport::inspection).
enum class Inspection : std::uint8_t {
  kNone,         ///< not inspected: an affine nest on a static plan
  kFresh,        ///< inspected; no earlier inspection at these bounds
  kReused,       ///< the memoized partition: index arrays compared equal
  kReinspected,  ///< inspected after a mismatch with the memoized one
};

/// "none", "fresh", "reused" or "reinspected" (metric labels).
const char* inspection_name(Inspection i);

/// Outcome of execute()/check().
struct ExecReport {
  i64 iterations = 0;
  /// Of `iterations`, those the compiled postfix body ran column-wise: a
  /// kCompiled scan (or kJit's scan fallback) over a plan with a DOALL
  /// level (runtime::StreamExecutor::column_level). 0 under kInterpreter,
  /// on native leaves and on inspected requests.
  i64 column_iterations = 0;
  i64 tasks = 0;         ///< leaf descriptors
  i64 steals = 0;
  i64 inner_splits = 0;  ///< descriptor splits along inner DOALL axes
  i64 failed_steals = 0; ///< empty full steal sweeps
  i64 idle_ns = 0;       ///< summed worker idle time
  /// Worker contexts the run started: the resolved thread count, fewer
  /// when the plan seeded fewer unsplittable pieces, 1 when the lone piece
  /// ran on the calling thread. Run-level, like failed_steals and idle_ns:
  /// a batch reports its shared run's value on every request.
  i64 workers_used = 0;
  /// execute(): the call's wall time; a batch request: its completion time
  /// (run start -> its last descriptor retired).
  i64 wall_ns = 0;
  /// execute(): the phase breakdown of wall_ns (obs::PhaseScope) — executor
  /// construction (rewrite + hull + kernel build), C emission, cc + dlopen,
  /// and the workers' run. Phases absent from a call are 0 (analyze_ns on
  /// an executable-memo hit, for one); the sum can fall short of wall_ns by
  /// unattributed glue (store digest, memo lookup, dispatch). A batch
  /// request reports exec_ns only: wall_ns minus queue_ns.
  i64 analyze_ns = 0;
  i64 codegen_ns = 0;
  i64 jit_compile_ns = 0;
  i64 exec_ns = 0;
  /// Run start -> this request's first descriptor starts executing (time
  /// queued behind the rest of a batch; seeding alone for execute()).
  i64 queue_ns = 0;
  /// Inspected requests only (ExecBackend::kInspector or the automatic
  /// non-affine fallback, single or batched): this request's time in the
  /// inspect phase — the compare against the memoized partition, plus the
  /// inspection when one ran — and the shape of the partition it ran.
  i64 inspect_ns = 0;
  i64 inspector_classes = 0;        ///< partition classes (all components)
  i64 inspector_chains = 0;         ///< components with >= 2 iterations
  i64 inspector_max_component = 0;  ///< largest component size
  i64 inspector_dependent = 0;      ///< iterations in >= 2 components
  i64 checksum = 0;      ///< final store digest
  bool verified = false; ///< true when produced by check()
  bool inspector = false; ///< true when the inspector–executor ran the loop
  /// Where the partition came from; kNone exactly when !inspector.
  Inspection inspection = Inspection::kNone;
  bool jit = false;      ///< true when a native kernel ran the bodies
  /// True when the native kernel was the verified steady-state partitioned
  /// variant (analysis::KernelVerifier admitted it); false for the clamped
  /// kernel, including verifier-forced fallbacks.
  bool jit_partitioned = false;
};

struct BatchRequest;  // api/batch.h

namespace detail {
class Executable;    // api/executable.h
struct BoundSource;  // api/executable.h
/// The one request runner (api/batch.cpp), behind execute() and every
/// execute_batch overload: binds every request, drives them all in one
/// descriptor-driver run and fills one report per request. Errors carry
/// the failing request's index and an unprefixed message.
Expected<std::vector<ExecReport>> run_requests(
    std::span<const BatchRequest> requests, const ExecPolicy& policy,
    vdep::ThreadPool* pool);
}  // namespace detail

/// The cached unit: fingerprint + the two structure-only stages, plus three
/// bounds-level memos — emitted C, loaded native kernels and executables
/// (an inspected nest's last partition among them) — each keyed by the
/// bounds rendering plus the options that shape its entry. Immutable after
/// construction except those memos (one mutex), so one instance is safely
/// shared across threads and cache handles. Memo
/// entries live as long as the artifact: the plan-cache LRU evicts them
/// with it.
class PlanArtifact {
 public:
  PlanArtifact(Fingerprint fp, LoopAnalysis analysis, LoopPlan plan)
      : fp_(std::move(fp)),
        analysis_(std::move(analysis)),
        plan_(std::move(plan)) {}

  const Fingerprint& fingerprint() const { return fp_; }
  const LoopAnalysis& analysis() const { return analysis_; }
  const LoopPlan& plan() const { return plan_; }

  /// Emitted C for `nest` under `opts`; computed on first request and
  /// memoized. `nest` must carry this artifact's structure (bounds are the
  /// point of the parameter: they only exist at the handle, not here).
  const std::string& codegen(const loopir::LoopNest& nest,
                             const CodegenOptions& opts) const;

  /// Native kernel for `nest` under `opts`: emitted, toolchain-compiled
  /// and dlopen-ed on first request, then memoized per (bounds, options)
  /// beside the codegen memo — a plan-cache hit at the same bounds reuses
  /// the already-loaded .so, and new bounds only re-run emission + cc,
  /// never the analysis. Errors (kUnsupported) when no toolchain exists
  /// or an affine nest fails the subscript range proof (an indirect
  /// nest's row kernel has no build-time proof: inspection precedes each
  /// of its runs). Deterministic failures
  /// (proof, cc error) are memoized per key like successes; the
  /// no-toolchain answer is not, so an environment that gains a compiler
  /// starts JITting without a new session.
  Expected<std::shared_ptr<const jit::NativeKernel>> jit_kernel(
      const loopir::LoopNest& nest, const jit::JitOptions& opts) const;

  /// The executable memo (api/executable.h), affine entries: the
  /// StreamExecutor for `nest` at `threads` workers under `policy` (its
  /// compiled body built with it), plus the lazily loaded (kJit) native
  /// kernel. Built on
  /// first request (an executor-build span), shared by single execute()
  /// and execute_batch().
  std::shared_ptr<const detail::Executable> executable(
      const loopir::LoopNest& nest, const ExecPolicy& policy,
      std::size_t threads) const;

 private:
  friend class CompiledLoop;

  /// The executable memo's key of an affine entry: `threads` (the grain
  /// depends on it) and policy.grain(), then inspected_key(). The per-run
  /// switches (trace, metrics, pin_workers) are not part of it: every run
  /// takes them from its own policy.
  static std::string executable_key(const loopir::LoopNest& nest,
                                    const ExecPolicy& policy,
                                    std::size_t threads);
  /// The key of an inspected entry: backend() — plus jit_options() under
  /// kJit — and the bounds rendering. A partition depends on neither the
  /// worker count nor the grain, so requests at any of them share one
  /// entry; each takes its grain from its own policy
  /// (InspectorExecutor::source).
  static std::string inspected_key(const loopir::LoopNest& nest,
                                   const ExecPolicy& policy);
  /// The entry at `key`, or null. Inspected entries (CompiledLoop::bind)
  /// are read here and replaced with publish_executable: each is the last
  /// inspection that succeeded at its key, valid for any store whose
  /// index arrays equal the ones it read.
  std::shared_ptr<const detail::Executable> find_executable(
      const std::string& key) const;
  /// Makes `entry` the one at `key`, in place of any earlier one; requests
  /// already holding the old entry keep it until they finish.
  void publish_executable(
      std::string key, std::shared_ptr<const detail::Executable> entry) const;

  Fingerprint fp_;
  LoopAnalysis analysis_;
  LoopPlan plan_;

  mutable std::mutex memo_mu_;
  mutable std::map<std::string, std::string> codegen_memo_;
  mutable std::map<std::string, std::shared_ptr<const jit::NativeKernel>>
      jit_memo_;
  mutable std::map<std::string, ApiError> jit_fail_memo_;
  mutable std::map<std::string, std::shared_ptr<const detail::Executable>>
      exec_memo_;
};

// ----------------------------------------------------------------- handle

class CompiledLoop {
 public:
  /// Binds a shared artifact to a concrete bounded nest. Normally obtained
  /// from Compiler::compile(), not constructed directly.
  CompiledLoop(std::shared_ptr<const PlanArtifact> artifact,
               loopir::LoopNest nest)
      : art_(std::move(artifact)),
        nest_(std::make_shared<const loopir::LoopNest>(std::move(nest))) {}

  const loopir::LoopNest& nest() const { return *nest_; }
  const Fingerprint& fingerprint() const { return art_->fingerprint(); }

  /// Stage accessors (cached, shared across every handle of the structure).
  const LoopAnalysis& analysis() const { return art_->analysis(); }
  const LoopPlan& plan() const { return art_->plan(); }

  /// Lazily emitted C for this handle's bounds, memoized per option set:
  /// the JIT's clamped range kernel plus a driver and main
  /// (codegen/emit_c.h). Throws PreconditionError for an indirect nest.
  const std::string& codegen(const CodegenOptions& opts = {}) const {
    return art_->codegen(*nest_, opts);
  }

  /// Stage 5 — the JIT: a native range kernel for this handle's bounds —
  /// or, for an indirect nest, the row kernel its inspector leaves run —
  /// lazy and memoized in the shared artifact (same .so for every handle
  /// at these bounds; recompiling the structure is a plan-cache hit, so
  /// the toolchain cost amortizes exactly like codegen). Errors
  /// (kUnsupported) when no C toolchain is on PATH / $VDEP_CC, the host
  /// cannot dlopen, or an affine nest fails the subscript range proof —
  /// execute() with ExecBackend::kJit degrades to the scan path (the
  /// CompiledKernel leaves, for an indirect nest) instead.
  Expected<std::shared_ptr<const jit::NativeKernel>> jit(
      const jit::JitOptions& opts = {}) const {
    return art_->jit_kernel(*nest_, opts);
  }

  /// Parallelism of this handle's bounded space: independent work items,
  /// longest item, total iterations (counting scan, O(1) memory).
  exec::RunStats measure() const;

  /// Rebinds the cached plan to different bounds without re-analysis.
  /// Errors (kPrecondition) when `bounds` has a different structure.
  Expected<CompiledLoop> at(const loopir::LoopNest& bounds) const;

  /// Runs the plan over `store` (which must have been built for nest()) as
  /// a batch of one. Affine nests resolve their executor through the
  /// artifact's executable memo (PlanArtifact::executable); the policy's
  /// trace/metrics/pin_workers apply to this run whatever run built the
  /// memo entry.
  Expected<ExecReport> execute(const ExecPolicy& policy,
                               exec::ArrayStore& store) const;
  /// Same, reusing a long-lived pool for the workers.
  Expected<ExecReport> execute(const ExecPolicy& policy,
                               exec::ArrayStore& store,
                               vdep::ThreadPool& pool) const;

  /// Batch execution, same structure at many bounds: takes the shared
  /// artifact to every entry of `bounds` (CompiledLoop::at semantics —
  /// errors kPrecondition with the entry's index when a nest has a
  /// different structure), allocates a pattern-filled store per request
  /// and runs all of them over ONE shared worker set: every request's
  /// descriptors interleave in the same work-stealing deques
  /// (runtime/driver.h, one source per request), so the batch — not any
  /// single request — feeds the workers, and the fork/join cost is paid
  /// once. Reports are per request (iterations, steals, completion time,
  /// checksum of the request's final store).
  Expected<std::vector<ExecReport>> execute_batch(
      std::span<const loopir::LoopNest> bounds,
      const ExecPolicy& policy = {}) const;
  Expected<std::vector<ExecReport>> execute_batch(
      std::span<const loopir::LoopNest> bounds, const ExecPolicy& policy,
      vdep::ThreadPool& pool) const;

  /// Batch execution, one bounds at many data sets (the serving hot case):
  /// every store must have been built for nest(). Caller keeps ownership.
  Expected<std::vector<ExecReport>> execute_batch(
      std::span<exec::ArrayStore* const> stores,
      const ExecPolicy& policy = {}) const;
  Expected<std::vector<ExecReport>> execute_batch(
      std::span<exec::ArrayStore* const> stores, const ExecPolicy& policy,
      vdep::ThreadPool& pool) const;

  /// Executes the plan and the sequential reference from the same
  /// deterministic initial store; errors (kInternal) on any bitwise
  /// divergence. The returned report has verified = true.
  Expected<ExecReport> check(const ExecPolicy& policy = {}) const;
  Expected<ExecReport> check(const ExecPolicy& policy,
                             vdep::ThreadPool& pool) const;

  /// Multi-section human-readable report of all stages.
  std::string summary() const;

 private:
  Expected<ExecReport> execute_impl(const ExecPolicy& policy,
                                    exec::ArrayStore& store,
                                    vdep::ThreadPool* pool) const;
  Expected<ExecReport> check_impl(const ExecPolicy& policy,
                                  vdep::ThreadPool* pool) const;
  /// This request over `store` as one driver source: the memoized
  /// executable; or (non-affine nest, kInspector) the memoized partition
  /// when it proves for `store`, else a new inspection of `store`
  /// published in its place, and, under kJit, the row kernel, fetched only
  /// once an inspection at these bounds succeeded.
  detail::BoundSource bind(const ExecPolicy& policy, std::size_t threads,
                           exec::ArrayStore& store,
                           vdep::ThreadPool* pool) const;
  friend Expected<std::vector<ExecReport>> detail::run_requests(
      std::span<const BatchRequest> requests, const ExecPolicy& policy,
      vdep::ThreadPool* pool);

  std::shared_ptr<const PlanArtifact> art_;
  std::shared_ptr<const loopir::LoopNest> nest_;
};

}  // namespace vdep
