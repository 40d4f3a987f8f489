// The executable memo's entries: the bounds-level execution state of one
// PlanArtifact at one (bounds, execution options) key, built once and
// shared by every later single execute() and execute_batch() request at
// that key (PlanArtifact::executable).
//
// The structure-level stages (PDM, plan) are per artifact; everything that
// depends on bounds but not on data lives here: the StreamExecutor (the
// rewritten nest, the Fourier–Motzkin hull, the grain for the worker
// count), the scan-path CompiledKernel prototype (its range proof depends
// only on bounds and array shapes for affine nests) and, for kJit, the
// loaded native kernel. A warm request therefore renders its key once and
// binds: it builds no executor and proves no kernel. Inspected requests
// never get here — their partition covers index-array contents, which
// change per request.
//
// Internal to the API layer (api/compiled_loop.cpp, api/batch.cpp).
#pragma once

#include <memory>
#include <mutex>

#include "api/compiled_loop.h"
#include "exec/compiled.h"
#include "inspect/executor.h"
#include "runtime/stream_executor.h"

namespace vdep::detail {

class Executable {
 public:
  /// Builds the executor for `nest` (the executor keeps its own copy, which
  /// the prototype and native kernel below are compiled from).
  Executable(const loopir::LoopNest& nest, const trans::TransformPlan& plan,
             const runtime::StreamOptions& opts)
      : executor_(nest, plan, opts) {}

  Executable(const Executable&) = delete;
  Executable& operator=(const Executable&) = delete;

  const runtime::StreamExecutor& executor() const { return executor_; }

  /// kJit: the native kernel, resolved through `art`'s .so memo on first
  /// use and kept; null when the JIT is unavailable for this nest. A null
  /// answer is not kept, so a host that gains a toolchain starts running
  /// native (the .so memo already remembers deterministic failures).
  std::shared_ptr<const jit::NativeKernel> native(
      const PlanArtifact& art, const jit::JitOptions& opts) const;

  /// The scan-path prototype, compiled against `store` the first time it
  /// is asked for (the one range proof of this entry); later callers get
  /// the same kernel and rebind it onto their own store. Null when the
  /// proof refused the nest; StreamExecutor::source then tries the proof
  /// against the request's own store and interprets when it refuses too.
  const exec::CompiledKernel* scan_prototype(exec::ArrayStore& store) const;

 private:
  runtime::StreamExecutor executor_;
  mutable std::mutex mu_;  ///< guards the three lazily set fields below
  mutable std::shared_ptr<const jit::NativeKernel> native_;
  mutable std::unique_ptr<const exec::CompiledKernel> prototype_;
  mutable bool proved_ = false;  ///< the prototype's proof has run
};

/// One request bound for a run (CompiledLoop::bind): the driver source
/// over the request's store, plus what that source needs alive until the
/// run ends — an affine request's executable, or an inspected request's
/// partition and executor.
struct BoundSource {
  std::shared_ptr<const Executable> executable;
  std::unique_ptr<const inspect::DynamicPartition> partition;
  std::unique_ptr<const inspect::InspectorExecutor> inspector;
  /// Non-null when the source's leaves run a native kernel.
  std::shared_ptr<const jit::NativeKernel> native;
  runtime::DriveSource source;
};

/// Worker contexts of a run under `policy`: policy.threads(), else the
/// pool's size, else the hardware concurrency.
std::size_t worker_count(const ExecPolicy& policy, const ThreadPool* pool);

/// The policy's per-run switches (tracing, metrics, pinning), which never
/// enter the memo key.
inline runtime::RunSwitches run_switches(const ExecPolicy& policy) {
  return {policy.trace(), policy.metrics(), policy.pin_workers()};
}

}  // namespace vdep::detail
