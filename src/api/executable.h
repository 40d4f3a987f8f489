// The executable memo's entries: the bounds-level execution state of one
// PlanArtifact at one (bounds, execution options) key, shared by every
// later single execute() and execute_batch() request at that key
// (PlanArtifact::executable).
//
// The structure-level stages (PDM, plan) are per artifact; everything that
// depends on bounds lives here. An affine entry is built once and holds
// what does not depend on data: the StreamExecutor (the rewritten nest,
// the Fourier–Motzkin hull, the grain for the worker count, and its
// compiled body, whose range proof depends only on the bounded nest) and,
// for kJit, the loaded native kernel. A warm request therefore renders its
// key once and makes one binding of its store: it builds no executor and
// proves no kernel.
//
// An inspected entry (indirect nest, or kInspector) holds the last
// inspection at its key instead: the DynamicPartition (with its byte copy
// of every index array it read), its InspectorExecutor (with its compiled
// body) and, for kJit, the row kernel. Its key leaves out the worker count
// and grain, which a partition does not depend on
// (PlanArtifact::inspected_key). A request whose store the partition
// proves for (DynamicPartition::prove: index arrays equal byte for byte,
// every array at its inspected size) reuses it without inspecting; any
// other request inspects its store and publishes a new entry in place of
// the old one.
//
// Internal to the API layer (api/compiled_loop.cpp, api/batch.cpp).
#pragma once

#include <memory>
#include <mutex>
#include <optional>

#include "api/compiled_loop.h"
#include "inspect/executor.h"
#include "runtime/stream_executor.h"

namespace vdep::detail {

class Executable {
 public:
  /// An affine entry: builds the executor for `nest` (the executor keeps
  /// its own copy, which the native kernel below is compiled from).
  Executable(const loopir::LoopNest& nest, const trans::TransformPlan& plan,
             const runtime::StreamOptions& opts) {
    stream_.emplace(nest, plan, opts);
  }

  /// An inspected entry: `partition`, inspected on `nest` at this key's
  /// bounds, and its executor. The partition stays at its address, so a
  /// ProvenStore inspect() made for it still names it.
  Executable(const loopir::LoopNest& nest,
             std::unique_ptr<const inspect::DynamicPartition> partition,
             const inspect::InspectorExecOptions& opts)
      : partition_(std::move(partition)) {
    inspector_.emplace(nest, *partition_, opts);
  }

  Executable(const Executable&) = delete;
  Executable& operator=(const Executable&) = delete;

  /// Affine entries only.
  const runtime::StreamExecutor& executor() const { return *stream_; }
  /// Inspected entries only.
  const inspect::DynamicPartition& partition() const { return *partition_; }
  const inspect::InspectorExecutor& inspector() const { return *inspector_; }

  /// kJit: the native kernel — an affine entry's range kernel, an
  /// inspected entry's row kernel — resolved through `art`'s .so memo on
  /// first use and kept; null when the JIT is unavailable for this nest. A
  /// null answer is not kept, so a host that gains a toolchain starts
  /// running native (the .so memo already remembers deterministic
  /// failures).
  std::shared_ptr<const jit::NativeKernel> native(
      const PlanArtifact& art, const jit::JitOptions& opts) const;

 private:
  const loopir::LoopNest& nest() const {
    return stream_ ? stream_->nest() : inspector_->nest();
  }

  std::optional<runtime::StreamExecutor> stream_;
  std::unique_ptr<const inspect::DynamicPartition> partition_;
  std::optional<inspect::InspectorExecutor> inspector_;
  mutable std::mutex mu_;  ///< guards native_, set lazily
  mutable std::shared_ptr<const jit::NativeKernel> native_;
};

/// One request bound for a run (CompiledLoop::bind): the driver source
/// over the request's store, plus what that source needs alive until the
/// run ends — the memo entry it runs from, affine or inspected.
struct BoundSource {
  std::shared_ptr<const Executable> executable;
  /// Non-null when the source's leaves run a native kernel.
  std::shared_ptr<const jit::NativeKernel> native;
  runtime::DriveSource source;
  /// Where an inspected request's partition came from; kNone when affine.
  Inspection inspection = Inspection::kNone;
  /// This request's time in the inspect phase: the compare against the
  /// memoized partition, plus the inspection when it ran one.
  i64 inspect_ns = 0;
};

/// Worker contexts of a run under `policy`: policy.threads(), else the
/// pool's size, else default_worker_count().
std::size_t worker_count(const ExecPolicy& policy, const ThreadPool* pool);

/// The policy's per-run switches (tracing, metrics, pinning), which never
/// enter the memo key.
inline runtime::RunSwitches run_switches(const ExecPolicy& policy) {
  return {policy.trace(), policy.metrics(), policy.pin_workers()};
}

}  // namespace vdep::detail
