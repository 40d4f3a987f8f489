// The executor half of the inspector–executor pair: runs the classes of a
// DynamicPartition through the shared work-stealing descriptor driver
// (runtime/driver.h).
//
// The root descriptor is a pure class range [0, num_classes) — no boxed
// DOALL dimensions, because the inspector already flattened the space into
// components. Workers split the class range down to the grain and each
// leaf replays its classes' iterations in lexicographic order, which is
// legal because distinct components share no written cell (any ordering of
// classes gives a bit-identical store) and within a component every
// dependence points lexicographically forward.
//
// A leaf's class range is a contiguous run of member slots, and each leaf
// runs them through one of three bodies:
//   * native (ExecBackend::kJit): the nest's jit row kernel takes the whole
//     slot range in one call (NativeKernel::execute_rows). It indexes
//     buffers unchecked, which is sound only because inspect() range-checked
//     every access of every row against this very store before any write
//     (and index arrays are read-only), so the executor runs it only on the
//     store its partition was inspected against.
//   * compiled (the default): one shared exec::CompiledKernel, whose
//     indirect slots read the index buffers directly (proven in range at
//     construction); each member's row goes straight to execute_row.
//   * the exact interpreter, the reference: only under force_interpreter
//     (ExecBackend::kInterpreter) or when the kernel's proof refuses.
// All three throw OverflowError on int64 overflow of body arithmetic.
#pragma once

#include "inspect/inspector.h"
#include "runtime/driver.h"

namespace vdep::jit {
class NativeKernel;
}

namespace vdep::inspect {

struct InspectorExecOptions {
  /// Worker count; 0 means hardware concurrency.
  std::size_t num_threads = 0;
  /// Classes per leaf descriptor; 0 picks it from the worker count
  /// (runtime/task.h pick_grain).
  i64 grain = 0;
  /// Run the exact interpreter instead of the compiled-kernel body
  /// (ExecBackend::kInterpreter, tests).
  bool force_interpreter = false;
  /// ExecBackend::kJit: the nest's row kernel (NativeKernel::row_kernel()),
  /// which then runs every leaf. The caller keeps it alive; run() accepts
  /// it only for the store the partition was inspected against.
  const jit::NativeKernel* native = nullptr;
  /// Tracing, metrics and worker pinning of this executor's runs.
  runtime::RunSwitches switches;
};

class InspectorExecutor {
 public:
  /// `partition` must come from inspect() on `nest` at the same bounds and
  /// the same index-array contents, and must outlive the executor.
  InspectorExecutor(const loopir::LoopNest& nest,
                    const DynamicPartition& partition,
                    InspectorExecOptions opts = {});

  /// Runs every class over `store` through the native row kernel when one
  /// is set, else through a shared exec::CompiledKernel (per-worker
  /// scratch), indirect subscripts included; only a nest whose range proof
  /// the kernel refuses (or force_interpreter) runs through the exact
  /// interpreter. Every body throws OverflowError on int64 overflow. The
  /// index arrays must keep the contents inspect() saw.
  runtime::RuntimeStats run(exec::ArrayStore& store) const;
  runtime::RuntimeStats run(exec::ArrayStore& store, ThreadPool& pool) const;

  /// The root descriptor: the full class range, no boxed dims.
  runtime::TaskDescriptor root() const;
  i64 grain() const { return grain_; }
  std::size_t num_threads() const { return threads_; }

 private:
  runtime::RuntimeStats run_impl(exec::ArrayStore& store,
                                 ThreadPool* pool) const;

  loopir::LoopNest nest_;
  const DynamicPartition* part_;
  InspectorExecOptions opts_;
  std::size_t threads_ = 1;
  i64 grain_ = 1;
};

}  // namespace vdep::inspect
