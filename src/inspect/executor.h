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
//     slot range in one call (NativeKernel::execute_rows), reading the
//     partition's slot-order rows and its resolved-subscript table front to
//     back: an indirect reference is one table load, not an index-array
//     load. It indexes buffers unchecked, which is sound only because
//     inspect() range-checked every access of every row, and computed every
//     table entry, against index arrays equal, byte for byte, to this
//     store's (DynamicPartition::prove; index arrays are read-only).
//   * compiled (the default): the exec::CompiledKernel built with the
//     executor; each source binds it to the store (scanning the index
//     arrays) and each slot's row, walked as it lies, goes straight to
//     execute_row over the worker context's value stack.
//   * the exact interpreter, the reference: only under force_interpreter
//     (ExecBackend::kInterpreter) or when the proof or the binding refuses;
//     each row is copied into the worker context's scratch point.
// All three throw OverflowError on int64 overflow of body arithmetic.
// source() packages the body as one DriveSource with one leaf function,
// like StreamExecutor::source, so a batch drives inspected requests beside
// affine ones; a leaf borrows what it needs from its worker context's
// runtime::LeafScratch and builds nothing per worker. It takes the
// store as a ProvenStore, whatever the body: a partition is a schedule
// for the index contents it was inspected against, and for no other.
#pragma once

#include <memory>

#include "inspect/inspector.h"
#include "runtime/driver.h"

namespace vdep::exec {
class CompiledKernel;
}

namespace vdep::jit {
class NativeKernel;
}

namespace vdep::inspect {

struct InspectorExecOptions {
  /// Worker count; 0 means default_worker_count().
  std::size_t num_threads = 0;
  /// Classes per leaf descriptor; 0 picks it from the worker count
  /// (runtime/task.h pick_grain).
  i64 grain = 0;
  /// Run the exact interpreter instead of the compiled-kernel body
  /// (ExecBackend::kInterpreter, tests).
  bool force_interpreter = false;
  /// Tracing, metrics and worker pinning of run().
  runtime::RunSwitches switches;
};

class InspectorExecutor {
 public:
  /// `partition` must come from inspect() on `nest` at the same bounds and
  /// the same index-array contents, and must outlive the executor.
  InspectorExecutor(const loopir::LoopNest& nest,
                    const DynamicPartition& partition,
                    InspectorExecOptions opts = {});

  /// runtime::drive(source(*partition.prove(store))): throws
  /// PreconditionError when the partition does not hold for `store`; leaf
  /// errors rethrow. With `pool`, the proof's compare is split across it
  /// at this executor's worker count (DynamicPartition::prove) and every
  /// slice passes before any leaf starts.
  runtime::RuntimeStats run(exec::ArrayStore& store) const;
  runtime::RuntimeStats run(exec::ArrayStore& store, ThreadPool& pool) const;

  /// Every class over the proven store as one driver source: root(), the
  /// grain and the leaves — `native` (the nest's row kernel,
  /// ExecBackend::kJit) when set, else the compiled or interpreted body
  /// above. The grain is this executor's own unless `threads` is set: then
  /// it is the grain of a request at `threads` workers and `grain` (0
  /// picks it from the worker count), so one executor serves requests at
  /// any worker count. Throws PreconditionError when `proven` is another
  /// partition's proof. The index arrays must keep the contents prove()
  /// compared; the store, `native`, the partition and this executor
  /// outlive the run.
  runtime::DriveSource source(const ProvenStore& proven,
                              const jit::NativeKernel* native = nullptr,
                              std::size_t threads = 0, i64 grain = 0) const;

  /// The nest this executor runs (its own copy).
  const loopir::LoopNest& nest() const { return nest_; }

  /// The root descriptor: the full class range, no boxed dims.
  runtime::TaskDescriptor root() const;

 private:
  /// `grain`, or the grain pick_grain gives the classes at `threads`.
  i64 leaf_grain(std::size_t threads, i64 grain) const;

  loopir::LoopNest nest_;
  const DynamicPartition* part_;
  InspectorExecOptions opts_;
  std::size_t threads_ = 1;
  i64 grain_ = 1;
  /// The compiled body (owns its nest); null when interpreting.
  std::shared_ptr<const exec::CompiledKernel> body_;
};

}  // namespace vdep::inspect
