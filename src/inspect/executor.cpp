#include "inspect/executor.h"

#include <algorithm>
#include <memory>

#include "exec/compiled.h"
#include "exec/interpreter.h"
#include "jit/native_kernel.h"
#include "support/error.h"
#include "support/thread_pool.h"

namespace vdep::inspect {

InspectorExecutor::InspectorExecutor(const loopir::LoopNest& nest,
                                     const DynamicPartition& partition,
                                     InspectorExecOptions opts)
    : nest_(nest), part_(&partition), opts_(opts) {
  VDEP_REQUIRE(nest_.depth() == part_->depth(),
               "partition depth / nest depth mismatch");
  threads_ = opts_.num_threads != 0
                 ? opts_.num_threads
                 : default_worker_count();
  grain_ = leaf_grain(threads_, opts_.grain);
  if (!opts_.force_interpreter)
    body_ = exec::CompiledKernel::try_compile(nest_);
}

i64 InspectorExecutor::leaf_grain(std::size_t threads, i64 grain) const {
  return grain > 0 ? grain
                   : runtime::pick_grain(std::max<i64>(part_->num_classes(), 1),
                                         threads);
}

runtime::TaskDescriptor InspectorExecutor::root() const {
  runtime::TaskDescriptor rt;
  rt.ndims = 0;
  rt.class_lo = 0;
  rt.class_hi = part_->num_classes();
  return rt;
}

runtime::DriveSource InspectorExecutor::source(
    const ProvenStore& proven, const jit::NativeKernel* native,
    std::size_t threads, i64 grain) const {
  // The schedule, and the row kernel's unchecked accesses, hold only for
  // index arrays equal to the ones this partition was inspected against.
  VDEP_REQUIRE(&proven.partition() == part_,
               "the store was proven for another partition");
  exec::ArrayStore& store = proven.store();
  // One buffer table per source, shared by every worker. The native body
  // needs no index scan (inspection checked its rows); the compiled body's
  // scan may refuse a value no iteration reaches — that store interprets.
  std::shared_ptr<const exec::BufferTable> bufs;
  const exec::CompiledKernel* body = nullptr;
  if (native) {
    bufs = std::make_shared<const exec::BufferTable>(nest_, store);
  } else if (body_) {
    try {
      bufs = std::make_shared<const exec::BufferTable>(body_->bind(store));
      body = body_.get();
    } catch (const PreconditionError&) {
      // The index scan refused: interpret instead.
    }
  }

  // A class range [lo, hi) is the contiguous member slots
  // [offset(lo), offset(hi)), whose rows and resolved offsets lie in slot
  // order: the native body takes them in one call, the compiled body
  // walks the rows as they lie, the interpreter copies each into the
  // context's scratch point.
  const DynamicPartition* part = part_;
  runtime::DriveSource src{
      root(), threads != 0 ? leaf_grain(threads, grain) : grain_, {}, {}, {},
      {}};
  if (native) {
    src.leaf = [native, bufs, part](const runtime::TaskDescriptor& task,
                                    runtime::WorkerStats& stats,
                                    runtime::LeafScratch&) {
      const i64 m_lo = part->offset(task.class_lo);
      const i64 m_hi = part->offset(task.class_hi);
      stats.iterations += m_hi - m_lo;
      if (native->execute_rows(*bufs, part->rows(), part->resolved(),
                               part->depth(), m_lo, m_hi) < 0)
        throw OverflowError("int64 overflow in the native row kernel");
    };
  } else if (body) {
    src.scratch.stack = body->stack_slots();
    src.leaf = [body, bufs, part](const runtime::TaskDescriptor& task,
                                  runtime::WorkerStats& stats,
                                  runtime::LeafScratch& scratch) {
      stats.iterations +=
          part->offset(task.class_hi) - part->offset(task.class_lo);
      part->for_each_row(task.class_lo, task.class_hi, [&](const i64* row) {
        body->execute_row(*bufs, row, scratch.kernel);
      });
    };
  } else {
    src.scratch.depth = part->depth();
    src.leaf = [nest = &nest_, st = &store, part](
                   const runtime::TaskDescriptor& task,
                   runtime::WorkerStats& stats,
                   runtime::LeafScratch& scratch) {
      stats.iterations +=
          part->offset(task.class_hi) - part->offset(task.class_lo);
      Vec& iter = scratch.point;
      iter.resize(static_cast<std::size_t>(part->depth()));
      part->for_each_row(task.class_lo, task.class_hi, [&](const i64* row) {
        std::copy(row, row + iter.size(), iter.begin());
        exec::execute_iteration(*nest, iter, *st);
      });
    };
  }
  return src;
}

namespace {

ProvenStore prove_or_throw(const DynamicPartition& part,
                           exec::ArrayStore& store, ThreadPool* pool,
                           std::size_t threads) {
  std::optional<ProvenStore> proven = part.prove(store, pool, threads);
  VDEP_REQUIRE(proven, "the store's index arrays differ from the ones the "
                       "partition was inspected against");
  return *proven;
}

}  // namespace

runtime::RuntimeStats InspectorExecutor::run(exec::ArrayStore& store) const {
  return runtime::drive(source(prove_or_throw(*part_, store, nullptr, 1)),
                        {threads_, opts_.switches});
}

runtime::RuntimeStats InspectorExecutor::run(exec::ArrayStore& store,
                                             ThreadPool& pool) const {
  return runtime::drive(source(prove_or_throw(*part_, store, &pool, threads_)),
                        {threads_, opts_.switches}, &pool);
}

}  // namespace vdep::inspect
