// Descriptor-granularity kernel interface of the streaming runtime, plus
// what every compiled body shares: the range proof and the buffer table.
//
// The scan path (runtime::StreamExecutor + exec::CompiledKernel) regenerates
// iterations in C++ and runs each one through the compiled body. A
// RangeKernel instead owns a *whole* leaf iteration box
//
//     [lo_0, hi_0] x ... x [lo_{ndims-1}, hi_{ndims-1}]
//                                       x  [class_lo, class_hi)
//
// of a runtime::TaskDescriptor: bounds evaluation over every DOALL-prefix
// dimension (each intersected with its box range), the Theorem-2 strided
// class scan and the statement bodies all execute inside one call, which is
// what lets a dlopen-ed native kernel (jit::NativeKernel) run descriptor
// leaves with zero per-iteration dispatch. Legality (Lemma 1 x Theorem 2)
// makes disjoint boxes write disjoint cells, so concurrent calls on one
// shared store are safe.
#pragma once

#include "exec/array_store.h"

namespace vdep::exec {

/// Borrowed view of one descriptor's geometry: `ndims` inclusive ranges
/// over the transformed DOALL-prefix dimensions (outermost first) plus the
/// half-open class range. DOALL dimensions beyond `ndims` — when a plan has
/// more than the descriptor cap — scan their full bounds. `lo`/`hi` must
/// stay alive for the duration of the call and may be null when ndims == 0.
struct IterBox {
  const i64* lo = nullptr;
  const i64* hi = nullptr;
  i64 ndims = 0;
  i64 class_lo = 0;
  i64 class_hi = 1;
};

/// One store's buffers in its nest's declaration order, each checked
/// against its declared size (PreconditionError), so a body proven against
/// the declared dims stays inside the store. Read-only once built: every
/// worker of a run shares one. The store must outlive it, unresized.
class BufferTable {
 public:
  BufferTable(const loopir::LoopNest& nest, ArrayStore& store);

  /// Buffer k is the nest's k-th ArrayDecl's.
  i64* const* data() const { return bufs_.data(); }
  std::size_t size() const { return bufs_.size(); }

 private:
  std::vector<i64*> bufs_;
};

class RangeKernel {
 public:
  virtual ~RangeKernel() = default;

  /// Executes every iteration of the descriptor box over the store `bufs`
  /// binds and returns the number of iterations run. Must be safe to call
  /// concurrently for disjoint boxes.
  virtual i64 execute_range(const BufferTable& bufs,
                            const IterBox& box) const = 0;
};

/// The rectangular hull of a bounded nest's iteration space: each loop
/// index's [min, max], outermost first.
using IterationBox = std::vector<std::pair<i64, i64>>;

/// [min, max] of affine `e` over `box` (checked: OverflowError).
std::pair<i64, i64> affine_range(const loopir::AffineExpr& e,
                                 const IterationBox& box);

/// The one subscript range proof, run by the JIT's range kernels and by
/// exec::CompiledKernel, over the rectangular hull of `nest`'s iteration
/// space (returned): every affine subscript's extremes lie in its declared
/// dim, every indirect position (p of A[B[p]]) in B's. It depends on the
/// bounded nest alone; the index values are CompiledKernel::bind's to
/// check. Throws UnsupportedError when a check fails or a loop is
/// unbounded, OverflowError when an extreme leaves int64.
IterationBox prove_subscript_ranges(const loopir::LoopNest& nest);

}  // namespace vdep::exec
