// Runtime inspector: dependence components of a bounded iteration space,
// computed from the *actual* cells each iteration touches — including
// indirect subscripts (A[B[i]]) resolved against the index arrays in an
// ArrayStore.
//
// This is the inspector half of the classic inspector–executor pattern
// (Kale et al., arXiv:1311.2927): where the paper's static pipeline proves
// a residue-class partition from the PDM (Theorem 2), the inspector derives
// one at runtime from the weakly-connected components of the iteration-
// space dependence graph. Two iterations land in the same component exactly
// when a chain of touched-a-written-cell relations links them, so distinct
// components share no written cell and can run concurrently; within a
// component, original lexicographic order preserves every dependence.
//
// The builder is element-indexed and near-linear. It keeps one dense
// first-toucher table: an i64 slot per element of every array the body
// writes (read-only arrays carry no dependence and get no slots), so the
// table is never larger than the store already holds for those arrays.
// A slot is "never written", "written, no toucher yet", or the rank of the
// cell's first toucher. Textually identical references (the read and the
// write of A[B[i]]) are resolved once.
//
// The iteration rows are built first, in one direct pass over the outer
// levels (LoopNest::for_each_inner_range: innermost extents in closed
// form, no per-point callback). Then pass 1 runs on the shared
// work-stealing driver (runtime/driver.h) as one source whose class range
// is the rank range [0, n): each leaf range-checks every access of its
// ranks, stores the element offset of each indirect access and of each
// tracked (written-array) affine access into its ranks' slice of one
// n-record buffer, and marks the written cells (relaxed atomic stores of
// one shared value, so racing marks agree). Marks are made only for an
// array that is also read through a subscript that never writes; the
// slots of an array every access writes start "written, no toucher yet".
// One worker runs the same leaves on the caller. A bad subscript throws
// before pass 2, and the inspector never writes the store. Pass 2 is
// serial: it reads only those records and unions every toucher of a
// written cell with the cell's first toucher. When it
// makes no union the space is conflict-free and the partition is the
// identity (class c = iteration rank c): no class numbering, no class
// offsets.
//
// The partition is laid out for its executor to read front to back. Slot
// m's coordinates sit at rows() + m * depth(): class by class, each class
// in rank order. Beside them lies the resolved-subscript table: for every
// slot, the row-major element offset (from the declared lower bounds) of
// each of the nest's indirect references (LoopNest::indirect_refs(), in
// that order), taken from pass 1's range-checked cells. The native row
// kernel reads that table instead of the index arrays. Each pass-1 record
// holds the resolved offsets first, then the tracked affine cells; after
// pass 2 an identity partition keeps the records' first columns as the
// table, and any other partition scatters offsets and then rows into slot
// order, rebuilding each rank's coordinates with the odometer that made
// them, so the rank-order rows are freed first and never coexist with
// their copy. No slot-to-rank or rank-to-class array is kept.
//
// Memory beyond the store is the table, that record buffer, the slot rows,
// the resolved table, the class offsets and a byte copy of every index
// array. That copy is what lets a partition outlive its store:
// DynamicPartition::prove accepts any store whose index arrays equal it,
// so one inspection serves every later run over the same index contents
// (the API's executable memo keeps it per bounds). Cost is O(accesses x
// alpha) with one table load per access — not the O(n^2) all-pairs walk of
// the brute-force exec::build_isdg, which remains the ground truth the
// inspector is tested against.
//
// Soundness of the resolved table: inspection computes every offset with
// range checks (cell_offset), against index arrays that prove() shows are
// byte-equal to the store's, and LoopNest::validate makes index arrays
// read-only. So buffer[resolved offset] is the cell A[B[i]] names, on
// every store prove() accepts, for the whole run.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "exec/array_store.h"

namespace vdep {
class ThreadPool;
}

namespace vdep::inspect {

using intlin::i64;
using intlin::Vec;

/// Statistics of one inspection, surfaced through api::ExecReport and the
/// obs metrics/trace layers.
struct InspectStats {
  i64 iterations = 0;            ///< nodes of the inspected space
  i64 classes = 0;               ///< partition classes (= all components)
  i64 chains = 0;                ///< components with >= 2 iterations
  i64 max_component = 0;         ///< size of the largest component
  i64 dependent_iterations = 0;  ///< iterations in some >= 2 component
  i64 written_cells = 0;         ///< distinct cells written by the space
  i64 inspect_ns = 0;            ///< wall time spent inspecting
};

class DynamicPartition;

/// A store that a DynamicPartition holds for: made only by
/// DynamicPartition::prove, so whoever takes one (the executor's source)
/// knows the compare ran and passed, and by the in-place inspect(), whose
/// partition was just built from the store's own index arrays. It is
/// evidence about the store's contents at that moment: use it at once,
/// before anything can rewrite an index array.
class ProvenStore {
 public:
  exec::ArrayStore& store() const { return *store_; }
  const DynamicPartition& partition() const { return *part_; }

 private:
  friend class DynamicPartition;
  friend ProvenStore inspect(const loopir::LoopNest& nest,
                             exec::ArrayStore& store, DynamicPartition& out,
                             std::size_t threads, ThreadPool* pool);
  ProvenStore(exec::ArrayStore& store, const DynamicPartition& part)
      : store_(&store), part_(&part) {}

  exec::ArrayStore* store_;
  const DynamicPartition* part_;
};

/// The inspector's product: every iteration of the bounded space, grouped
/// into dependence components ("classes"). Classes are numbered by the
/// lexicographic rank of their first iteration; members of a class are
/// stored in lexicographic order, so executing a class front-to-back
/// replays the sequential order restricted to that class. The members of
/// a class range [lo, hi) occupy the contiguous member slots
/// [offset(lo), offset(hi)), and rows() and resolved() hold them in slot
/// order.
class DynamicPartition {
 public:
  int depth() const { return depth_; }
  i64 size() const { return stats_.iterations; }
  i64 num_classes() const { return stats_.classes; }
  const InspectStats& stats() const { return stats_; }
  /// No two iterations share a written cell (stats().chains == 0): every
  /// class is one iteration, class c is iteration rank c in slot c, and no
  /// class offsets are stored.
  bool identity() const { return stats_.chains == 0; }

  i64 class_size(i64 c) const { return offset(c + 1) - offset(c); }
  /// First member slot of class `c`; offset(num_classes()) == size().
  i64 offset(i64 c) const {
    return identity() ? c : offsets_[static_cast<std::size_t>(c)];
  }

  /// The coordinate rows in slot order: slot m's depth() values sit at
  /// rows() + m * depth(). Slot order is rank order for an identity
  /// partition.
  const i64* rows() const { return coords_.data(); }
  /// The resolved-subscript table in slot order: slot m's offsets sit at
  /// resolved() + m * resolved_width(), entry j the row-major element
  /// offset of LoopNest::indirect_refs()[j] at that iteration.
  const i64* resolved() const { return resolved_.data(); }
  /// Offsets per slot: the nest's distinct indirect references.
  int resolved_width() const { return width_; }
  /// The equality proof: `store` as a ProvenStore when every index array
  /// in it equals, byte for byte, the one inspect() read, and every array
  /// has the size inspect() saw; nullopt otherwise. Then this partition,
  /// its resolved table and pass 1's range check of every access hold for
  /// `store` as they did for the inspected one — whichever object it is.
  /// No hash stands in for the compare: the native row kernel indexes
  /// without checks, so only exact equality carries the range check over.
  /// With a `pool` and `threads` > 1 the compare runs as `threads`
  /// contiguous slices of every index image on the pool, else serially on
  /// the caller; any differing slice refuses, and the call returns only
  /// after every slice finished.
  /// Throws PreconditionError when `store` lacks one of the nest's arrays.
  std::optional<ProvenStore> prove(exec::ArrayStore& store,
                                   ThreadPool* pool = nullptr,
                                   std::size_t threads = 1) const;

  /// Calls fn(row) for every iteration of classes [lo, hi), class by class
  /// and each class in lexicographic order, walking rows() as they lie;
  /// `row` points at the iteration's depth() coordinates.
  template <typename Fn>
  void for_each_row(i64 lo, i64 hi, Fn&& fn) const {
    const i64* end = rows() + offset(hi) * depth_;
    for (const i64* row = rows() + offset(lo) * depth_; row != end;
         row += depth_)
      fn(row);
  }

 private:
  friend DynamicPartition inspect(const loopir::LoopNest& nest,
                                  const exec::ArrayStore& store,
                                  std::size_t threads, ThreadPool* pool);

  /// One array of the nest as inspect() saw it: its buffer size and, for
  /// an index array, a byte copy of its contents (empty otherwise).
  struct ArrayImage {
    std::string name;
    std::size_t size = 0;
    std::vector<i64> index;
  };

  int depth_ = 0;
  std::vector<ArrayImage> arrays_;  ///< what prove() compares against
  int width_ = 0;              ///< resolved offsets per slot
  std::vector<i64> coords_;    ///< slot-order iteration coords, N*depth
  std::vector<i64> resolved_;  ///< slot-order resolved offsets, N*width_
  /// First slot of each class, size num_classes() + 1; empty for an
  /// identity partition.
  std::vector<i64> offsets_;
  InspectStats stats_;
};

/// Inspects `nest` at its current bounds against `store` (which must hold
/// the index arrays for any indirect subscript; index arrays are read-only
/// by LoopNest::validate, so the partition stays valid while the executor
/// mutates data arrays, and holds for any store prove() accepts). Pass 1
/// runs on `threads` worker contexts of the shared driver — on `pool` when
/// given, else on the caller plus spawned helpers; 1 (the default) runs it
/// on the caller alone. The result does
/// not depend on `threads`. Throws PreconditionError when a subscript
/// leaves its declared range — the same condition sequential execution
/// would trip on, detected before any write happens.
DynamicPartition inspect(const loopir::LoopNest& nest,
                         const exec::ArrayStore& store,
                         std::size_t threads = 1, ThreadPool* pool = nullptr);

/// The same inspection, into `out` where it lies: `store` comes back as
/// proven for `out`, with no compare, since `out` copied its index arrays
/// from `store` a moment ago. `out` must stay where it is while the
/// evidence is used.
ProvenStore inspect(const loopir::LoopNest& nest, exec::ArrayStore& store,
                    DynamicPartition& out, std::size_t threads = 1,
                    ThreadPool* pool = nullptr);

}  // namespace vdep::inspect
