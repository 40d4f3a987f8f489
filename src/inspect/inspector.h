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
// write of A[B[i]]) are resolved once. Pass 1 range-checks every access,
// records the cell of each tracked (written-array) access in one flat
// vector of n x distinct tracked accesses, and marks the written cells;
// pass 2 reads only that vector and unions every toucher of a written cell
// with that cell's first toucher. Memory beyond the store is the table,
// that cell vector (whose pages the class members reuse), the coordinate
// rows and the class arrays. Cost is O(accesses x alpha) with one table
// load per access — not the O(n^2) all-pairs walk of the brute-force
// exec::build_isdg, which remains the ground truth the inspector is tested
// against.
#pragma once

#include "exec/array_store.h"

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

/// The inspector's product: every iteration of the bounded space, grouped
/// into dependence components ("classes"). Classes are numbered by the
/// lexicographic rank of their first iteration; members of a class are
/// stored in lexicographic order, so executing a class front-to-back
/// replays the sequential order restricted to that class.
class DynamicPartition {
 public:
  int depth() const { return depth_; }
  i64 size() const { return static_cast<i64>(class_of_.size()); }
  i64 num_classes() const { return static_cast<i64>(offsets_.size()) - 1; }
  const InspectStats& stats() const { return stats_; }

  i64 class_size(i64 c) const { return offset(c + 1) - offset(c); }
  /// Class id of iteration rank `it` (lexicographic enumeration order).
  i64 class_of(i64 it) const { return class_of_[static_cast<std::size_t>(it)]; }
  /// Coordinates of iteration rank `it`, written into `out`.
  void coords_of(i64 it, Vec& out) const;

  /// Visits every iteration of class `c` in lexicographic order; `iter` is
  /// a scratch vector reused across calls (resized to depth()).
  template <typename Fn>
  void for_each_class_iteration(i64 c, Vec& iter, Fn&& fn) const {
    for (i64 m = offset(c); m < offset(c + 1); ++m) {
      coords_of(members_[static_cast<std::size_t>(m)], iter);
      fn(static_cast<const Vec&>(iter));
    }
  }

 private:
  friend DynamicPartition inspect(const loopir::LoopNest& nest,
                                  const exec::ArrayStore& store);

  i64 offset(i64 c) const { return offsets_[static_cast<std::size_t>(c)]; }

  int depth_ = 0;
  std::vector<i64> coords_;    ///< flattened iteration coords, size N*depth
  std::vector<i64> class_of_;  ///< iteration rank -> class id
  std::vector<i64> members_;   ///< iteration ranks grouped by class
  std::vector<i64> offsets_;   ///< CSR offsets into members_, size K+1
  InspectStats stats_;
};

/// Inspects `nest` at its current bounds against `store` (which must hold
/// the index arrays for any indirect subscript; index arrays are read-only
/// by LoopNest::validate, so the partition stays valid while the executor
/// mutates data arrays). Throws PreconditionError when a subscript leaves
/// its declared range — the same condition sequential execution would trip
/// on, detected before any write happens.
DynamicPartition inspect(const loopir::LoopNest& nest,
                         const exec::ArrayStore& store);

}  // namespace vdep::inspect
