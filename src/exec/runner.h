// Schedules of a transformation plan, materialized or counted.
//
// A plan's parallel structure is flattened into *work items*: one item per
// (outer DOALL index combination) x (partition class). Items are mutually
// independent — Lemma 1 for the DOALL dimensions, Theorem 2 for the classes
// — and each item runs its iterations sequentially in transformed
// lexicographic order, which Theorem 1 certified to preserve the dependent
// order of the original loop.
//
// build_schedule stores every iteration vector of every item — O(total
// iterations x depth) memory — which is what exec::verify_schedule needs to
// inspect a schedule structurally, and what the tests use as an oracle.
// Plans run through runtime::StreamExecutor (runtime/stream_executor.h),
// which covers the same work-item rectangle with O(active descriptors)
// state and work stealing.
#pragma once

#include "codegen/rewrite.h"
#include "exec/interpreter.h"

namespace vdep::exec {

/// A parallel schedule over *original* iteration vectors.
struct Schedule {
  /// items[k] = ordered iterations of work item k (sequential within).
  std::vector<std::vector<Vec>> items;

  i64 total_iterations() const;
  i64 max_item_size() const;
  /// Number of nonempty independent units — the exploited parallelism.
  i64 parallelism() const;
};

/// Materializes the schedule induced by `plan` on `original`'s space.
/// Empty (class x prefix) combinations are dropped.
Schedule build_schedule(const loopir::LoopNest& original,
                        const trans::TransformPlan& plan);

struct RunStats {
  i64 work_items = 0;
  i64 iterations = 0;
  i64 max_item = 0;
};

/// Same counts build_schedule + Schedule accessors would report (nonempty
/// work items, total iterations, longest item) but computed by scanning,
/// O(1) memory — safe at sizes where materializing the schedule is not.
RunStats measure_schedule(const loopir::LoopNest& original,
                          const trans::TransformPlan& plan);

/// Executes `plan` serially in schedule order (item by item), the
/// scheduling-order check without threads.
RunStats run_scheduled_serial(const loopir::LoopNest& original,
                              const trans::TransformPlan& plan,
                              ArrayStore& store);

}  // namespace vdep::exec
