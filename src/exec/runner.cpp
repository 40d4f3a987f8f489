#include "exec/runner.h"

#include <algorithm>

#include "support/error.h"

namespace vdep::exec {

i64 Schedule::total_iterations() const {
  i64 n = 0;
  for (const auto& it : items) n += static_cast<i64>(it.size());
  return n;
}

i64 Schedule::max_item_size() const {
  i64 m = 0;
  for (const auto& it : items) m = std::max(m, static_cast<i64>(it.size()));
  return m;
}

i64 Schedule::parallelism() const {
  i64 p = 0;
  for (const auto& it : items)
    if (!it.empty()) ++p;
  return p;
}

namespace {

// Enumerate values of the leading `levels` loops of `nest` (bounds of level
// k may reference levels < k). Invokes fn with iter's prefix filled.
void enumerate_prefix(const loopir::LoopNest& nest, int levels, int k, Vec& iter,
                      const std::function<void(Vec&)>& fn) {
  if (k == levels) {
    fn(iter);
    return;
  }
  const loopir::Level& l = nest.level(k);
  i64 lo = l.lower.eval_lower(iter);
  i64 hi = l.upper.eval_upper(iter);
  for (i64 v = lo; v <= hi; ++v) {
    iter[static_cast<std::size_t>(k)] = v;
    enumerate_prefix(nest, levels, k + 1, iter, fn);
  }
  iter[static_cast<std::size_t>(k)] = 0;
}

// Enumerate the trailing dims [start, n) of `nest` in lex order (plain,
// unpartitioned).
void enumerate_tail(const loopir::LoopNest& nest, int start, int k, Vec& iter,
                    const std::function<void(const Vec&)>& fn) {
  if (k == nest.depth()) {
    fn(iter);
    return;
  }
  const loopir::Level& l = nest.level(k);
  i64 lo = l.lower.eval_lower(iter);
  i64 hi = l.upper.eval_upper(iter);
  for (i64 v = lo; v <= hi; ++v) {
    iter[static_cast<std::size_t>(k)] = v;
    enumerate_tail(nest, start, k + 1, iter, fn);
  }
  iter[static_cast<std::size_t>(k)] = 0;
}

using IterFn = std::function<void(const Vec&)>;
/// Streams one (prefix x class) unit's transformed points, in order,
/// through the function it is given.
using UnitRunner = std::function<void(const IterFn&)>;

// Single source of truth for the schedule's unit structure: invokes `unit`
// once per (outer DOALL prefix) x (partition class) combination of `nest`
// (the *transformed* nest); the consumer decides whether to materialize,
// count, or drop each unit. build_schedule and measure_schedule must agree
// on this enumeration, so they both go through here.
void for_each_unit(const loopir::LoopNest& nest,
                   const trans::TransformPlan& plan,
                   const std::function<void(const UnitRunner&)>& unit) {
  int n = nest.depth();
  int nd = plan.num_doall;
  Vec iter(static_cast<std::size_t>(n), 0);
  enumerate_prefix(nest, nd, 0, iter, [&](Vec& prefix_iter) {
    if (plan.partition.has_value()) {
      const trans::Partitioning& part = *plan.partition;
      VDEP_CHECK(nd + part.dim() == n, "plan shape inconsistent");
      for (i64 id = 0; id < part.num_classes(); ++id) {
        unit([&](const IterFn& fn) {
          part.for_each_class_iteration_from(nest, nd, part.class_label(id),
                                             prefix_iter, fn);
        });
      }
    } else {
      unit([&](const IterFn& fn) {
        enumerate_tail(nest, nd, nd, prefix_iter, fn);
      });
    }
  });
}

}  // namespace

Schedule build_schedule(const loopir::LoopNest& original,
                        const trans::TransformPlan& plan) {
  codegen::TransformedNest tn = codegen::rewrite_nest(original, plan);
  Schedule sched;
  for_each_unit(tn.nest, plan, [&](const UnitRunner& run) {
    std::vector<Vec> item;
    run([&](const Vec& j) { item.push_back(tn.original_iteration(j)); });
    if (!item.empty()) sched.items.push_back(std::move(item));
  });
  return sched;
}

RunStats measure_schedule(const loopir::LoopNest& original,
                          const trans::TransformPlan& plan) {
  codegen::TransformedNest tn = codegen::rewrite_nest(original, plan);
  RunStats stats;
  for_each_unit(tn.nest, plan, [&](const UnitRunner& run) {
    i64 unit = 0;
    run([&](const Vec&) { ++unit; });
    if (unit == 0) return;  // empty combos are dropped, as in build_schedule
    ++stats.work_items;
    stats.iterations += unit;
    stats.max_item = std::max(stats.max_item, unit);
  });
  return stats;
}

RunStats run_scheduled_serial(const loopir::LoopNest& original,
                              const trans::TransformPlan& plan,
                              ArrayStore& store) {
  Schedule sched = build_schedule(original, plan);
  RunStats stats{static_cast<i64>(sched.items.size()),
                 sched.total_iterations(), sched.max_item_size()};
  for (const auto& item : sched.items)
    for (const Vec& i : item) execute_iteration(original, i, store);
  return stats;
}

}  // namespace vdep::exec
