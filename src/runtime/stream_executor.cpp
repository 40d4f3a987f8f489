#include "runtime/stream_executor.h"

#include <limits>
#include <optional>

#include "analysis/interval.h"
#include "exec/compiled.h"
#include "exec/interpreter.h"
#include "intlin/det.h"
#include "runtime/driver.h"
#include "support/error.h"

namespace vdep::runtime {

/// One leaf's scan, on the leaf's stack over its worker context's
/// LeafScratch: the nest being scanned (tn_, or tn_ in column order), the
/// point being scanned in its coordinates and its original image, and the
/// body each original iteration runs through.
struct StreamExecutor::Cursor {
  const ScanBody& body;
  WorkerStats& stats;
  LeafScratch& scratch;
  const codegen::TransformedNest& order;
  bool identity;  ///< order's coordinates are the original ones
  Vec& j;
  Vec& orig;  ///< original iteration (map-back target when not identity)
  /// The leaf's slice of the column level (its box on that level, or
  /// everything when descriptors do not box it), and the column range at
  /// the point being scanned, clipped to it.
  i64 slice_lo = 0, slice_hi = 0;
  i64 column_lo = 0, column_hi = 0;
};

StreamExecutor::StreamExecutor(const loopir::LoopNest& original,
                               const trans::TransformPlan& plan,
                               StreamOptions opts)
    : original_(original),
      tn_(codegen::rewrite_nest(original, plan)),
      part_(plan.partition),
      opts_(opts),
      depth_(original.depth()),
      num_doall_(plan.num_doall),
      identity_(plan.is_identity_transform()) {
  VDEP_REQUIRE(plan.depth == depth_, "plan depth / nest depth mismatch");
  if (part_) {
    VDEP_CHECK(num_doall_ + part_->dim() == depth_,
               "plan shape inconsistent: DOALL prefix + partition block must "
               "cover the nest");
    classes_ = part_->num_classes();
  }
  compute_hull();
  int limit = opts_.split_dims > 0 ? opts_.split_dims : TaskDescriptor::kMaxDims;
  ndims_ = std::min(num_doall_, std::min(limit, TaskDescriptor::kMaxDims));
  const DoallLocality loc =
      doall_locality(original_, tn_.t_inverse, num_doall_);
  column_ = loc.column;
  if (!loc.weight.empty())
    for (int d = 0; d < ndims_; ++d)
      split_prefs_.stride[d] = loc.weight[static_cast<std::size_t>(d)];
  split_classes_ = !classes_share_lines(original_, plan);
  threads_ = opts_.num_threads != 0 ? opts_.num_threads
                                    : default_worker_count();
  if (opts_.grain > 0) {
    grain_ = opts_.grain;
  } else {
    grain_ = pick_grain(std::max<i64>(root().cells(), 1), threads_);
  }
}

const StreamExecutor::ScanState& StreamExecutor::scan() const {
  std::call_once(scan_->built, [this] {
    ScanState& s = *scan_;
    if (!opts_.force_interpreter)
      s.body = exec::CompiledKernel::try_compile(original_);
    if (column_ < 0) return;
    s.column_step = tn_.t_inverse.row(column_);
    if (column_ + 1 < depth_) {
      // Column order: rotate column column_ of T to the end. Every
      // dependence distance is zero on a DOALL level (Lemma 1), so the
      // rotation keeps each distance's leading nonzero entry and its sign;
      // Fourier-Motzkin projects the column level out of every other
      // level's bounds and leaves its own range a max/min over them.
      intlin::Mat tp = tn_.t;
      for (int c = column_; c + 1 < depth_; ++c) tp.swap_cols(c, c + 1);
      s.permuted = codegen::rewrite_nest(original_, tp, num_doall_ - 1);
    }
    const loopir::Level& col =
        (s.permuted ? s.permuted->nest : tn_.nest).level(depth_ - 1);
    s.column_per_point = std::max(col.lower.last_index_used(),
                                  col.upper.last_index_used()) >=
                         num_doall_ - 1;
  });
  return *scan_;
}

void StreamExecutor::compute_hull() {
  // Rectangular hull of every DOALL-prefix dimension, delegated to the
  // analysis pass (the same lattice the partitioner and kernel verifier
  // reason over). The hull is a superset of the projection — leaves
  // re-intersect with the dynamic bounds, so excess cells are just empty —
  // and exact for the common rectangular case. An inverted level yields
  // all-empty hulls so root() covers nothing.
  const analysis::IntervalEnv env =
      analysis::IntervalEnv::from_nest(tn_.nest, num_doall_);
  hull_.clear();
  hull_.reserve(static_cast<std::size_t>(num_doall_));
  for (const analysis::Interval& h : env.hulls()) hull_.emplace_back(h.lo, h.hi);
}

namespace {

/// Flat-offset step (elements) of affine `ref` per unit step of each
/// transformed coordinate j_first .. j_{first+count-1}. One step along j_d
/// moves the original iteration by row d of T^{-1} (i = j T^{-1}), each
/// subscript vector by F * that row (subscripts = F i + f0), and the flat
/// address by the row-major strides of the array.
Vec flat_steps(const loopir::LoopNest& nest, const intlin::Mat& t_inverse,
               const loopir::ArrayRef& ref, int first, int count) {
  Vec steps(static_cast<std::size_t>(count), 0);
  const loopir::ArrayDecl* decl = nullptr;
  for (const loopir::ArrayDecl& a : nest.arrays())
    if (a.name == ref.array) decl = &a;
  if (!decl) return steps;
  // Row-major element strides of the declared shape.
  std::vector<i64> stride(static_cast<std::size_t>(decl->arity()), 1);
  for (int s = decl->arity() - 2; s >= 0; --s)
    stride[static_cast<std::size_t>(s)] = checked::mul(
        stride[static_cast<std::size_t>(s + 1)],
        decl->dims[static_cast<std::size_t>(s + 1)].second -
            decl->dims[static_cast<std::size_t>(s + 1)].first + 1);
  const intlin::Mat f = ref.linear_part();
  for (int k = 0; k < count; ++k) {
    const int d = first + k;
    i64 delta = 0;
    for (int s = 0; s < decl->arity(); ++s) {
      i64 dsub = 0;
      for (int c = 0; c < nest.depth(); ++c)
        dsub = checked::add(dsub, checked::mul(f.at(s, c), t_inverse.at(d, c)));
      delta = checked::add(
          delta, checked::mul(stride[static_cast<std::size_t>(s)], dsub));
    }
    steps[static_cast<std::size_t>(k)] = delta;
  }
  return steps;
}

}  // namespace

DoallLocality doall_locality(const loopir::LoopNest& nest,
                             const intlin::Mat& t_inverse, int num_doall) {
  // Descriptors split the boxed axis that moves addresses the most, which
  // keeps each half's footprint contiguous (an axis no access depends on
  // scores zero and ranks last among the DOALL axes); scans run the axis
  // that moves them the least as columns, so a column's accesses are the
  // shortest strided runs.
  DoallLocality out;
  out.column = num_doall - 1;
  Vec weight(static_cast<std::size_t>(num_doall), 0);
  try {
    for (const loopir::LoopNest::Access& acc : nest.accesses()) {
      if (acc.ref.has_indirection()) continue;
      const Vec steps = flat_steps(nest, t_inverse, acc.ref, 0, num_doall);
      for (std::size_t d = 0; d < weight.size(); ++d)
        weight[d] = checked::add(weight[d], checked::abs(steps[d]));
    }
  } catch (const Error&) {
    // Pathological shapes can overflow the stride products; locality is a
    // heuristic, so fall back to the longest-axis split policy and the
    // deepest column rather than fail.
    return out;
  }
  for (int d = num_doall - 2; d >= 0; --d)
    if (weight[static_cast<std::size_t>(d)] <
        weight[static_cast<std::size_t>(out.column)])
      out.column = d;
  out.weight = std::move(weight);
  return out;
}

bool classes_share_lines(const loopir::LoopNest& nest,
                         const trans::TransformPlan& plan) {
  // Classes are the cosets of lattice(H) over the partition block. Two
  // iterations whose block coordinates differ by delta (|delta_k| < h_kk,
  // delta not in the lattice) belong to different classes, and a written
  // reference with flat steps g puts their cells |g . delta| elements
  // apart. Under one cache line for any such pair, splitting the class
  // range only makes workers contend for lines, so the range stays whole.
  // Boxes past kMaxLineProbes offsets, and overflowing products, keep the
  // classes splittable: the rule is a heuristic, never a legality input.
  constexpr i64 kLineCells = 64 / sizeof(i64);
  constexpr i64 kMaxLineProbes = 4096;
  if (!plan.partition || plan.partition->num_classes() <= 1) return false;
  const trans::Partitioning& part = *plan.partition;
  try {
    const int k = part.dim();
    const intlin::Mat& h = part.lattice_basis();
    i64 probes = 1;
    for (int c = 0; c < k; ++c) {
      probes = checked::mul(probes, checked::fma(-1, 2, h.at(c, c)));
      if (probes > kMaxLineProbes) return false;
    }
    const intlin::Mat t_inverse = intlin::unimodular_inverse(plan.t);
    std::vector<Vec> steps;
    for (const loopir::LoopNest::Access& acc : nest.accesses())
      if (acc.is_write && !acc.ref.has_indirection())
        steps.push_back(
            flat_steps(nest, t_inverse, acc.ref, plan.num_doall, k));
    Vec delta(static_cast<std::size_t>(k));
    for (int c = 0; c < k; ++c)
      delta[static_cast<std::size_t>(c)] = 1 - h.at(c, c);
    for (i64 p = 0; p < probes; ++p) {
      if (part.class_id(delta) != 0) {
        for (const Vec& g : steps) {
          i64 apart = 0;
          for (int c = 0; c < k; ++c)
            apart = checked::fma(apart, g[static_cast<std::size_t>(c)],
                                 delta[static_cast<std::size_t>(c)]);
          if (checked::abs(apart) < kLineCells) return true;
        }
      }
      // Next offset in the box (odometer, innermost coordinate fastest).
      for (int c = k - 1; c >= 0; --c) {
        i64& v = delta[static_cast<std::size_t>(c)];
        if (v < h.at(c, c) - 1) {
          ++v;
          break;
        }
        v = 1 - h.at(c, c);
      }
    }
  } catch (const Error&) {
    // Overflowing products: the classes stay splittable.
  }
  return false;
}

TaskDescriptor StreamExecutor::root() const {
  TaskDescriptor rt;
  rt.ndims = ndims_;
  for (int d = 0; d < ndims_; ++d) {
    rt.lo[d] = hull_[static_cast<std::size_t>(d)].first;
    rt.hi[d] = hull_[static_cast<std::size_t>(d)].second;
  }
  rt.class_lo = 0;
  rt.class_hi = classes_;
  return rt;
}

const Vec& StreamExecutor::original_point(Cursor& w) const {
  if (w.identity) return w.j;
  // orig = j * M^{-1}, into the preallocated buffer (vec_mat_mul would
  // allocate per iteration). Plain arithmetic: the scanned polytope is a
  // bijective image of the original box, whose coordinates fit i64 by
  // construction.
  const intlin::Mat& m = w.order.t_inverse;
  for (int c = 0; c < depth_; ++c) {
    i64 acc = 0;
    for (int r = 0; r < depth_; ++r)
      acc += w.j[static_cast<std::size_t>(r)] * m.at(r, c);
    w.orig[static_cast<std::size_t>(c)] = acc;
  }
  return w.orig;
}

void StreamExecutor::run_point(Cursor& w, const Vec& it) const {
  if (w.body.kernel)
    w.body.kernel->execute_row(*w.body.bufs, it.data(), w.scratch.kernel);
  else if (w.body.store)
    exec::execute_iteration(original_, it, *w.body.store);
  else
    (*w.body.sink)(w.scratch.worker, it);
}

void StreamExecutor::emit(Cursor& w) const {
  if (column_ < 0) {
    ++w.stats.iterations;
    run_point(w, original_point(w));
    return;
  }
  // Column order: the innermost level is the column level.
  if (scan_->column_per_point && !column_range(w)) return;
  const auto inner = static_cast<std::size_t>(depth_ - 1);
  const i64 len = w.column_hi - w.column_lo + 1;
  w.stats.iterations += len;
  if (w.body.kernel) {
    // One column: each value one step of row column_ of T^{-1} further in
    // original coordinates.
    w.j[inner] = w.column_lo;
    w.body.kernel->execute_column(*w.body.bufs, original_point(w).data(),
                                  scan_->column_step.data(), len,
                                  w.scratch.kernel);
    w.stats.column_iterations += len;
  } else {
    for (i64 v = w.column_lo; v <= w.column_hi; ++v) {
      w.j[inner] = v;
      run_point(w, original_point(w));
    }
  }
  w.j[inner] = 0;
}

bool StreamExecutor::column_range(Cursor& w) const {
  const loopir::Level& l = w.order.nest.level(depth_ - 1);
  w.column_lo = std::max(l.lower.eval_lower(w.j), w.slice_lo);
  w.column_hi = std::min(l.upper.eval_upper(w.j), w.slice_hi);
  return w.column_lo <= w.column_hi;
}

void StreamExecutor::scan_tail(int level, Cursor& w) const {
  if (level == depth_ - (column_ >= 0 ? 1 : 0)) {
    emit(w);
    return;
  }
  const loopir::Level& l = w.order.nest.level(level);
  i64 lo = l.lower.eval_lower(w.j);
  i64 hi = l.upper.eval_upper(w.j);
  for (i64 v = lo; v <= hi; ++v) {
    w.j[static_cast<std::size_t>(level)] = v;
    scan_tail(level + 1, w);
  }
  w.j[static_cast<std::size_t>(level)] = 0;
}

void StreamExecutor::scan_prefix(int level, const TaskDescriptor& task,
                                 Cursor& w) const {
  // The DOALL levels but the column level keep their order, then come the
  // partition block or sequential tail, and emit() runs the column level
  // innermost.
  const int prefix = std::max(num_doall_ - 1, 0);
  if (level == prefix) {
    // A column range that reads no deeper level holds for the whole block.
    if (column_ >= 0 && !scan_->column_per_point && !column_range(w))
      return;
    if (part_) {
      // Two pointers: the callback is stored inline, never on the heap.
      const std::function<void(const Vec&)> emit_j =
          [this, &w](const Vec&) { emit(w); };
      for (i64 c = task.class_lo; c < task.class_hi; ++c) {
        part_->class_label(c, w.scratch.label);
        part_->for_each_class_iteration_from(w.order.nest, prefix,
                                             w.scratch.label, w.j,
                                             w.scratch.lattice, emit_j);
      }
    } else {
      for (i64 c = task.class_lo; c < task.class_hi; ++c)
        scan_tail(prefix, w);
    }
    return;
  }
  const loopir::Level& l = w.order.nest.level(level);
  i64 lo = l.lower.eval_lower(w.j);
  i64 hi = l.upper.eval_upper(w.j);
  // Boxed dimension: the leaf owns only its slice of the hull. Levels past
  // the column level sit one position up in column order.
  const int d = column_ >= 0 && level >= column_ ? level + 1 : level;
  if (d < task.ndims) {
    lo = std::max(lo, task.lo[d]);
    hi = std::min(hi, task.hi[d]);
  }
  for (i64 v = lo; v <= hi; ++v) {
    w.j[static_cast<std::size_t>(level)] = v;
    scan_prefix(level + 1, task, w);
  }
  w.j[static_cast<std::size_t>(level)] = 0;
}

void StreamExecutor::execute_leaf(const TaskDescriptor& task,
                                  WorkerStats& stats, LeafScratch& scratch,
                                  const ScanBody& body) const {
  // The scratch may last have served another source's leaf: size the
  // cursor for this nest (no allocation once the context's scratch fits).
  scratch.point.assign(static_cast<std::size_t>(depth_), 0);
  scratch.orig.resize(static_cast<std::size_t>(depth_));
  const bool boxed = column_ >= 0 && column_ < task.ndims;
  Cursor w{body,
           stats,
           scratch,
           scan_->permuted ? *scan_->permuted : tn_,
           !scan_->permuted && identity_,
           scratch.point,
           scratch.orig,
           boxed ? task.lo[column_] : std::numeric_limits<i64>::min(),
           boxed ? task.hi[column_] : std::numeric_limits<i64>::max()};
  scan_prefix(0, task, w);
}

DriveSource StreamExecutor::source(exec::ArrayStore& store,
                                   const exec::RangeKernel* kernel) const {
  DriveSource src{root(), grain_, split_prefs_, {},
                  split_limits(kernel == nullptr), {}};
  if (kernel) {
    auto bufs = std::make_shared<const exec::BufferTable>(original_, store);
    src.leaf = [kernel, bufs](const TaskDescriptor& t, WorkerStats& stats,
                              LeafScratch&) {
      exec::IterBox box;
      box.lo = t.lo;
      box.hi = t.hi;
      box.ndims = t.ndims;
      box.class_lo = t.class_lo;
      box.class_hi = t.class_hi;
      stats.iterations += kernel->execute_range(*bufs, box);
    };
    return src;
  }
  // Scan path: the executor's one compiled body over this run's one
  // binding (each context's scratch keeps both const), or the interpreter
  // when the first scan found no body.
  src.scratch.depth = depth_;
  if (const exec::CompiledKernel* body = scan().body.get()) {
    auto bufs = std::make_shared<const exec::BufferTable>(body->bind(store));
    src.scratch.stack = body->stack_slots();
    if (column_ >= 0) src.scratch.columns = body->column_slots();
    src.leaf = [this, body, bufs](const TaskDescriptor& t,
                                  WorkerStats& stats, LeafScratch& scratch) {
      execute_leaf(t, stats, scratch, {body, bufs.get(), nullptr, nullptr});
    };
  } else {
    src.leaf = [this, &store](const TaskDescriptor& t, WorkerStats& stats,
                              LeafScratch& scratch) {
      execute_leaf(t, stats, scratch, {nullptr, nullptr, &store, nullptr});
    };
  }
  return src;
}

SplitLimits StreamExecutor::split_limits(bool scan) const {
  // A native range kernel runs its leaf's box whole; a scan runs the
  // column level as columns, which stay SplitLimits::kColumnFloor long.
  SplitLimits limits;
  limits.classes = split_classes_;
  if (scan) limits.column_axis = column_;
  return limits;
}

RuntimeStats StreamExecutor::run(exec::ArrayStore& store,
                                 RunSwitches sw) const {
  return drive(source(store), {threads_, sw});
}

RuntimeStats StreamExecutor::run(exec::ArrayStore& store, ThreadPool& pool,
                                 RunSwitches sw) const {
  return drive(source(store), {threads_, sw}, &pool);
}

RuntimeStats StreamExecutor::run(exec::ArrayStore& store,
                                 const exec::RangeKernel& kernel,
                                 RunSwitches sw) const {
  return drive(source(store, &kernel), {threads_, sw});
}

RuntimeStats StreamExecutor::run(exec::ArrayStore& store,
                                 const exec::RangeKernel& kernel,
                                 ThreadPool& pool, RunSwitches sw) const {
  return drive(source(store, &kernel), {threads_, sw}, &pool);
}

RuntimeStats StreamExecutor::run_trace(
    const std::function<void(int, const Vec&)>& sink) const {
  (void)scan();  // the column order
  const DriveSource src{
      root(), grain_, split_prefs_,
      [this, &sink](const TaskDescriptor& t, WorkerStats& stats,
                    LeafScratch& scratch) {
        execute_leaf(t, stats, scratch, {nullptr, nullptr, nullptr, &sink});
      },
      split_limits(true), {depth_}};
  return drive(src, {threads_, {}});
}

}  // namespace vdep::runtime
