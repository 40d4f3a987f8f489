// Tests for the streaming runtime: the Chase-Lev deque, the descriptor
// splitting policy, and end-to-end semantics of the StreamExecutor against
// the sequential reference over the whole paper suite.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "api/vdep.h"
#include "blocked_nests.h"
#include "core/suite.h"
#include "dep/pdm.h"
#include "exec/interpreter.h"
#include "loopir/builder.h"
#include "obs/trace.h"
#include "runtime/stream_executor.h"
#include "runtime/work_queue.h"
#include "topo/affinity.h"
#include "trans/planner.h"

namespace vdep::runtime {
namespace {

using intlin::i64;
using intlin::Vec;

trans::TransformPlan plan_for(const loopir::LoopNest& nest) {
  return trans::plan_transform(dep::compute_pdm(nest));
}

/// 1-axis box (the legacy rectangle shape) over classes [clo, chi).
TaskDescriptor task(i64 olo, i64 ohi, i64 clo, i64 chi) {
  TaskDescriptor t;
  t.ndims = 1;
  t.lo[0] = olo;
  t.hi[0] = ohi;
  t.class_lo = clo;
  t.class_hi = chi;
  return t;
}

/// N-axis box from (lo, hi) pairs over classes [clo, chi).
TaskDescriptor box(std::vector<std::pair<i64, i64>> dims, i64 clo, i64 chi) {
  TaskDescriptor t;
  t.ndims = static_cast<int>(dims.size());
  for (int d = 0; d < t.ndims; ++d) {
    t.lo[d] = dims[static_cast<std::size_t>(d)].first;
    t.hi[d] = dims[static_cast<std::size_t>(d)].second;
  }
  t.class_lo = clo;
  t.class_hi = chi;
  return t;
}

// ------------------------------------------------------------- work queue

TEST(WorkQueue, OwnerPopIsLifo) {
  WorkStealingDeque q;
  for (i64 k = 0; k < 10; ++k) q.push(task(k, k, 0, 1));
  TaskDescriptor t;
  for (i64 k = 9; k >= 0; --k) {
    ASSERT_TRUE(q.pop(t));
    EXPECT_EQ(t.lo[0], k);
  }
  EXPECT_FALSE(q.pop(t));
}

TEST(WorkQueue, StealIsFifo) {
  WorkStealingDeque q;
  for (i64 k = 0; k < 10; ++k) q.push(task(k, k, 0, 1));
  TaskDescriptor t;
  for (i64 k = 0; k < 10; ++k) {
    ASSERT_TRUE(q.steal(t));
    EXPECT_EQ(t.lo[0], k);
  }
  EXPECT_FALSE(q.steal(t));
}

TEST(WorkQueue, GrowsPastInitialCapacity) {
  WorkStealingDeque q(2);
  for (i64 k = 0; k < 1000; ++k) q.push(task(k, k, 0, 1));
  EXPECT_EQ(q.size_estimate(), 1000);
  TaskDescriptor t;
  for (i64 k = 999; k >= 0; --k) {
    ASSERT_TRUE(q.pop(t));
    EXPECT_EQ(t.lo[0], k);
  }
}

TEST(WorkQueue, ConcurrentStealsConsumeEachTaskOnce) {
  // One owner interleaves pushes and pops; thieves hammer steal. Every id
  // pushed must be consumed exactly once across all parties.
  constexpr i64 kTasks = 20000;
  constexpr int kThieves = 4;
  WorkStealingDeque q(8);
  std::vector<std::atomic<int>> seen(kTasks);
  for (auto& s : seen) s.store(0);
  std::atomic<bool> done{false};

  auto consume = [&](const TaskDescriptor& t) {
    seen[static_cast<std::size_t>(t.lo[0])].fetch_add(1);
  };

  std::vector<std::thread> thieves;
  for (int k = 0; k < kThieves; ++k) {
    thieves.emplace_back([&] {
      TaskDescriptor t;
      while (!done.load(std::memory_order_acquire)) {
        if (q.steal(t)) consume(t);
      }
      while (q.steal(t)) consume(t);  // drain the tail
    });
  }

  TaskDescriptor t;
  for (i64 k = 0; k < kTasks; ++k) {
    q.push(task(k, k, 0, 1));
    if (k % 3 == 0 && q.pop(t)) consume(t);
  }
  while (q.pop(t)) consume(t);
  done.store(true, std::memory_order_release);
  for (auto& th : thieves) th.join();

  for (i64 k = 0; k < kTasks; ++k)
    ASSERT_EQ(seen[static_cast<std::size_t>(k)].load(), 1) << "task " << k;
}

// ----------------------------------------------------------- descriptors

// Recursively splits like a worker would and collects the leaves.
void collect_leaves(TaskDescriptor t, i64 grain,
                    std::vector<TaskDescriptor>& out) {
  while (can_split(t, grain)) {
    TaskDescriptor high = split(t, grain);
    collect_leaves(high, grain, out);
  }
  out.push_back(t);
}

TEST(TaskSplit, LeavesCoverRootExactlyOnce) {
  for (i64 grain : {1, 3, 7, 100}) {
    TaskDescriptor root = task(-17, 41, 0, 6);
    std::vector<TaskDescriptor> leaves;
    collect_leaves(root, grain, leaves);
    // Every (outer value, class) cell of the rectangle exactly once.
    std::vector<std::pair<i64, i64>> cells;
    for (const TaskDescriptor& l : leaves) {
      EXPECT_LE(l.lo[0], l.hi[0]);
      EXPECT_LT(l.class_lo, l.class_hi);
      EXPECT_LE(l.cells(), std::max<i64>(grain, 1));
      for (i64 v = l.lo[0]; v <= l.hi[0]; ++v)
        for (i64 c = l.class_lo; c < l.class_hi; ++c) cells.push_back({v, c});
    }
    std::sort(cells.begin(), cells.end());
    ASSERT_EQ(std::adjacent_find(cells.begin(), cells.end()), cells.end())
        << "duplicated cell at grain " << grain;
    ASSERT_EQ(static_cast<i64>(cells.size()), root.cells())
        << "dropped cells at grain " << grain;
    EXPECT_EQ(cells.front(), (std::pair<i64, i64>{-17, 0}));
    EXPECT_EQ(cells.back(), (std::pair<i64, i64>{41, 5}));
  }
}

TEST(TaskSplit, ThreeAxisSplitsCoverDisjointly) {
  // The disjoint-cover property of recursive splits must hold over a full
  // 3-axis box x class range, not just the legacy rectangle.
  for (i64 grain : {1, 4, 17}) {
    TaskDescriptor root = box({{0, 5}, {-3, 4}, {2, 9}}, 0, 3);
    std::vector<TaskDescriptor> leaves;
    collect_leaves(root, grain, leaves);
    std::vector<std::array<i64, 4>> cells;
    for (const TaskDescriptor& l : leaves) {
      EXPECT_FALSE(l.empty());
      EXPECT_LE(l.cells(), std::max<i64>(grain, 1));
      for (i64 a = l.lo[0]; a <= l.hi[0]; ++a)
        for (i64 b = l.lo[1]; b <= l.hi[1]; ++b)
          for (i64 c = l.lo[2]; c <= l.hi[2]; ++c)
            for (i64 k = l.class_lo; k < l.class_hi; ++k)
              cells.push_back({a, b, c, k});
    }
    std::sort(cells.begin(), cells.end());
    ASSERT_EQ(std::adjacent_find(cells.begin(), cells.end()), cells.end())
        << "duplicated cell at grain " << grain;
    ASSERT_EQ(static_cast<i64>(cells.size()), root.cells())
        << "dropped cells at grain " << grain;
  }
}

TEST(TaskSplit, RespectsGrainAlongOuter) {
  TaskDescriptor root = task(0, 1023, 0, 1);
  std::vector<TaskDescriptor> leaves;
  collect_leaves(root, 16, leaves);
  for (const TaskDescriptor& l : leaves) {
    EXPECT_LE(l.extent(0), 16);
    EXPECT_GT(l.extent(0), 16 / 2 - 1);  // halving never undershoots much
    EXPECT_EQ(l.class_extent(), 1);
  }
}

TEST(TaskSplit, LongestAxisWinsOutermostFirstOnTies) {
  // The longest axis is halved first...
  TaskDescriptor t = box({{0, 3}, {0, 15}, {0, 3}}, 0, 2);
  EXPECT_EQ(pick_split_axis(t, 1), 1);
  int axis = -1;
  TaskDescriptor high = split(t, 1, &axis);
  EXPECT_EQ(axis, 1);
  EXPECT_EQ(t.extent(1), 8);
  EXPECT_EQ(high.extent(1), 8);
  // ...ties go to the outermost dimension...
  EXPECT_EQ(pick_split_axis(box({{0, 7}, {0, 7}}, 0, 1), 1), 0);
  // ...and the class range only wins when strictly longest.
  EXPECT_EQ(pick_split_axis(box({{0, 3}}, 0, 4), 1), 0);
  EXPECT_EQ(pick_split_axis(box({{0, 3}}, 0, 5), 1),
            TaskDescriptor::kClassAxis);
}

TEST(TaskSplit, DegenerateAxesNeverSplit) {
  // Extent-1 axes must never be chosen, whatever the other axes do.
  TaskDescriptor root = box({{7, 7}, {0, 63}, {-2, -2}}, 0, 1);
  std::vector<TaskDescriptor> leaves;
  collect_leaves(root, 1, leaves);
  EXPECT_EQ(leaves.size(), 64u);
  for (const TaskDescriptor& l : leaves) {
    EXPECT_EQ(l.extent(0), 1);
    EXPECT_EQ(l.extent(1), 1);
    EXPECT_EQ(l.extent(2), 1);
    EXPECT_EQ(l.class_extent(), 1);
  }
  // A fully degenerate box is a leaf even at grain 0.
  EXPECT_FALSE(can_split(box({{3, 3}, {5, 5}}, 2, 3), 0));
}

TEST(TaskSplit, NoDimensionsSplitsClassesOnly) {
  TaskDescriptor root;
  root.class_lo = 0;
  root.class_hi = 8;
  EXPECT_TRUE(can_split(root, 1));
  std::vector<TaskDescriptor> leaves;
  collect_leaves(root, 1, leaves);
  EXPECT_EQ(leaves.size(), 8u);
  for (const TaskDescriptor& l : leaves) EXPECT_EQ(l.class_extent(), 1);
}

TEST(TaskSplit, SingleCellIsNotSplittable) {
  EXPECT_FALSE(can_split(task(3, 3, 2, 3), 1));
  // A multi-cell box splits while it is over the grain, whichever axis
  // carries the extent...
  EXPECT_TRUE(can_split(task(0, 7, 0, 4), 8));
  // ...and is a leaf once cells() fits the grain.
  EXPECT_FALSE(can_split(task(0, 7, 2, 3), 8));
}

TEST(TaskSplit, SourceCanKeepTheClassRangeWhole) {
  // No DOALL axis: the class range is the only axis, so forbidding it
  // leaves nothing to split.
  const SplitLimits whole{.classes = false};
  EXPECT_EQ(pick_split_axis(box({}, 0, 4), 1, nullptr, whole), -1);
  EXPECT_FALSE(can_split(box({}, 0, 4), 1, whole));
  EXPECT_TRUE(can_split(box({}, 0, 4), 1));
  // A DOALL axis still splits, even where the class range is longer.
  TaskDescriptor t = box({{0, 1}}, 0, 16);
  EXPECT_EQ(pick_split_axis(t, 1), TaskDescriptor::kClassAxis);
  while (can_split(t, 1, whole)) {
    int axis = -1;
    split(t, 1, &axis, nullptr, whole);
    EXPECT_EQ(axis, 0);
  }
  EXPECT_EQ(t.class_extent(), 16);
  EXPECT_EQ(t.extent(0), 1);
}

TEST(TaskDescriptorIo, ToStringRendersBoxClassesAndSource) {
  TaskDescriptor t = box({{-4, 17}, {0, 511}, {2, 2}}, 1, 5);
  EXPECT_EQ(t.to_string(),
            "task{box [-4, 17] x [0, 511] x [2, 2], classes [1, 5)}");

  // A source tag shows; a dimension-free descriptor renders its box as -.
  t.source = 42;
  EXPECT_EQ(t.to_string(),
            "task{box [-4, 17] x [0, 511] x [2, 2], classes [1, 5), "
            "source 42}");

  TaskDescriptor classes_only;
  classes_only.class_hi = 6;
  EXPECT_EQ(classes_only.to_string(), "task{box -, classes [0, 6)}");
}

// ------------------------------------------------- streaming == reference

TEST(Streaming, BitIdenticalToSequentialAcrossPaperSuite) {
  for (std::size_t threads : {1u, 2u, 8u}) {
    for (const core::NamedNest& c : core::paper_suite(6)) {
      exec::ArrayStore ref(c.nest);
      ref.fill_pattern();
      exec::ArrayStore got = ref;
      exec::run_sequential(c.nest, ref);

      StreamOptions so;
      so.num_threads = threads;
      StreamExecutor ex(c.nest, plan_for(c.nest), so);
      RuntimeStats rs = ex.run(got);
      EXPECT_EQ(ref, got) << c.name << " with " << threads << " thread(s)";
      EXPECT_EQ(rs.total_iterations(), c.nest.iteration_count()) << c.name;
    }
  }
}

TEST(Streaming, RunsOnACallerProvidedThreadPool) {
  // The pool overload distributes worker contexts over existing pool
  // threads instead of spawning fresh ones; results stay bit-identical,
  // including when the pool is smaller than the configured worker count.
  ThreadPool pool(2);
  for (std::size_t contexts : {1u, 2u, 6u}) {
    for (const core::NamedNest& c : core::paper_suite(5)) {
      exec::ArrayStore ref(c.nest);
      ref.fill_pattern();
      exec::ArrayStore got = ref;
      exec::run_sequential(c.nest, ref);

      StreamOptions so;
      so.num_threads = contexts;
      StreamExecutor ex(c.nest, plan_for(c.nest), so);
      RuntimeStats rs = ex.run(got, pool);
      EXPECT_EQ(ref, got) << c.name << " with " << contexts << " context(s)";
      EXPECT_EQ(rs.total_iterations(), c.nest.iteration_count()) << c.name;
    }
  }
}

TEST(Streaming, InterpreterFallbackAlsoBitIdentical) {
  for (const core::NamedNest& c : core::paper_suite(5)) {
    exec::ArrayStore ref(c.nest);
    ref.fill_pattern();
    exec::ArrayStore got = ref;
    exec::run_sequential(c.nest, ref);

    StreamOptions so;
    so.num_threads = 2;
    so.force_interpreter = true;
    StreamExecutor ex(c.nest, plan_for(c.nest), so);
    ex.run(got);
    EXPECT_EQ(ref, got) << c.name;
  }
}

TEST(Streaming, OneBodyServesEveryStoreAndOutlivesAMove) {
  // The executor compiles its body once, at construction, and every run
  // binds its own store to it — also after the executor moved and the
  // moved-from object was destroyed (the body owns its nest; a reference
  // into the old executor would be a use-after-free under the sanitizer
  // build). A store of another shape is refused before any write.
  const loopir::LoopNest nest = core::example41(12);
  StreamOptions so;
  so.num_threads = 4;
  auto first = std::make_unique<StreamExecutor>(nest, plan_for(nest), so);
  const exec::CompiledKernel* body = first->body();
  ASSERT_NE(body, nullptr);
  StreamExecutor ex = std::move(*first);
  first.reset();
  EXPECT_EQ(ex.body(), body);
  for (i64 salt : {0, 5, -9}) {
    exec::ArrayStore ref(nest);
    ref.fill_pattern();
    for (const loopir::ArrayDecl& a : nest.arrays())
      for (i64& v : ref.raw_mutable(a.name)) v += salt;
    exec::ArrayStore got = ref;
    exec::run_sequential(nest, ref);
    ex.run(got);
    EXPECT_EQ(ref, got) << "salt " << salt;
  }
  EXPECT_EQ(ex.body(), body);

  exec::ArrayStore other(core::example41(13));
  other.fill_pattern();
  const exec::ArrayStore untouched = other;
  EXPECT_THROW(ex.run(other), PreconditionError);
  EXPECT_EQ(other, untouched);

  so.force_interpreter = true;
  EXPECT_EQ(StreamExecutor(nest, plan_for(nest), so).body(), nullptr);
}

TEST(Streaming, ProofRefusalIsDecidedOnceAndInterprets) {
  // Triangular space, A sized for the real access set [0, n]: the
  // rectangular-hull proof sees i - j in [-n, n] and refuses, so the
  // executor builds no body and every run interprets, bit-identically.
  const i64 n = 12;
  loopir::LoopNestBuilder b;
  b.loop("i", 0, n);
  b.loop("j", loopir::Bound(loopir::AffineExpr::constant(2, 0)),
         loopir::Bound(loopir::AffineExpr(Vec{1, 0}, 0)));
  b.array("A", {{0, n}});
  b.assign(b.ref("A", {b.affine({1, -1}, 0)}),
           loopir::Expr::add(b.read("A", {b.affine({1, -1}, 0)}),
                             loopir::Expr::constant(1)));
  const loopir::LoopNest tri = b.build();
  StreamOptions so;
  so.num_threads = 2;
  const StreamExecutor ex(tri, plan_for(tri), so);
  EXPECT_EQ(ex.body(), nullptr);
  for (int run = 0; run < 2; ++run) {
    exec::ArrayStore ref(tri);
    ref.fill_pattern();
    exec::ArrayStore got = ref;
    exec::run_sequential(tri, ref);
    ex.run(got);
    EXPECT_EQ(ref, got) << "run " << run;
  }
}

TEST(Streaming, TraceCoversIterationSpaceExactlyOnce) {
  for (const core::NamedNest& c : core::paper_suite(5)) {
    StreamOptions so;
    so.num_threads = 4;
    so.grain = 1;  // maximal splitting: the sharpest coverage stress
    StreamExecutor ex(c.nest, plan_for(c.nest), so);

    std::mutex mu;
    std::vector<Vec> streamed;
    ex.run_trace([&](int, const Vec& it) {
      std::lock_guard<std::mutex> lock(mu);
      streamed.push_back(it);
    });

    std::vector<Vec> expected = c.nest.iterations();
    std::sort(streamed.begin(), streamed.end());
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(streamed, expected) << c.name;
  }
}

// ------------------------------------------------- skewed-extent splitting

TEST(Streaming, SkewedNestSplitsInnerAxesBitIdentically) {
  // Outer extent 2, inner DOALL extent 601: the legacy outer-only splitter
  // produced at most two unsplittable leaves here. N-D boxes must split the
  // inner axis (nonzero inner-axis split counters, many leaves) and still
  // match the sequential reference bit for bit.
  loopir::LoopNest nest = core::skewed_extent(600);
  trans::TransformPlan plan = plan_for(nest);
  ASSERT_EQ(plan.num_doall, 2);

  exec::ArrayStore ref(nest);
  ref.fill_pattern();
  exec::ArrayStore init = ref;
  exec::run_sequential(nest, ref);

  StreamOptions so;
  so.num_threads = 8;
  StreamExecutor ex(nest, plan, so);
  EXPECT_EQ(ex.boxed_dims(), 2);
  exec::ArrayStore got = init;
  RuntimeStats rs = ex.run(got);
  EXPECT_EQ(ref, got);
  EXPECT_EQ(rs.total_iterations(), nest.iteration_count());
  EXPECT_GT(rs.total_inner_splits(), 0);
  EXPECT_GT(rs.total_tasks(), 8);  // far beyond the 2 outer-only leaves

  // split_dims = 1 reproduces the legacy single-axis splitter: correct,
  // but stuck at the two outer leaves with zero inner splits.
  StreamOptions legacy;
  legacy.num_threads = 8;
  legacy.split_dims = 1;
  StreamExecutor ex1(nest, plan, legacy);
  EXPECT_EQ(ex1.boxed_dims(), 1);
  exec::ArrayStore got1 = init;
  RuntimeStats rs1 = ex1.run(got1);
  EXPECT_EQ(ref, got1);
  EXPECT_EQ(rs1.total_inner_splits(), 0);
  EXPECT_LE(rs1.total_tasks(), 2);
}

TEST(Streaming, BoxedDimsIntersectDynamicBoundsOnTriangularSpaces) {
  // variable_3deep has two DOALL prefix dimensions after Algorithm 1 whose
  // transformed bounds couple; the hull box over-approximates, so leaves
  // must re-intersect with the dynamic bounds. Maximal splitting is the
  // sharpest stress of that intersection.
  loopir::LoopNest nest = core::variable_3deep(7);
  trans::TransformPlan plan = plan_for(nest);
  ASSERT_GE(plan.num_doall, 2);

  exec::ArrayStore ref(nest);
  ref.fill_pattern();
  exec::ArrayStore got = ref;
  exec::run_sequential(nest, ref);

  StreamOptions so;
  so.num_threads = 4;
  so.grain = 1;
  StreamExecutor ex(nest, plan, so);
  RuntimeStats rs = ex.run(got);
  EXPECT_EQ(ref, got);
  EXPECT_EQ(rs.total_iterations(), nest.iteration_count());
}

// ------------------------------------------------------------ column runs

/// Two DOALL levels and two statements, S2 reading S1's write of the same
/// iteration: a column must store S1's chunk before S2 reads it.
loopir::LoopNest two_statement_doall(i64 n) {
  loopir::LoopNestBuilder b;
  b.loop("i1", 0, 2).loop("i2", 0, n);
  b.array("A", {{0, 2}, {0, n}});
  b.array("B", {{0, 2}, {0, n}});
  b.array("C", {{0, 2}, {0, n}});
  b.assign(b.ref("A", {b.idx(0), b.idx(1)}),
           loopir::Expr::add(b.read("B", {b.idx(0), b.idx(1)}),
                             loopir::Expr::index(1)));
  b.assign(b.ref("C", {b.idx(0), b.idx(1)}),
           loopir::Expr::mul(b.read("A", {b.idx(0), b.idx(1)}),
                             loopir::Expr::constant(3)));
  return b.build();
}

/// The paper suite at n = 6, plus column stresses: DOALL extents past
/// CompiledKernel::kColumnChunk and the two-statement body.
std::vector<core::NamedNest> column_cases() {
  std::vector<core::NamedNest> cases = core::paper_suite(6);
  cases.push_back({"skewed_extent_300", "", core::skewed_extent(300)});
  cases.push_back({"two_statement_doall", "", two_statement_doall(300)});
  return cases;
}

TEST(ColumnRuns, LevelIsADoallLevelExactlyWhenThePlanHasOne) {
  // Every plan with a DOALL level runs one as columns, permuted innermost:
  // the one whose step moves the accesses' addresses the least (ties to
  // the deepest). variable_3deep's j1 walks A's contiguous last dimension,
  // its j2 whole rows; example_4_1's and triangular_uniform's deeper bounds
  // read their only DOALL level, which the column order projects out.
  // example_4_2, uniform_* and sequential_chain have no DOALL level.
  const std::map<std::string, int> expected = {
      {"example_4_1", 0},       {"example_4_2", -1},
      {"uniform_wavefront", -1}, {"uniform_blocked", -1},
      {"zero_column", 0},       {"parity_independent", 1},
      {"sequential_chain", -1}, {"variable_3deep", 0},
      {"triangular_uniform", 0}, {"matmul_reduction", 1},
      {"skewed_extent", 1}};
  for (const core::NamedNest& c : core::paper_suite(6)) {
    const trans::TransformPlan plan = plan_for(c.nest);
    StreamExecutor ex(c.nest, plan);
    ASSERT_TRUE(expected.count(c.name)) << c.name;
    EXPECT_EQ(ex.column_level(), expected.at(c.name)) << c.name;
    EXPECT_EQ(ex.column_level() >= 0, plan.num_doall > 0) << c.name;
    EXPECT_LT(ex.column_level(), plan.num_doall) << c.name;
  }
  StreamExecutor two(two_statement_doall(8), plan_for(two_statement_doall(8)));
  EXPECT_EQ(two.column_level(), 1);
}

TEST(ColumnRuns, SummaryNamesTheLevelTheExecutorRuns) {
  // summary()'s "column runs" line and the executor read one decision
  // (doall_locality): variable_3deep runs j1, its shallower DOALL level.
  vdep::Compiler compiler;
  for (const core::NamedNest& c : core::paper_suite(10)) {
    const vdep::CompiledLoop loop = compiler.compile(c.nest).value();
    const trans::TransformPlan& plan = loop.plan().transform;
    const StreamExecutor ex(c.nest, plan);
    const std::string want =
        ex.column_level() < 0
            ? std::string("column runs: none")
            : "run DOALL level " +
                  codegen::rewrite_nest(c.nest, plan)
                      .nest.level(ex.column_level())
                      .name +
                  ",";
    EXPECT_NE(loop.summary().find(want), std::string::npos)
        << c.name << "\n" << loop.summary();
  }
}

TEST(ColumnRuns, ScanSplitsKeepColumnsLong) {
  // The scan path's descriptors split the column level only into halves of
  // at least SplitLimits::kColumnFloor values; a native kernel's split to
  // the grain.
  // triangular_uniform(70)'s column level is its only DOALL axis (71
  // values): two leaves at grain 1, instead of 71 one-value leaves.
  const loopir::LoopNest nest = core::triangular_uniform(70);
  StreamOptions so;
  so.num_threads = 1;
  so.grain = 1;
  const StreamExecutor ex(nest, plan_for(nest), so);
  exec::ArrayStore store(nest);
  store.fill_pattern();
  const DriveSource scan = ex.source(store);
  EXPECT_EQ(scan.limits.column_axis, ex.column_level());
  struct NoKernel : exec::RangeKernel {
    i64 execute_range(const exec::BufferTable&,
                      const exec::IterBox&) const override {
      return 0;
    }
  } native;
  EXPECT_EQ(ex.source(store, &native).limits.column_axis, -1);
  TaskDescriptor t = scan.root;
  EXPECT_EQ(t.extent(0), 71);
  EXPECT_TRUE(can_split(t, 1, scan.limits));
  TaskDescriptor high = split(t, 1, nullptr, &scan.prefs, scan.limits);
  EXPECT_FALSE(can_split(t, 1, scan.limits));
  EXPECT_FALSE(can_split(high, 1, scan.limits));
  EXPECT_EQ(t.extent(0) + high.extent(0), 71);
  const RuntimeStats rs = ex.run(store);
  EXPECT_EQ(rs.total_tasks(), 2);
  EXPECT_EQ(rs.total_column_iterations(), nest.iteration_count());
  // Without the floor the same root halves down to single values.
  EXPECT_TRUE(can_split(t, 1));
}

TEST(ColumnRuns, CompiledMatchesInterpreterBitForBit) {
  // Every case at 1, 2 and 8 workers, at the default grain and at grain 1
  // (boxed column levels split down to SplitLimits::kColumnFloor-long
  // columns): the
  // compiled scan leaves the interpreter's store, and counts every
  // iteration as a column iteration exactly when the plan has a column
  // level.
  for (const core::NamedNest& c : column_cases()) {
    const trans::TransformPlan plan = plan_for(c.nest);
    exec::ArrayStore init(c.nest);
    init.fill_pattern();
    for (std::size_t threads : {1u, 2u, 8u}) {
      for (i64 grain : {i64{0}, i64{1}}) {
        StreamOptions so;
        so.num_threads = threads;
        so.grain = grain;
        StreamOptions interp = so;
        interp.force_interpreter = true;
        StreamExecutor compiled(c.nest, plan, so);
        exec::ArrayStore got = init, want = init;
        const RuntimeStats rc = compiled.run(got);
        const RuntimeStats ri = StreamExecutor(c.nest, plan, interp).run(want);
        const std::string what = c.name + " threads=" +
                                 std::to_string(threads) +
                                 " grain=" + std::to_string(grain);
        EXPECT_EQ(got, want) << what;
        EXPECT_EQ(rc.total_iterations(), c.nest.iteration_count()) << what;
        EXPECT_EQ(rc.total_column_iterations(),
                  compiled.column_level() >= 0 ? rc.total_iterations() : 0)
            << what;
        EXPECT_EQ(ri.total_column_iterations(), 0) << what;
      }
    }
  }
  // The sequential reference agrees too, where the columns are longest.
  for (const core::NamedNest& c : column_cases()) {
    exec::ArrayStore ref(c.nest);
    ref.fill_pattern();
    exec::ArrayStore got = ref;
    exec::run_sequential(c.nest, ref);
    StreamOptions so;
    so.num_threads = 1;
    StreamExecutor(c.nest, plan_for(c.nest), so).run(got);
    EXPECT_EQ(ref, got) << c.name;
  }
}

TEST(ColumnRuns, ReportCountsColumnIterations) {
  // ExecReport::column_iterations: every iteration of matmul_reduction and
  // of triangular_uniform (its DOALL level permuted innermost) under
  // kCompiled, none of example_4_2's (no DOALL level: per point), none
  // under kInterpreter, none on native kJit leaves — single execute() and
  // per request in a batch.
  vdep::Compiler compiler;
  vdep::CompiledLoop mm =
      compiler.compile(core::matmul_reduction(12)).value();
  vdep::CompiledLoop tri =
      compiler.compile(core::triangular_uniform(30)).value();
  vdep::CompiledLoop ex42 = compiler.compile(core::example42(12)).value();
  for (const vdep::CompiledLoop* loop : {&mm, &tri})
    EXPECT_NE(loop->summary().find("column runs: compiled scans run DOALL "
                                   "level j"),
              std::string::npos);
  EXPECT_NE(tri.summary().find("permuted innermost"), std::string::npos);
  EXPECT_NE(ex42.summary().find("column runs: none"), std::string::npos);
  for (std::size_t threads : {1u, 2u, 8u}) {
    const std::string what = "threads=" + std::to_string(threads);
    vdep::ExecPolicy compiled;
    compiled.threads(threads).backend(vdep::ExecBackend::kCompiled);
    for (const vdep::CompiledLoop* loop : {&mm, &tri}) {
      vdep::ExecReport r = loop->check(compiled).value();
      EXPECT_GT(r.iterations, 0) << what;
      EXPECT_EQ(r.column_iterations, r.iterations) << what;
    }
    EXPECT_EQ(ex42.check(compiled).value().column_iterations, 0) << what;

    vdep::ExecPolicy interp = compiled;
    interp.backend(vdep::ExecBackend::kInterpreter);
    EXPECT_EQ(mm.check(interp).value().column_iterations, 0) << what;

    vdep::ExecPolicy jit = compiled;
    jit.backend(vdep::ExecBackend::kJit);
    vdep::ExecReport rj = mm.check(jit).value();
    EXPECT_EQ(rj.column_iterations, rj.jit ? 0 : rj.iterations) << what;

    std::vector<vdep::BatchRequest> reqs = {
        {mm, nullptr}, {tri, nullptr}, {ex42, nullptr}};
    std::vector<vdep::ExecReport> reps =
        vdep::execute_batch(reqs, compiled).value();
    EXPECT_EQ(reps[0].column_iterations, reps[0].iterations) << what;
    EXPECT_EQ(reps[1].column_iterations, reps[1].iterations) << what;
    EXPECT_EQ(reps[2].column_iterations, 0) << what;
  }
}

TEST(ColumnRuns, PermutedPlansMatchTheInterpreterSingleAndBatched) {
  // The plans whose column level the permutation moves innermost, through
  // the API at 1, 2 and 8 workers, default grain and grain 1: kCompiled
  // leaves the kInterpreter store bit for bit and runs every iteration as
  // a column, in a single execute() and as requests of one batch.
  vdep::Compiler compiler;
  const std::vector<loopir::LoopNest> nests = {core::example41(40),
                                               core::triangular_uniform(40),
                                               core::variable_3deep(8)};
  std::vector<vdep::CompiledLoop> loops;
  std::vector<exec::ArrayStore> inits;
  for (const loopir::LoopNest& n : nests) {
    loops.push_back(compiler.compile(n).value());
    inits.emplace_back(n);
    inits.back().fill_pattern();
  }
  for (std::size_t threads : {1u, 2u, 8u}) {
    for (i64 grain : {i64{0}, i64{1}}) {
      const std::string what = "threads=" + std::to_string(threads) +
                               " grain=" + std::to_string(grain);
      vdep::ExecPolicy compiled;
      compiled.threads(threads).grain(grain).backend(
          vdep::ExecBackend::kCompiled);
      vdep::ExecPolicy interp = compiled;
      interp.backend(vdep::ExecBackend::kInterpreter);
      std::vector<exec::ArrayStore> single = inits, batched = inits,
                                    want = inits;
      std::vector<vdep::BatchRequest> reqs;
      for (std::size_t k = 0; k < loops.size(); ++k) {
        vdep::ExecReport r = loops[k].execute(compiled, single[k]).value();
        EXPECT_EQ(r.column_iterations, r.iterations) << k << " " << what;
        (void)loops[k].execute(interp, want[k]).value();
        EXPECT_EQ(single[k], want[k]) << k << " " << what;
        reqs.push_back({loops[k], &batched[k]});
      }
      std::vector<vdep::ExecReport> reps =
          vdep::execute_batch(reqs, compiled).value();
      for (std::size_t k = 0; k < loops.size(); ++k) {
        EXPECT_EQ(reps[k].column_iterations, reps[k].iterations)
            << k << " " << what;
        EXPECT_EQ(batched[k], want[k]) << k << " " << what;
      }
    }
  }
}

TEST(ColumnRuns, OverflowMidColumnIsTyped) {
  // A[i1][i2] = B[i1][i2] * B[i1][i2] over a 300-long DOALL column; only
  // B[1][200] squares past int64. kCompiled fails kOverflow at 1 and 4
  // workers with the interpreter's message, which names that element's
  // operands. With B[1][200] benign the same nest runs every iteration as
  // a column, so the failing run went through the column path.
  loopir::LoopNestBuilder b;
  b.loop("i1", 0, 1).loop("i2", 0, 299);
  b.array("A", {{0, 1}, {0, 299}});
  b.array("B", {{0, 1}, {0, 299}});
  b.assign(b.ref("A", {b.idx(0), b.idx(1)}),
           loopir::Expr::mul(b.read("B", {b.idx(0), b.idx(1)}),
                             b.read("B", {b.idx(0), b.idx(1)})));
  vdep::Compiler compiler;
  vdep::CompiledLoop loop = compiler.compile(b.build()).value();
  exec::ArrayStore benign(loop.nest());
  benign.fill_pattern();
  exec::ArrayStore hostile = benign;
  hostile.write("B", Vec{1, 200}, i64{1} << 40);
  const std::string message =
      "int64 overflow in mul(1099511627776, 1099511627776)";
  for (std::size_t threads : {1u, 4u}) {
    const std::string what = "threads=" + std::to_string(threads);
    vdep::ExecPolicy policy;
    policy.threads(threads).backend(vdep::ExecBackend::kCompiled);
    exec::ArrayStore ok = benign;
    vdep::ExecReport r = loop.execute(policy, ok).value();
    EXPECT_EQ(r.column_iterations, r.iterations) << what;

    exec::ArrayStore bad = hostile;
    vdep::Expected<vdep::ExecReport> e = loop.execute(policy, bad);
    ASSERT_FALSE(e.has_value()) << what;
    EXPECT_EQ(e.error().kind, vdep::ErrorKind::kOverflow) << what;
    EXPECT_NE(e.error().message.find(message), std::string::npos)
        << what << ": " << e.error().message;

    exec::ArrayStore bad_interp = hostile;
    vdep::Expected<vdep::ExecReport> ei = loop.execute(
        vdep::ExecPolicy{policy}.backend(vdep::ExecBackend::kInterpreter),
        bad_interp);
    ASSERT_FALSE(ei.has_value()) << what;
    EXPECT_NE(ei.error().message.find(message), std::string::npos)
        << what << ": " << ei.error().message;
  }
}

TEST(StagedApi, InnerSplitReporting) {
  // The single-axis contrast (zero inner splits, same store) is
  // Streaming.SkewedNestSplitsInnerAxesBitIdentically' StreamOptions::split_dims
  // half.
  vdep::Compiler compiler;
  vdep::CompiledLoop loop = compiler.compile(core::skewed_extent(520)).value();

  vdep::ExecReport nd =
      loop.check(vdep::ExecPolicy{}.threads(8)).value();
  EXPECT_TRUE(nd.verified);
  EXPECT_GT(nd.inner_splits, 0);
}

// ---------------------------------------------------------------- driver

/// One unsplittable source whose leaf records where it ran.
struct Probe {
  std::thread::id thread;
  std::vector<int> mask;
  std::atomic<int> leaves{0};
};

DriveSource probe_source(Probe& probe, bool throws = false) {
  DriveSource src;
  src.root = box({}, 0, 1);
  src.leaf = [&probe, throws](const TaskDescriptor&, WorkerStats& stats,
                              LeafScratch&) {
    probe.thread = std::this_thread::get_id();
    probe.mask = topo::CpuSet::current().cpus();
    ++probe.leaves;
    ++stats.iterations;
    if (throws) throw Error("leaf failed");
  };
  return src;
}

TEST(Driver, UnsplittableRootRunsOnCaller) {
  ThreadPool pool(4);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    const std::vector<int> before = topo::CpuSet::current().cpus();
    Probe probe;
    const DriveSource src = probe_source(probe);
    RuntimeStats rs = drive_descriptors({&src, 1}, {4, {}}, p);
    EXPECT_FALSE(rs.error);
    EXPECT_EQ(probe.leaves.load(), 1);
    EXPECT_EQ(probe.thread, std::this_thread::get_id()) << "pool=" << !!p;
    EXPECT_EQ(probe.mask, before) << "pool=" << !!p;
    EXPECT_EQ(topo::CpuSet::current().cpus(), before);
    EXPECT_EQ(rs.workers_used, 1);
    EXPECT_EQ(rs.workers.size(), 4u);
    EXPECT_EQ(rs.total_tasks(), 1);
    EXPECT_EQ(rs.total_tasks(), rs.total_splits() + 1);
    EXPECT_EQ(rs.total_steals(), 0);
    EXPECT_EQ(rs.total_iterations(), 1);
    ASSERT_EQ(rs.sources.size(), 1u);
    EXPECT_EQ(rs.sources[0].tasks, 1);
    EXPECT_GT(rs.sources[0].done_ns, 0);
    EXPECT_GT(rs.sources[0].queue_ns, 0);

    Probe failing;
    const DriveSource bad = probe_source(failing, /*throws=*/true);
    RuntimeStats err = drive_descriptors({&bad, 1}, {4, {}}, p);
    ASSERT_TRUE(err.error) << "pool=" << !!p;
    EXPECT_EQ(err.error_source, 0);
    EXPECT_EQ(failing.thread, std::this_thread::get_id());
    EXPECT_THROW(std::rethrow_exception(err.error), Error);
  }
}

TEST(Driver, FewerPiecesThanWorkers) {
  // Two unsplittable sources at four workers: two contexts, one piece each.
  ThreadPool pool(4);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    Probe a, b;
    const DriveSource sources[] = {probe_source(a), probe_source(b)};
    RuntimeStats rs = drive_descriptors(sources, {4, {}}, p);
    EXPECT_FALSE(rs.error);
    EXPECT_EQ(a.leaves.load(), 1);
    EXPECT_EQ(b.leaves.load(), 1);
    EXPECT_EQ(rs.workers_used, 2) << "pool=" << !!p;
    EXPECT_EQ(rs.workers.size(), 4u);
    ASSERT_EQ(rs.sources.size(), 2u);
    for (const SourceStats& st : rs.sources) {
      EXPECT_EQ(st.tasks, 1);
      EXPECT_EQ(st.splits, 0);
      EXPECT_EQ(st.iterations, 1);
    }
  }
}

TEST(Driver, SplittableRootUsesEveryWorker) {
  loopir::LoopNest nest = core::skewed_extent(4096);
  StreamOptions so;
  so.num_threads = 4;
  StreamExecutor ex(nest, plan_for(nest), so);
  exec::ArrayStore store(nest);
  store.fill_pattern();
  EXPECT_EQ(ex.run(store).workers_used, 4);
}

/// Holds every thread of `pool` inside a task of its own until release(),
/// so helpers queued meanwhile start only after that.
class PoolLatch {
 public:
  explicit PoolLatch(ThreadPool& pool)
      : holder_([this, &pool] {
          pool.parallel_for(static_cast<std::int64_t>(pool.size()) + 1,
                            [this](std::int64_t) {
                              entered_.fetch_add(1);
                              while (!open_.load()) open_.wait(false);
                            });
        }) {
    while (entered_.load() < pool.size() + 1) std::this_thread::yield();
  }
  ~PoolLatch() { release(); }

  void release() {
    if (!holder_.joinable()) return;
    open_.store(true);
    open_.notify_all();
    holder_.join();
  }

 private:
  std::atomic<std::size_t> entered_{0};
  std::atomic<bool> open_{false};
  std::thread holder_;
};

/// A splittable 1-axis source over the cells of `cells` at grain `grain`
/// whose leaves count each cell they cover (a box's bounds are inclusive).
DriveSource counting_source(std::vector<std::atomic<int>>& cells,
                            i64 grain = 1) {
  DriveSource src;
  src.root = task(0, static_cast<i64>(cells.size()) - 1, 0, 1);
  src.grain = grain;
  src.leaf = [&cells](const TaskDescriptor& t, WorkerStats& stats,
                      LeafScratch&) {
    for (i64 i = t.lo[0]; i <= t.hi[0]; ++i) {
      ++cells[static_cast<std::size_t>(i)];
      ++stats.iterations;
    }
  };
  return src;
}

TEST(Driver, HelpersThatStartAfterTheRunTouchNothingOfIt) {
  // The pool's threads are held for the whole run, so its helpers start
  // only after drive_descriptors returned and the sources, their leaves
  // and the cells they wrote were destroyed (ASan reports any touch).
  // The caller runs every leaf, stealing the pieces seeded for the three
  // contexts that never started.
  ThreadPool pool(3);
  {
    PoolLatch latch(pool);
    auto cells = std::make_unique<std::vector<std::atomic<int>>>(256);
    auto src = std::make_unique<DriveSource>(counting_source(*cells, 8));
    const LeafFn count = src->leaf;
    src->leaf = [count](const TaskDescriptor& t, WorkerStats& stats,
                        LeafScratch& scratch) {
      EXPECT_EQ(scratch.worker, 0);
      count(t, stats, scratch);
    };
    const RuntimeStats rs =
        drive_descriptors({src.get(), 1}, {4, {}}, &pool);
    EXPECT_FALSE(rs.error);
    EXPECT_EQ(rs.workers_used, 4);
    EXPECT_EQ(rs.total_iterations(), 256);
    EXPECT_EQ(rs.total_tasks(), 32);
    EXPECT_EQ(rs.total_steals(), 3);
    for (std::size_t k = 1; k < 4; ++k) {
      EXPECT_EQ(rs.workers[k].tasks, 0) << k;
      EXPECT_EQ(rs.workers[k].idle_ns, 0) << k;
    }
    for (const std::atomic<int>& c : *cells) EXPECT_EQ(c.load(), 1);
    src.reset();
    cells.reset();
    latch.release();
  }
  // The pool's destructor runs the queued helpers before it joins.
}

TEST(Driver, BackToBackRunsWhileHelpersStillLeave) {
  // Each run's sources and cells die as the run returns, while its
  // helpers may still be leaving; the next run starts at once on the
  // same pool. Then pools that die right after their run.
  auto one_run = [](ThreadPool& pool, int r) {
    std::vector<std::atomic<int>> a(64 + r % 7), b(33);
    const DriveSource sources[] = {counting_source(a),
                                   counting_source(b, 4)};
    const RuntimeStats rs = drive_descriptors(sources, {4, {}}, &pool);
    EXPECT_FALSE(rs.error);
    EXPECT_EQ(rs.sources[0].iterations, static_cast<i64>(a.size()));
    EXPECT_EQ(rs.sources[1].iterations, 33);
    EXPECT_EQ(rs.total_tasks(), rs.total_splits() + 2);
    for (const std::atomic<int>& c : a) EXPECT_EQ(c.load(), 1);
    for (const std::atomic<int>& c : b) EXPECT_EQ(c.load(), 1);
  };
  ThreadPool pool(3);
  for (int r = 0; r < 200; ++r) one_run(pool, r);
  for (int r = 0; r < 20; ++r) {
    auto short_lived = std::make_unique<ThreadPool>(3);
    one_run(*short_lived, r);
    short_lived.reset();
  }
}

TEST(Driver, LeafErrorDrainsTheRunAndNoLeafStartsAfterReturn) {
  // Source 1 throws at its one leaf while source 0 still has descriptors
  // queued. The error comes back with its source index, every leaf that
  // ran is counted, and none starts after the return.
  ThreadPool pool(3);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    auto started = std::make_shared<std::atomic<int>>(0);
    DriveSource many;
    many.root = task(0, 4095, 0, 1);
    many.leaf = [started](const TaskDescriptor&, WorkerStats& stats,
                          LeafScratch&) {
      ++*started;
      ++stats.iterations;
    };
    DriveSource bad = many;
    bad.root = task(0, 0, 0, 1);
    bad.leaf = [](const TaskDescriptor&, WorkerStats&, LeafScratch&) {
      throw Error("bad leaf");
    };
    const DriveSource sources[] = {many, bad};
    const RuntimeStats rs = drive_descriptors(sources, {4, {}}, p);
    ASSERT_TRUE(rs.error) << "pool=" << !!p;
    EXPECT_EQ(rs.error_source, 1);
    EXPECT_THROW(std::rethrow_exception(rs.error), Error);
    const int at_return = started->load();
    EXPECT_EQ(rs.sources[0].tasks, at_return);
    EXPECT_EQ(rs.sources[1].tasks, 0);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_EQ(started->load(), at_return) << "pool=" << !!p;
  }
  // One context pops the failing source's piece first (it was pushed
  // last), so every descriptor of the other retires without running.
  auto started = std::make_shared<std::atomic<int>>(0);
  DriveSource many;
  many.root = task(0, 63, 0, 1);
  many.leaf = [started](const TaskDescriptor&, WorkerStats&, LeafScratch&) {
    ++*started;
  };
  DriveSource bad = many;
  bad.root = task(0, 0, 0, 1);
  bad.leaf = [](const TaskDescriptor&, WorkerStats&, LeafScratch&) {
    throw Error("bad leaf");
  };
  const DriveSource sources[] = {many, bad};
  const RuntimeStats rs = drive_descriptors(sources, {1, {}});
  EXPECT_EQ(rs.error_source, 1);
  EXPECT_EQ(started->load(), 0);
  EXPECT_EQ(rs.total_tasks(), 0);
}

TEST(Driver, IdleTimeAndTraceAreCompleteAtReturn) {
  // The caller closes every context's open idle episode at the run's end:
  // the kIdle events of a run all end at one instant, no context idles
  // longer than the run, and no helper records after the return.
  obs::TraceRecorder& rec = obs::TraceRecorder::instance();
  rec.enable();
  rec.clear();
  auto pool = std::make_unique<ThreadPool>(3);
  std::vector<std::atomic<int>> cells(512);
  const DriveSource src = counting_source(cells);
  const RuntimeStats rs = drive_descriptors({&src, 1}, {4, {}}, pool.get());
  EXPECT_FALSE(rs.error);
  for (const WorkerStats& w : rs.workers) EXPECT_LE(w.idle_ns, rs.wall_ns);
  std::vector<i64> idle_ends;
  bool caller_idle = false;
  rec.for_each_event([&](std::size_t, const obs::TraceEvent& ev) {
    if (ev.kind != obs::EventKind::kIdle) return;
    idle_ends.push_back(ev.start_ns + ev.dur_ns);
    caller_idle = caller_idle || ev.worker == 0;
  });
  const std::size_t events = rec.event_count();
  EXPECT_TRUE(caller_idle);
  for (i64 end : idle_ends) EXPECT_EQ(end, idle_ends.front());
  pool.reset();  // every helper has left
  EXPECT_EQ(rec.event_count(), events);
  rec.disable();
  rec.clear();
}

// ------------------------------------------------------------ class rule

using test_inputs::blocked;
using test_inputs::row_parity;

TEST(ClassRule, FlagsClassesThatShareCacheLines) {
  struct Row {
    const char* name;
    loopir::LoopNest nest;
    i64 classes;
    bool splits_classes;
  };
  const Row rows[] = {
      // A[i1 - 2 i2 + c]: classes interleave within a few cells.
      {"example42", core::example42(16), 4, false},
      // H = diag(2, 2): the class of (i1, i2 + 1) is one cell away.
      {"uniform_blocked", core::uniform_blocked(16), 4, false},
      // Row parity: distinct classes are whole rows (>= 17 cells) apart.
      {"row_parity", row_parity(16), 2, true},
      // H = diag(64, 64): 127^2 offsets, past the enumeration cap.
      {"over_cap", blocked(200, 64, 64), 64 * 64, true},
  };
  for (const Row& r : rows) {
    StreamOptions so;
    so.num_threads = 4;
    StreamExecutor ex(r.nest, plan_for(r.nest), so);
    EXPECT_EQ(ex.num_classes(), r.classes) << r.name;
    EXPECT_EQ(ex.splits_classes(), r.splits_classes) << r.name;
    EXPECT_EQ(classes_share_lines(r.nest, plan_for(r.nest)),
              !r.splits_classes)
        << r.name;
    exec::ArrayStore store(r.nest);
    EXPECT_EQ(ex.source(store).limits.classes, r.splits_classes) << r.name;
  }
}

TEST(ClassRule, FlaggedPlansRunOnOneWorkerBitIdentically) {
  for (const loopir::LoopNest& nest :
       {core::example42(16), core::uniform_blocked(16)}) {
    exec::ArrayStore ref(nest);
    ref.fill_pattern();
    exec::run_sequential(nest, ref);
    StreamOptions so;
    so.num_threads = 4;
    StreamExecutor ex(nest, plan_for(nest), so);
    exec::ArrayStore store(nest);
    store.fill_pattern();
    RuntimeStats rs = ex.run(store);
    EXPECT_TRUE(store == ref);
    EXPECT_EQ(rs.workers_used, 1);
    EXPECT_EQ(rs.total_tasks(), 1);
    EXPECT_EQ(rs.total_axis_splits(TaskDescriptor::kClassAxis), 0);
  }
}

TEST(ClassRule, RowParityClassesStillSplitAtFourWorkers) {
  loopir::LoopNest nest = row_parity(16);
  exec::ArrayStore ref(nest);
  ref.fill_pattern();
  exec::run_sequential(nest, ref);
  StreamOptions so;
  so.num_threads = 4;
  StreamExecutor ex(nest, plan_for(nest), so);
  exec::ArrayStore store(nest);
  store.fill_pattern();
  RuntimeStats rs = ex.run(store);
  EXPECT_TRUE(store == ref);
  EXPECT_GT(rs.total_axis_splits(TaskDescriptor::kClassAxis), 0);
  EXPECT_EQ(rs.workers_used, 2);
}

// ----------------------------------------------------------------- stats

TEST(Stats, TasksEqualSplitsPlusOne) {
  // Every split turns one descriptor into two, so leaves == splits + 1.
  for (const core::NamedNest& c : core::paper_suite(6)) {
    for (std::size_t threads : {1u, 3u}) {
      StreamOptions so;
      so.num_threads = threads;
      StreamExecutor ex(c.nest, plan_for(c.nest), so);
      exec::ArrayStore store(c.nest);
      store.fill_pattern();
      RuntimeStats rs = ex.run(store);
      if (c.nest.iteration_count() == 0) continue;
      EXPECT_EQ(rs.total_tasks(), rs.total_splits() + 1) << c.name;
      EXPECT_LE(rs.total_steals(), rs.total_tasks()) << c.name;
      EXPECT_EQ(rs.total_iterations(), c.nest.iteration_count()) << c.name;
      EXPECT_EQ(rs.workers.size(), threads);
    }
  }
}

TEST(Stats, SingleThreadNeverSteals) {
  loopir::LoopNest nest = core::example42(8);
  StreamOptions so;
  so.num_threads = 1;
  StreamExecutor ex(nest, plan_for(nest), so);
  exec::ArrayStore store(nest);
  store.fill_pattern();
  RuntimeStats rs = ex.run(store);
  EXPECT_EQ(rs.total_steals(), 0);
  EXPECT_GT(rs.total_tasks(), 0);
  EXPECT_GT(rs.wall_ns, 0);
  EXPECT_GE(rs.max_busy_ns(), 0);
  EXPECT_FALSE(rs.to_string().empty());
}

TEST(Stats, DescriptorCountIsIndependentOfIterationCount) {
  // The whole point: schedule state scales with descriptors, not with the
  // iteration space. Ten times the space must not mean ten times the tasks.
  auto run_at = [](const loopir::LoopNest& nest) {
    StreamOptions so;
    so.num_threads = 2;
    StreamExecutor ex(nest, plan_for(nest), so);
    exec::ArrayStore store(nest);
    store.fill_pattern();
    return ex.run(store);
  };
  i64 small = run_at(core::example42(10)).total_tasks();
  i64 big = run_at(core::example42(100)).total_tasks();
  EXPECT_LE(big, 4 * small + 64);  // bounded by splitting policy, not by n^2
  // example42's classes share cache lines, so its range stays whole; the
  // row-parity nest's classes do split, across both workers. (Its cells
  // sum two predecessors, so n = 40 keeps them inside int64.)
  const RuntimeStats parity_small = run_at(row_parity(10));
  const RuntimeStats parity_big = run_at(row_parity(40));
  for (const RuntimeStats* rs : {&parity_small, &parity_big}) {
    EXPECT_GT(rs->total_axis_splits(TaskDescriptor::kClassAxis), 0);
    EXPECT_EQ(rs->workers_used, 2);
  }
  EXPECT_LE(parity_big.total_tasks(), 4 * parity_small.total_tasks() + 64);
}

// ------------------------------------------------------------ staged API

TEST(StagedApi, CheckRunsWholeSuiteOnPool) {
  vdep::Compiler compiler;
  ThreadPool pool(3);
  for (const core::NamedNest& c : core::paper_suite(5)) {
    vdep::CompiledLoop loop = compiler.compile(c.nest).value();
    // check() errors on any divergence from the sequential reference.
    vdep::ExecReport r = loop.check(vdep::ExecPolicy{}, pool).value();
    EXPECT_TRUE(r.verified) << c.name;
    EXPECT_GT(r.tasks, 0) << c.name;
  }
}

}  // namespace
}  // namespace vdep::runtime
