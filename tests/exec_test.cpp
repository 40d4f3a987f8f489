// Tests for the execution substrate: interpreter, schedules and their
// streaming execution, schedule verifier and the ISDG builder — end-to-end
// semantics preservation of the paper's transformations.
#include <gtest/gtest.h>

#include <memory>

#include "codegen/rewrite.h"
#include "core/suite.h"
#include "dep/pdm.h"
#include "exec/compiled.h"
#include "exec/isdg.h"
#include "exec/verify.h"
#include "loopir/builder.h"
#include "runtime/stream_executor.h"
#include "support/rng.h"
#include "trans/planner.h"

#include "indirect_inputs.h"

namespace vdep::exec {
namespace {

using loopir::Expr;
using loopir::LoopNest;
using loopir::LoopNestBuilder;

LoopNest example41(i64 n) {
  LoopNestBuilder b;
  b.loop("i1", -n, n).loop("i2", -n, n);
  i64 ext = 5 * n + 10;
  b.array("A", {{-ext, ext}, {-ext, ext}});
  b.assign(b.ref("A", {b.affine({3, -2}, 2), b.affine({-2, 3}, -2)}),
           Expr::add(Expr::add(b.read("A", {b.idx(0), b.idx(1)}),
                               b.read("A", {b.affine({1, 0}, 2),
                                            b.affine({0, 1}, -2)})),
                     Expr::constant(1)));
  return b.build();
}

LoopNest example42(i64 n) {
  LoopNestBuilder b;
  b.loop("i1", -n, n).loop("i2", -n, n);
  i64 ext = 3 * n + 10;
  b.array("A", {{-ext, ext}});
  b.array("B", {{-n, n}, {-n, n}});
  b.assign(b.ref("A", {b.affine({1, -2}, 4)}),
           Expr::add(b.read("A", {b.affine({1, -2}, 0)}), Expr::constant(1)));
  b.assign(b.ref("B", {b.idx(0), b.idx(1)}),
           b.read("A", {b.affine({1, -2}, 8)}));
  return b.build();
}

trans::TransformPlan plan_for(const LoopNest& nest) {
  return trans::plan_transform(dep::compute_pdm(nest));
}

// ----------------------------------------------------------- ArrayStore

TEST(ArrayStore, ReadWriteRoundTrip) {
  LoopNest nest = example42(3);
  ArrayStore s(nest);
  s.write("A", Vec{-5}, 42);
  EXPECT_EQ(s.read("A", Vec{-5}), 42);
  EXPECT_EQ(s.read("A", Vec{0}), 0);
  EXPECT_THROW(s.read("A", Vec{1000}), PreconditionError);
  EXPECT_THROW(s.read("Ghost", Vec{0}), PreconditionError);
}

TEST(ArrayStore, FillPatternDeterministic) {
  LoopNest nest = example42(3);
  ArrayStore a(nest), b(nest);
  a.fill_pattern();
  b.fill_pattern();
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.checksum(), b.checksum());
  ArrayStore c(nest);
  EXPECT_NE(a, c);
}

// ---------------------------------------------------------- interpreter

TEST(Interpreter, MatchesHandComputedKernel) {
  // A[i+1] = A[i] + 1 over i in [0, 4]: propagates A[0] forward.
  LoopNestBuilder b;
  b.loop("i", 0, 4);
  b.array("A", {{0, 5}});
  b.assign(b.ref("A", {b.affine({1}, 1)}),
           Expr::add(b.read("A", {b.idx(0)}), Expr::constant(1)));
  LoopNest nest = b.build();
  ArrayStore s(nest);
  s.write("A", Vec{0}, 7);
  run_sequential(nest, s);
  for (i64 k = 0; k <= 5; ++k) EXPECT_EQ(s.read("A", Vec{k}), 7 + k);
}

TEST(Interpreter, EvaluatesIndexAndMulNodes) {
  LoopNestBuilder b;
  b.loop("i", 1, 3);
  b.array("A", {{0, 3}});
  // A[i] = i * (i + 2)
  b.assign(b.ref("A", {b.idx(0)}),
           Expr::mul(Expr::index(0), Expr::add(Expr::index(0), Expr::constant(2))));
  LoopNest nest = b.build();
  ArrayStore s(nest);
  run_sequential(nest, s);
  EXPECT_EQ(s.read("A", Vec{1}), 3);
  EXPECT_EQ(s.read("A", Vec{2}), 8);
  EXPECT_EQ(s.read("A", Vec{3}), 15);
}

// --------------------------------------------------------------- runner

TEST(Runner, ScheduleCoversIterationSpaceExactly) {
  LoopNest nest = example41(5);
  Schedule sched = build_schedule(nest, plan_for(nest));
  EXPECT_EQ(sched.total_iterations(), nest.iteration_count());
  VerifyResult v = verify_schedule(nest, sched);
  EXPECT_TRUE(v.ok) << (v.violations.empty() ? "" : v.violations[0].reason);
}

TEST(Runner, Example41ParallelismShape) {
  // 1 DOALL loop (width 4N+1) x 2 partition classes; empty combos dropped.
  LoopNest nest = example41(5);
  Schedule sched = build_schedule(nest, plan_for(nest));
  EXPECT_GE(sched.parallelism(), 2 * (4 * 5 + 1) - 2);
  EXPECT_LE(sched.max_item_size(), 2 * 5 + 1);
}

TEST(Runner, Example42FourClassItems) {
  LoopNest nest = example42(5);
  Schedule sched = build_schedule(nest, plan_for(nest));
  EXPECT_EQ(sched.parallelism(), 4);  // det(H) = 4 independent classes
  EXPECT_EQ(sched.total_iterations(), nest.iteration_count());
}

/// Runs `plan` over `store` through the streaming runtime, one worker
/// context per `pool` thread.
runtime::RuntimeStats run_streaming(const LoopNest& nest,
                                    const trans::TransformPlan& plan,
                                    ArrayStore& store, ThreadPool& pool) {
  runtime::StreamOptions so;
  so.num_threads = pool.size();
  return runtime::StreamExecutor(nest, plan, so).run(store, pool);
}

TEST(Runner, ParallelExecutionMatchesSequential41) {
  LoopNest nest = example41(6);
  ThreadPool pool(4);
  ArrayStore ref(nest);
  ref.fill_pattern();
  ArrayStore par = ref;
  run_sequential(nest, ref);
  runtime::RuntimeStats stats = run_streaming(nest, plan_for(nest), par, pool);
  EXPECT_EQ(ref, par);
  EXPECT_EQ(stats.total_iterations(), nest.iteration_count());
}

TEST(Runner, ParallelExecutionMatchesSequential42) {
  LoopNest nest = example42(6);
  ThreadPool pool(4);
  ArrayStore ref(nest);
  ref.fill_pattern();
  ArrayStore par = ref;
  run_sequential(nest, ref);
  run_streaming(nest, plan_for(nest), par, pool);
  EXPECT_EQ(ref, par);
}

TEST(Runner, ScheduledSerialAlsoMatches) {
  LoopNest nest = example41(4);
  ArrayStore ref(nest);
  ref.fill_pattern();
  ArrayStore got = ref;
  run_sequential(nest, ref);
  run_scheduled_serial(nest, plan_for(nest), got);
  EXPECT_EQ(ref, got);
}

TEST(RunnerProperty, RandomLoopsPreserveSemantics) {
  Rng rng(987654321);
  ThreadPool pool(3);
  int planned_parallel = 0;
  for (int iter = 0; iter < 25; ++iter) {
    LoopNestBuilder b;
    b.loop("i1", -3, 3).loop("i2", -3, 3);
    b.array("A", {{-80, 80}});
    loopir::AffineExpr w = b.affine({rng.uniform(-2, 2), rng.uniform(-2, 2)},
                                    rng.uniform(-3, 3));
    loopir::AffineExpr r = b.affine({rng.uniform(-2, 2), rng.uniform(-2, 2)},
                                    rng.uniform(-3, 3));
    b.assign(b.ref("A", {w}), Expr::add(b.read("A", {r}), Expr::constant(1)));
    LoopNest nest = b.build();
    trans::TransformPlan plan = plan_for(nest);
    if (plan.num_doall > 0 || plan.partition_classes > 1) ++planned_parallel;

    ArrayStore ref(nest);
    ref.fill_pattern();
    ArrayStore par = ref;
    run_sequential(nest, ref);
    run_streaming(nest, plan, par, pool);
    EXPECT_EQ(ref, par) << nest.to_string() << plan.to_string();

    Schedule sched = build_schedule(nest, plan);
    VerifyResult v = verify_schedule(nest, sched);
    EXPECT_TRUE(v.ok) << nest.to_string()
                      << (v.violations.empty() ? "" : v.violations[0].reason);
  }
  EXPECT_GE(planned_parallel, 2);  // the space should contain parallel wins
}

// --------------------------------------------------------------- verify

TEST(Verify, DetectsIllegalInterchange) {
  // A[i1][i2] = A[i1-1][i2+1] has direction (<,>): interchanging the loops
  // reverses dependences. Build the (illegal) plan by hand.
  LoopNestBuilder b;
  b.loop("i1", 0, 5).loop("i2", 0, 5);
  b.array("A", {{-2, 8}, {-2, 8}});
  b.assign(b.ref("A", {b.idx(0), b.idx(1)}),
           b.read("A", {b.affine({1, 0}, -1), b.affine({0, 1}, 1)}));
  LoopNest nest = b.build();

  trans::TransformPlan bad;
  bad.depth = 2;
  bad.t = trans::interchange(2, 0, 1);
  bad.transformed_pdm = intlin::Mat(0, 2);
  bad.num_doall = 0;
  Schedule sched = build_schedule(nest, bad);
  VerifyResult v = verify_schedule(nest, sched);
  EXPECT_FALSE(v.ok);
  ASSERT_FALSE(v.violations.empty());
  EXPECT_NE(v.violations[0].reason.find("reordered"), std::string::npos);
}

TEST(Verify, DetectsCrossItemConflicts) {
  // Declaring the dependent loop DOALL splits dependent iterations across
  // items.
  LoopNestBuilder b;
  b.loop("i1", 0, 5);
  b.array("A", {{-1, 7}});
  b.assign(b.ref("A", {b.affine({1}, 1)}), b.read("A", {b.idx(0)}));
  LoopNest nest = b.build();
  trans::TransformPlan bad;
  bad.depth = 1;
  bad.t = intlin::Mat::identity(1);
  bad.transformed_pdm = intlin::Mat(0, 1);
  bad.num_doall = 1;  // wrong: the loop carries a dependence
  Schedule sched = build_schedule(nest, bad);
  VerifyResult v = verify_schedule(nest, sched);
  EXPECT_FALSE(v.ok);
  ASSERT_FALSE(v.violations.empty());
  EXPECT_NE(v.violations[0].reason.find("different work items"),
            std::string::npos);
}

TEST(Verify, DetectsMissingIteration) {
  LoopNestBuilder b;
  b.loop("i1", 0, 3);
  b.array("A", {{0, 3}});
  b.assign(b.ref("A", {b.idx(0)}), Expr::constant(1));
  LoopNest nest = b.build();
  Schedule sched;
  sched.items.push_back({Vec{0}, Vec{1}, Vec{2}});  // missing {3}
  VerifyResult v = verify_schedule(nest, sched);
  EXPECT_FALSE(v.ok);
}

TEST(Verify, DetectsDuplicateIteration) {
  LoopNestBuilder b;
  b.loop("i1", 0, 1);
  b.array("A", {{0, 1}});
  b.assign(b.ref("A", {b.idx(0)}), Expr::constant(1));
  LoopNest nest = b.build();
  Schedule sched;
  sched.items.push_back({Vec{0}, Vec{1}, Vec{1}});
  VerifyResult v = verify_schedule(nest, sched);
  EXPECT_FALSE(v.ok);
}

// ----------------------------------------------------------- compiled

TEST(Compiled, MatchesInterpreterOnExample41) {
  LoopNest nest = example41(5);
  ArrayStore a(nest), b(nest);
  a.fill_pattern();
  b.fill_pattern();
  run_sequential(nest, a);
  CompiledKernel kernel(nest);
  kernel.run_sequential(b);
  EXPECT_EQ(a, b);
}

TEST(Compiled, MatchesInterpreterOnExample42) {
  LoopNest nest = example42(5);
  ArrayStore a(nest), b(nest);
  a.fill_pattern();
  b.fill_pattern();
  run_sequential(nest, a);
  CompiledKernel(nest).run_sequential(b);
  EXPECT_EQ(a, b);
}

TEST(Compiled, EvaluatesIndexVariablesAndProducts) {
  LoopNestBuilder b;
  b.loop("i", 1, 5);
  b.array("A", {{0, 5}});
  b.assign(b.ref("A", {b.idx(0)}),
           Expr::mul(Expr::index(0), Expr::add(Expr::index(0), Expr::constant(2))));
  LoopNest nest = b.build();
  ArrayStore s(nest);
  CompiledKernel(nest).run_sequential(s);
  EXPECT_EQ(s.read("A", Vec{4}), 24);
}

TEST(Compiled, RejectsOutOfRangeSubscript) {
  LoopNestBuilder b;
  b.loop("i", 0, 10);
  b.array("A", {{0, 5}});  // too small for A[i]
  b.assign(b.ref("A", {b.idx(0)}), Expr::constant(1));
  LoopNest nest = b.build();
  // One proof: the JIT's refusal kind, reported by the kernel as its own.
  EXPECT_THROW((void)prove_subscript_ranges(nest), UnsupportedError);
  EXPECT_THROW(CompiledKernel{nest}, PreconditionError);
}

TEST(Compiled, OverflowThrowsLikeTheInterpreter) {
  // uniform_wavefront's values are binomial in n: at 60 they leave int64.
  LoopNest nest = core::uniform_wavefront(60);
  ArrayStore s(nest);
  s.fill_pattern();
  EXPECT_THROW(CompiledKernel(nest).run_sequential(s), OverflowError);
}

TEST(Compiled, ExecuteRowMatchesExecuteIteration) {
  // execute_iteration is a wrapper over execute_row: driven over the same
  // iteration order, the row form and the vector form leave identical
  // stores — on affine nests, on every indirect input, and on a nest whose
  // body overflows, where both must throw at the same iteration.
  struct Case {
    std::string name;
    LoopNest nest;
    ArrayStore init;
  };
  std::vector<Case> cases;
  for (LoopNest nest :
       {example41(5), example42(5), core::uniform_wavefront(60)}) {
    ArrayStore init(nest);
    init.fill_pattern();
    cases.push_back({nest.to_string(), nest, std::move(init)});
  }
  for (const test_inputs::IndirectInput& in : test_inputs::indirect_inputs())
    cases.push_back({in.name, in.nest, test_inputs::initial_store(in)});
  int overflowed = 0;
  for (Case& c : cases) {
    ArrayStore by_vec = c.init, by_row = c.init;
    const CompiledKernel kernel(c.nest);
    const BufferTable vec_bufs = kernel.bind(by_vec);
    const BufferTable row_bufs = kernel.bind(by_row);
    CompiledKernel::Scratch vec_scratch;
    CompiledKernel::Scratch row_scratch;
    i64 rank = 0, vec_fail = -1, row_fail = -1;
    c.nest.for_each_iteration([&](const Vec& it) {
      if (vec_fail < 0) {
        try {
          kernel.execute_iteration(vec_bufs, it, vec_scratch);
        } catch (const OverflowError&) {
          vec_fail = rank;
        }
      }
      if (row_fail < 0) {
        try {
          kernel.execute_row(row_bufs, it.data(), row_scratch);
        } catch (const OverflowError&) {
          row_fail = rank;
        }
      }
      ++rank;
    });
    EXPECT_EQ(vec_fail, row_fail) << c.name;
    EXPECT_EQ(by_vec, by_row) << c.name;
    if (row_fail >= 0) ++overflowed;
  }
  EXPECT_EQ(overflowed, 1);  // uniform_wavefront(60) leaves int64
}

TEST(Compiled, OneScratchServesEveryKernel) {
  // One scratch runs every suite kernel in turn, then a kernel whose
  // right-nested sum needs a deeper value stack than the default, by rows
  // and as one column. Each store matches the sequential reference, and
  // once the scratch has grown to the largest, a second pass moves none
  // of its buffers.
  LoopNestBuilder b;
  b.loop("i", 0, 99);
  b.array("A", {{0, 99}});
  b.array("B", {{0, 99}});
  loopir::ExprPtr deep = b.read("B", {b.idx(0)});
  for (int k = 0; k < 24; ++k) deep = Expr::add(Expr::constant(k), deep);
  b.assign(b.ref("A", {b.idx(0)}), deep);
  const LoopNest deep_nest = b.build();
  std::vector<core::NamedNest> nests = core::paper_suite(6);
  nests.push_back({"deep_sum", "", deep_nest});

  CompiledKernel::Scratch shared;
  const i64* stack = nullptr;
  const i64* columns = nullptr;
  for (int pass = 0; pass < 2; ++pass) {
    for (const core::NamedNest& nn : nests) {
      ArrayStore ref(nn.nest), got(nn.nest);
      ref.fill_pattern();
      got.fill_pattern();
      run_sequential(nn.nest, ref);
      const CompiledKernel kernel(nn.nest);
      const BufferTable bufs = kernel.bind(got);
      nn.nest.for_each_iteration(
          [&](const Vec& it) { kernel.execute_row(bufs, it.data(), shared); });
      EXPECT_EQ(got, ref) << nn.name;
    }
    ArrayStore ref(deep_nest), got(deep_nest);
    ref.fill_pattern();
    got.fill_pattern();
    run_sequential(deep_nest, ref);
    const CompiledKernel kernel(deep_nest);
    EXPECT_GT(kernel.stack_slots(),
              CompiledKernel(core::example41(6)).stack_slots());
    kernel.execute_column(kernel.bind(got), Vec{0}.data(), Vec{1}.data(), 100,
                          shared);
    EXPECT_EQ(got, ref);
    if (pass == 0) {
      stack = shared.stack.data();
      columns = shared.columns.data();
    }
  }
  EXPECT_EQ(shared.stack.data(), stack);
  EXPECT_EQ(shared.columns.data(), columns);
}

// ---------------------------------------------------------- column runs

/// Runs `nest`'s kernel over the column it0 + e * step (e < n) both ways
/// from `init`: execute_column, and execute_row per element in column
/// order. The column's iterations must be mutually independent.
void expect_column_matches_rows(const LoopNest& nest, const ArrayStore& init,
                                const Vec& it0, const Vec& step, i64 n,
                                const std::string& what) {
  ArrayStore by_column = init, by_row = init;
  const CompiledKernel kernel(nest);
  const BufferTable column_bufs = kernel.bind(by_column);
  const BufferTable row_bufs = kernel.bind(by_row);
  CompiledKernel::Scratch cs;
  CompiledKernel::Scratch rs;
  kernel.execute_column(column_bufs, it0.data(), step.data(), n, cs);
  Vec it = it0;
  for (i64 e = 0; e < n; ++e) {
    kernel.execute_row(row_bufs, it.data(), rs);
    for (std::size_t k = 0; k < it.size(); ++k) it[k] += step[k];
  }
  EXPECT_EQ(by_column, by_row) << what;
  EXPECT_FALSE(by_column == init) << what;
}

TEST(Compiled, ColumnMatchesRowsPastTheChunk) {
  // 3 chunks and a tail; S2 reads S1's write of the same iteration, so a
  // chunk's S1 must be stored before S2 reads it; an index term, a
  // subtraction and a stride-0 read (D[0]) ride along.
  const i64 n = 2 * CompiledKernel::kColumnChunk + 45;
  LoopNestBuilder b;
  b.loop("i", 0, n - 1);
  b.array("A", {{0, n - 1}});
  b.array("B", {{0, n - 1}});
  b.array("C", {{0, n - 1}});
  b.array("D", {{0, 0}});
  b.assign(b.ref("A", {b.idx(0)}),
           Expr::add(b.read("B", {b.idx(0)}),
                     Expr::mul(Expr::index(0), Expr::constant(7))));
  b.assign(b.ref("C", {b.idx(0)}),
           Expr::sub(Expr::mul(b.read("A", {b.idx(0)}), Expr::constant(3)),
                     b.read("D", {b.cst(0)})));
  LoopNest nest = b.build();
  ArrayStore init(nest);
  init.fill_pattern();
  expect_column_matches_rows(nest, init, Vec{0}, Vec{1}, n, "full column");
  // A column that starts mid-range and stops inside its first chunk.
  expect_column_matches_rows(nest, init, Vec{37}, Vec{1}, 5, "short column");
  expect_column_matches_rows(nest, init, Vec{9}, Vec{1}, 1, "one element");
}

TEST(Compiled, ColumnFollowsAnySignedStep) {
  // A transformed level steps the original iteration by a row of T^{-1}:
  // here the anti-diagonal (1, -1) of a 2-deep nest, and a reversed row.
  LoopNestBuilder b;
  b.loop("i1", 0, 199).loop("i2", 0, 199);
  b.array("A", {{0, 199}, {0, 199}});
  b.array("B", {{0, 199}, {0, 199}});
  b.assign(b.ref("A", {b.idx(0), b.idx(1)}),
           Expr::add(b.read("B", {b.idx(1), b.idx(0)}),
                     Expr::mul(Expr::index(0), Expr::index(1))));
  LoopNest nest = b.build();
  ArrayStore init(nest);
  init.fill_pattern();
  expect_column_matches_rows(nest, init, Vec{0, 199}, Vec{1, -1}, 200,
                             "anti-diagonal");
  expect_column_matches_rows(nest, init, Vec{5, 199}, Vec{0, -1}, 200,
                             "reversed row");
}

TEST(Compiled, ColumnReadsAndWritesThroughIndexArrays) {
  // Indirect slots in a column: a gather C[P[i]] and a scatter A[P[i]]
  // through a permutation (so the column's iterations stay independent).
  const i64 n = CompiledKernel::kColumnChunk + 31;
  LoopNestBuilder b;
  b.loop("i", 0, n - 1);
  b.array("A", {{0, n - 1}});
  b.array("C", {{0, n - 1}});
  b.array("P", {{0, n - 1}});
  loopir::ArrayRef scatter;
  scatter.array = "A";
  scatter.subscripts = {b.cst(0)};
  scatter.indirect = {loopir::IndirectSubscript{"P", b.idx(0)}};
  loopir::ArrayRef gather;
  gather.array = "C";
  gather.subscripts = {b.cst(0)};
  gather.indirect = {loopir::IndirectSubscript{"P", b.idx(0)}};
  b.assign(scatter, Expr::add(Expr::read(gather), Expr::index(0)));
  LoopNest nest = b.build();
  ArrayStore init(nest);
  init.fill_pattern();
  for (i64 i = 0; i < n; ++i) init.write("P", Vec{i}, (i * 7 + 3) % n);
  expect_column_matches_rows(nest, init, Vec{0}, Vec{1}, n, "indirect");
}

TEST(Compiled, ColumnOverflowNamesTheFirstOverflowingElement) {
  // A[i] = B[i] * B[i] leaves int64 at i = 200 and again at 250. The
  // column names element 200's operands, in the per-point message, and
  // stores nothing of the statement's chunk holding it (128..255); the
  // chunk before it is stored.
  const i64 n = 300;
  LoopNestBuilder b;
  b.loop("i", 0, n - 1);
  b.array("A", {{0, n - 1}});
  b.array("B", {{0, n - 1}});
  b.assign(b.ref("A", {b.idx(0)}),
           Expr::mul(b.read("B", {b.idx(0)}), b.read("B", {b.idx(0)})));
  LoopNest nest = b.build();
  ArrayStore init(nest);
  for (i64 i = 0; i < n; ++i) {
    init.write("A", Vec{i}, -1);
    init.write("B", Vec{i}, i);
  }
  init.write("B", Vec{200}, i64{1} << 40);
  init.write("B", Vec{250}, i64{1} << 41);

  std::string row_message;
  {
    ArrayStore s = init;
    const CompiledKernel k(nest);
    const BufferTable bufs = k.bind(s);
    CompiledKernel::Scratch scratch;
    try {
      for (i64 i = 0; i < n; ++i) k.execute_row(bufs, Vec{i}.data(), scratch);
    } catch (const OverflowError& e) {
      row_message = e.what();
    }
  }
  EXPECT_NE(row_message.find("int64 overflow in mul(1099511627776, "
                             "1099511627776)"),
            std::string::npos)
      << row_message;

  ArrayStore s = init;
  const CompiledKernel k(nest);
  const BufferTable bufs = k.bind(s);
  CompiledKernel::Scratch scratch;
  const Vec it0{0}, step{1};
  std::string column_message;
  try {
    k.execute_column(bufs, it0.data(), step.data(), n, scratch);
  } catch (const OverflowError& e) {
    column_message = e.what();
  }
  EXPECT_EQ(column_message, row_message);
  EXPECT_EQ(s.read("A", Vec{127}), 127 * 127);
  EXPECT_EQ(s.read("A", Vec{128}), -1);
  EXPECT_EQ(s.read("A", Vec{199}), -1);
}

TEST(Compiled, IndirectInputsMatchInterpreter) {
  // The indirect inputs the inspector is checked on: duplicate-heavy
  // scatter, negative lower bounds, two written arrays, a 2-D target with an
  // indirect first slot and a read-only gather. The kernel must accept each
  // (its index scan proves every slot) and reproduce the interpreter.
  for (const test_inputs::IndirectInput& in : test_inputs::indirect_inputs()) {
    ArrayStore ref = test_inputs::initial_store(in);
    ArrayStore out = ref;
    run_sequential(in.nest, ref);
    CompiledKernel(in.nest).run_sequential(out);
    EXPECT_EQ(ref, out) << in.name;
  }
}

TEST(Compiled, RejectsIndexPositionOutsideIndexArray) {
  // A[B[i + 1]] with i up to n-1 reads one past B's declared range: the
  // range proof refuses it at construction, before any store is seen.
  constexpr i64 n = 8;
  LoopNestBuilder b;
  b.loop("i", 0, n - 1);
  b.array("A", {{0, n - 1}});
  b.array("B", {{0, n - 1}});
  loopir::ArrayRef a;
  a.array = "A";
  a.subscripts = {b.cst(0)};
  a.indirect = {loopir::IndirectSubscript{"B", b.idx(0) + b.cst(1)}};
  b.assign(a, Expr::constant(1));
  LoopNest nest = b.build();
  EXPECT_THROW(CompiledKernel{nest}, PreconditionError);
}

TEST(Compiled, BindingScansIndexContentsPerStore) {
  // An indirect body is proven once, for every store; each binding scans
  // its own store's index arrays. A store whose index array holds a value
  // outside the target's declared range is refused at bind(), before any
  // write; a store with in-range contents binds and runs.
  const test_inputs::IndirectInput in = test_inputs::indirect_inputs().front();
  const CompiledKernel kernel(in.nest);
  const i64 a_hi = in.nest.array("A").dims.front().second;

  ArrayStore hostile = test_inputs::initial_store(in);
  hostile.write("B", Vec{3}, a_hi + 1);
  const ArrayStore untouched = hostile;
  EXPECT_THROW((void)kernel.bind(hostile), PreconditionError);
  EXPECT_THROW(kernel.run_sequential(hostile), PreconditionError);
  EXPECT_EQ(hostile, untouched);

  ArrayStore ref = test_inputs::initial_store(in);
  ArrayStore out = ref;
  run_sequential(in.nest, ref);
  kernel.run_sequential(out);
  EXPECT_EQ(ref, out);
}

TEST(Compiled, BodyOutlivesEveryBoundStore) {
  // A body is built from the nest alone and outlives every store it was
  // bound to: binding reads only the store it is given (reading a freed
  // one here would be a use-after-free, which the sanitizer build
  // catches).
  LoopNest nest = example42(5);
  const CompiledKernel kernel(nest);
  {
    auto first = std::make_unique<ArrayStore>(nest);
    first->fill_pattern();
    kernel.run_sequential(*first);
  }

  ArrayStore ref(nest), s(nest);
  ref.fill_pattern();
  s.fill_pattern();
  run_sequential(nest, ref);
  kernel.run_sequential(s);
  EXPECT_EQ(ref, s);

  // A store of another shape is refused.
  ArrayStore other(example42(6));
  EXPECT_THROW((void)kernel.bind(other), PreconditionError);
}

TEST(Compiled, ScheduleExecutionMatchesSequential) {
  LoopNest nest = example41(6);
  trans::TransformPlan plan = plan_for(nest);
  Schedule sched = build_schedule(nest, plan);
  ThreadPool pool(4);
  ArrayStore ref(nest), par(nest);
  ref.fill_pattern();
  par.fill_pattern();
  run_sequential(nest, ref);
  execute_schedule_compiled(nest, sched, par, pool);
  EXPECT_EQ(ref, par);
}

TEST(CompiledProperty, RandomBodiesAgreeWithInterpreter) {
  Rng rng(321);
  for (int iter = 0; iter < 20; ++iter) {
    LoopNestBuilder b;
    b.loop("i1", -3, 3).loop("i2", -3, 3);
    b.array("A", {{-40, 40}});
    b.array("B", {{-40, 40}});
    loopir::AffineExpr w = b.affine({rng.uniform(-2, 2), rng.uniform(-2, 2)},
                                    rng.uniform(-3, 3));
    loopir::AffineExpr r1 = b.affine({rng.uniform(-2, 2), rng.uniform(-2, 2)},
                                     rng.uniform(-3, 3));
    loopir::AffineExpr r2 = b.affine({rng.uniform(-2, 2), rng.uniform(-2, 2)},
                                     rng.uniform(-3, 3));
    b.assign(b.ref("A", {w}),
             Expr::add(Expr::mul(b.read("A", {r1}), Expr::constant(3)),
                       Expr::sub(b.read("B", {r2}), Expr::index(1))));
    LoopNest nest = b.build();
    ArrayStore x(nest), y(nest);
    x.fill_pattern();
    y.fill_pattern();
    run_sequential(nest, x);
    CompiledKernel(nest).run_sequential(y);
    EXPECT_EQ(x, y);
  }
}

// ----------------------------------------------------------------- ISDG

TEST(Isdg, Example41DistancesInsidePdmLattice) {
  LoopNest nest = example41(5);
  Isdg g = build_isdg(nest);
  EXPECT_GT(g.edge_count(), 0);
  intlin::Lattice lat = dep::compute_pdm(nest).lattice();
  for (const Vec& d : g.distance_vectors())
    EXPECT_TRUE(lat.contains(d)) << intlin::to_string(d);
}

TEST(Isdg, Example42StridesAtLeastTwo) {
  // Figure 4's observation: every arrow jumps a stride >= 2 along i1
  // and/or i2 (no unit-distance arrows).
  LoopNest nest = example42(6);
  Isdg g = build_isdg(nest);
  EXPECT_GT(g.edge_count(), 0);
  for (const Vec& d : g.distance_vectors()) {
    i64 a0 = checked::abs(d[0]);
    i64 a1 = checked::abs(d[1]);
    EXPECT_TRUE(a0 >= 2 || a1 >= 2) << intlin::to_string(d);
  }
}

TEST(Isdg, NoFalseEdgesOnIndependentLoop) {
  LoopNestBuilder b;
  b.loop("i1", 0, 5).loop("i2", 0, 5);
  b.array("A", {{0, 5}, {0, 5}});
  b.array("B", {{0, 5}, {0, 5}});
  b.assign(b.ref("A", {b.idx(0), b.idx(1)}), b.read("B", {b.idx(0), b.idx(1)}));
  Isdg g = build_isdg(b.build());
  EXPECT_EQ(g.edge_count(), 0);
  EXPECT_EQ(g.dependent_node_count(), 0);
  EXPECT_EQ(g.critical_path_length(), 0);
  EXPECT_EQ(g.chain_count(), 0);
}

TEST(Isdg, ChainStructureOfSequentialLoop) {
  // A[i+1] = A[i]: one chain through all iterations, critical path n-1.
  LoopNestBuilder b;
  b.loop("i1", 0, 9);
  b.array("A", {{0, 10}});
  b.assign(b.ref("A", {b.affine({1}, 1)}), b.read("A", {b.idx(0)}));
  Isdg g = build_isdg(b.build());
  EXPECT_EQ(g.chain_count(), 1);
  EXPECT_EQ(g.critical_path_length(), 9);
  EXPECT_EQ(g.dependent_node_count(), 10);
}

TEST(Isdg, PartitionedScheduleHasNoCrossItemEdges) {
  for (i64 n : {4, 6}) {
    LoopNest nest = example42(n);
    Isdg g = build_isdg(nest);
    Schedule sched = build_schedule(nest, plan_for(nest));
    EXPECT_EQ(g.cross_item_edges(sched), 0) << "N=" << n;
  }
  LoopNest nest41 = example41(5);
  Isdg g41 = build_isdg(nest41);
  Schedule sched41 = build_schedule(nest41, plan_for(nest41));
  EXPECT_EQ(g41.cross_item_edges(sched41), 0);
}

TEST(Isdg, AsciiRenderingShowsClasses) {
  LoopNest nest = example42(3);
  Isdg g = build_isdg(nest);
  std::string plain = g.to_ascii();
  // 7x7 grid rows; dependent nodes marked.
  EXPECT_EQ(std::count(plain.begin(), plain.end(), '\n'), 7);
  EXPECT_NE(plain.find('o'), std::string::npos);
  Schedule sched = build_schedule(nest, plan_for(nest));
  std::string classed = g.to_ascii(&sched);
  EXPECT_NE(classed.find('0'), std::string::npos);
  EXPECT_NE(classed.find('3'), std::string::npos);
  EXPECT_EQ(classed.find('o'), std::string::npos);  // all nodes scheduled
}

TEST(Isdg, AsciiRejectsNon2D) {
  LoopNestBuilder b;
  b.loop("i", 0, 3);
  b.array("A", {{0, 3}});
  b.assign(b.ref("A", {b.idx(0)}), Expr::constant(1));
  Isdg g = build_isdg(b.build());
  EXPECT_THROW(g.to_ascii(), PreconditionError);
}

TEST(Isdg, DotOutputWellFormed) {
  LoopNest nest = example42(3);
  std::string dot = build_isdg(nest).to_dot();
  EXPECT_NE(dot.find("digraph isdg"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
  EXPECT_EQ(dot.find("n_3_0 -> n_3_0"), std::string::npos);  // no self loops
}

TEST(Isdg, MinAbsStrideExample42) {
  LoopNest nest = example42(6);
  Vec s = build_isdg(nest).min_abs_stride();
  ASSERT_EQ(s.size(), 2u);
  EXPECT_GE(s[0], 2);  // no arrow moves by 1 in i1
  EXPECT_GE(s[1], 1);
}

}  // namespace
}  // namespace vdep::exec
