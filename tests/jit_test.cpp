// Tests for the JIT backend: toolchain discovery, emitted-C round trips
// (bit-identical stores vs the interpreter across the paper suite at
// 1/2/8 threads), indirect nests' native row kernels (bit-identity and
// the missing-compiler fallback), graceful no-toolchain fallback, and the per-bounds .so memoization in
// the PlanArtifact.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "api/vdep.h"
#include "core/suite.h"
#include "dep/pdm.h"
#include "exec/interpreter.h"
#include "exec/kernel.h"
#include "jit/toolchain.h"
#include "loopir/builder.h"
#include "runtime/stream_executor.h"
#include "trans/planner.h"

namespace vdep {
namespace {

using intlin::i64;

trans::TransformPlan plan_for(const loopir::LoopNest& nest) {
  return trans::plan_transform(dep::compute_pdm(nest));
}

exec::IterBox box_of(const runtime::TaskDescriptor& t) {
  exec::IterBox box;
  box.lo = t.lo;
  box.hi = t.hi;
  box.ndims = t.ndims;
  box.class_lo = t.class_lo;
  box.class_hi = t.class_hi;
  return box;
}

bool have_toolchain() { return jit::discover_toolchain().has_value(); }

/// Restores an environment variable on scope exit.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_ = old != nullptr;
    if (had_) old_ = old;
    if (value)
      ::setenv(name, value, 1);
    else
      ::unsetenv(name);
  }
  ~ScopedEnv() {
    if (had_)
      ::setenv(name_.c_str(), old_.c_str(), 1);
    else
      ::unsetenv(name_.c_str());
  }

 private:
  std::string name_, old_;
  bool had_ = false;
};

// ------------------------------------------------------------- discovery

TEST(Toolchain, DiscoversACompilerOnThisHost) {
  // The development / CI environments always carry cc or gcc; this test is
  // the canary that keeps the rest of the file honest.
  ASSERT_TRUE(have_toolchain());
}

TEST(Toolchain, ExplicitPreferredCompilerWins) {
  auto def = jit::discover_toolchain();
  ASSERT_TRUE(def.has_value());
  auto again = jit::discover_toolchain(*def);  // absolute path resolves
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(*def, *again);
  EXPECT_FALSE(jit::discover_toolchain("definitely-not-a-compiler-xyz"));
}

TEST(Toolchain, VdepCcEnvOverrideIsHonoured) {
  auto def = jit::discover_toolchain();
  ASSERT_TRUE(def.has_value());
  ScopedEnv cc("VDEP_CC", def->c_str());
  auto found = jit::discover_toolchain();
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, *def);
}

// ------------------------------------------------- direct kernel execution

TEST(NativeKernel, RootRectangleMatchesSequentialReference) {
  if (!have_toolchain()) GTEST_SKIP() << "no C toolchain";
  loopir::LoopNest nest = core::example42(24);
  trans::TransformPlan plan = plan_for(nest);
  jit::ToolchainCompiler tc;
  auto kernel = tc.compile(nest, plan);
  ASSERT_TRUE(kernel.has_value()) << kernel.error().to_string();
  EXPECT_NE((*kernel)->source().find("vdep_range_kernel"), std::string::npos);

  exec::ArrayStore ref(nest);
  ref.fill_pattern();
  exec::ArrayStore got = ref;
  exec::run_sequential(nest, ref);

  runtime::StreamExecutor ex(nest, plan, {});
  runtime::TaskDescriptor root = ex.root();
  const exec::BufferTable bufs(nest, got);
  i64 iters = (*kernel)->execute_range(bufs, box_of(root));
  EXPECT_EQ(iters, nest.iteration_count());
  EXPECT_TRUE(ref == got);
}

TEST(NativeKernel, DisjointBoxesCoverTheSpaceExactlyOnce) {
  if (!have_toolchain()) GTEST_SKIP() << "no C toolchain";
  loopir::LoopNest nest = core::example41(20);
  trans::TransformPlan plan = plan_for(nest);
  jit::ToolchainCompiler tc;
  auto kernel = tc.compile(nest, plan);
  ASSERT_TRUE(kernel.has_value()) << kernel.error().to_string();

  exec::ArrayStore ref(nest);
  ref.fill_pattern();
  exec::ArrayStore got = ref;
  exec::run_sequential(nest, ref);

  runtime::StreamExecutor ex(nest, plan, {});
  runtime::TaskDescriptor root = ex.root();
  // Split the outer range in two and the class range per cell: four
  // disjoint boxes; executing all of them must equal one root call.
  i64 mid = (root.lo[0] + root.hi[0]) / 2;
  const exec::BufferTable bufs(nest, got);
  i64 iters = 0;
  for (i64 c = root.class_lo; c < root.class_hi; ++c) {
    runtime::TaskDescriptor low = root, high = root;
    low.hi[0] = mid;
    high.lo[0] = mid + 1;
    low.class_lo = high.class_lo = c;
    low.class_hi = high.class_hi = c + 1;
    iters += (*kernel)->execute_range(bufs, box_of(low));
    iters += (*kernel)->execute_range(bufs, box_of(high));
  }
  EXPECT_EQ(iters, nest.iteration_count());
  EXPECT_TRUE(ref == got);
}

TEST(NativeKernel, InnerAxisBoxesRestrictTheScan) {
  if (!have_toolchain()) GTEST_SKIP() << "no C toolchain";
  // Two DOALL dimensions (skewed extents): halving the *inner* axis of the
  // box across two calls must cover the space exactly once — the new ABI's
  // whole point.
  loopir::LoopNest nest = core::skewed_extent(257);
  trans::TransformPlan plan = plan_for(nest);
  jit::ToolchainCompiler tc;
  auto kernel = tc.compile(nest, plan);
  ASSERT_TRUE(kernel.has_value()) << kernel.error().to_string();

  exec::ArrayStore ref(nest);
  ref.fill_pattern();
  exec::ArrayStore got = ref;
  exec::run_sequential(nest, ref);

  runtime::StreamExecutor ex(nest, plan, {});
  runtime::TaskDescriptor root = ex.root();
  ASSERT_EQ(root.ndims, 2);
  runtime::TaskDescriptor low = root, high = root;
  i64 mid = (root.lo[1] + root.hi[1]) / 2;
  low.hi[1] = mid;
  high.lo[1] = mid + 1;
  const exec::BufferTable bufs(nest, got);
  i64 iters = (*kernel)->execute_range(bufs, box_of(low)) +
              (*kernel)->execute_range(bufs, box_of(high));
  EXPECT_EQ(iters, nest.iteration_count());
  EXPECT_TRUE(ref == got);
}

// ---------------------------------------------------- suite round trips

// For every suite nest: JIT-execute through the staged API and require the
// final store bit-identical to the sequential interpreter reference, at 1,
// 2 and 8 worker threads. Sizes stay below the wavefront value-overflow
// threshold; medium sizes get a second pass on the variable-distance
// kernels where class scans are non-trivial.
void roundtrip_suite(i64 n) {
  Compiler compiler;
  for (core::NamedNest& c : core::paper_suite(n)) {
    Expected<CompiledLoop> loop = compiler.compile(c.nest);
    ASSERT_TRUE(loop.has_value()) << c.name << ": " << loop.error().to_string();
    exec::ArrayStore ref(c.nest);
    ref.fill_pattern();
    exec::ArrayStore init = ref;
    exec::run_sequential(c.nest, ref);
    for (std::size_t threads : {1u, 2u, 8u}) {
      exec::ArrayStore got = init;
      ExecPolicy policy;
      policy.threads(threads).backend(ExecBackend::kJit);
      Expected<ExecReport> rep = loop->execute(policy, got);
      ASSERT_TRUE(rep.has_value()) << c.name << ": " << rep.error().to_string();
      EXPECT_TRUE(rep->jit) << c.name << " fell back at " << threads
                            << " threads";
      EXPECT_EQ(rep->iterations, c.nest.iteration_count()) << c.name;
      EXPECT_TRUE(ref == got)
          << c.name << " diverged from sequential at " << threads
          << " threads (n=" << n << ")";
    }
  }
}

TEST(JitRoundTrip, WholeSuiteSmall) {
  if (!have_toolchain()) GTEST_SKIP() << "no C toolchain";
  roundtrip_suite(6);
}

TEST(JitRoundTrip, WholeSuiteMedium) {
  if (!have_toolchain()) GTEST_SKIP() << "no C toolchain";
  roundtrip_suite(20);
}

TEST(JitRoundTrip, CheckVerifiesJitExecution) {
  if (!have_toolchain()) GTEST_SKIP() << "no C toolchain";
  Compiler compiler;
  auto loop = compiler.compile(core::example42(30));
  ASSERT_TRUE(loop.has_value());
  ExecPolicy policy;
  policy.threads(4).backend(ExecBackend::kJit);
  auto rep = loop->check(policy);
  ASSERT_TRUE(rep.has_value()) << rep.error().to_string();
  EXPECT_TRUE(rep->verified);
  EXPECT_TRUE(rep->jit);
}

// --------------------------------------------------- no-toolchain fallback

TEST(JitFallback, ScrubbedPathDegradesGracefully) {
  // With PATH scrubbed and no $VDEP_CC, discovery must fail cleanly...
  ScopedEnv path("PATH", "");
  ScopedEnv cc("VDEP_CC", nullptr);
  EXPECT_FALSE(jit::discover_toolchain());

  Compiler compiler;
  auto loop = compiler.compile(core::example42(12));
  ASSERT_TRUE(loop.has_value());

  // ...jit() must surface an inspectable kUnsupported error...
  auto kernel = loop->jit();
  ASSERT_FALSE(kernel.has_value());
  EXPECT_EQ(kernel.error().kind, ErrorKind::kUnsupported);

  // ...and execute(kJit) must fall back to the scan path, still correct.
  exec::ArrayStore ref(loop->nest());
  ref.fill_pattern();
  exec::ArrayStore got = ref;
  exec::run_sequential(loop->nest(), ref);
  ExecPolicy policy;
  policy.threads(2).backend(ExecBackend::kJit);
  auto rep = loop->execute(policy, got);
  ASSERT_TRUE(rep.has_value()) << rep.error().to_string();
  EXPECT_FALSE(rep->jit);
  EXPECT_TRUE(ref == got);
}

TEST(JitFallback, RangeProofRejectionFallsBackNotCrashes) {
  if (!have_toolchain()) GTEST_SKIP() << "no C toolchain";
  // Triangular space, A sized for the real access set [0, n]: the
  // rectangular-hull proof sees i - j in [-n, n] and must refuse, so the
  // nest never reaches the toolchain — but every actual access is legal,
  // and the interpreter scan path executes it fine.
  const i64 n = 12;
  loopir::LoopNestBuilder b;
  b.loop("i", 0, n);
  b.loop("j", loopir::Bound(loopir::AffineExpr::constant(2, 0)),
         loopir::Bound(loopir::AffineExpr(intlin::Vec{1, 0}, 0)));
  b.array("A", {{0, n}});
  b.assign(b.ref("A", {b.affine({1, -1}, 0)}),
           loopir::Expr::add(b.read("A", {b.affine({1, -1}, 0)}),
                             loopir::Expr::constant(1)));
  loopir::LoopNest tri = b.build();
  EXPECT_THROW(exec::prove_subscript_ranges(tri), UnsupportedError);

  Compiler compiler;
  auto loop = compiler.compile(tri);
  ASSERT_TRUE(loop.has_value()) << loop.error().to_string();
  auto kernel = loop->jit();
  ASSERT_FALSE(kernel.has_value());
  EXPECT_EQ(kernel.error().kind, ErrorKind::kUnsupported);

  exec::ArrayStore ref(tri);
  ref.fill_pattern();
  exec::ArrayStore got = ref;
  exec::run_sequential(tri, ref);
  ExecPolicy policy;
  policy.threads(2).backend(ExecBackend::kJit);
  auto rep = loop->execute(policy, got);
  ASSERT_TRUE(rep.has_value()) << rep.error().to_string();
  EXPECT_FALSE(rep->jit);
  EXPECT_TRUE(ref == got);
}

// ------------------------------------------------ indirect row kernels

/// `A[B[i]] = A[B[i]] + C[i]` over i in [0, n-1], A sized [0, a_hi], B
/// declared [0, b_hi].
loopir::LoopNest scatter_nest(i64 n, i64 a_hi, i64 b_hi) {
  loopir::LoopNestBuilder b;
  b.loop("i", 0, n - 1);
  b.array("A", {{0, a_hi}});
  b.array("B", {{0, b_hi}});
  b.array("C", {{0, n - 1}});
  loopir::ArrayRef a;
  a.array = "A";
  a.subscripts = {b.cst(0)};
  a.indirect = {loopir::IndirectSubscript{"B", b.idx(0)}};
  b.assign(a, loopir::Expr::add(loopir::Expr::read(a),
                                loopir::Expr::read(b.ref("C", {b.idx(0)}))));
  return b.build();
}

/// The scatter's store: fill_pattern() data, B[i] = i * 5 % (a_hi + 1).
exec::ArrayStore scatter_store(const loopir::LoopNest& nest, i64 a_hi) {
  exec::ArrayStore store(nest);
  store.fill_pattern();
  const i64 b_len = nest.array("B").dims.front().second + 1;
  for (i64 i = 0; i < b_len; ++i)
    store.write("B", intlin::Vec{i}, i * 5 % (a_hi + 1));
  return store;
}

TEST(JitRowKernel, IndirectNestRunsNativeLeaves) {
  if (!have_toolchain()) GTEST_SKIP() << "no C toolchain";
  constexpr i64 n = 1000, a_hi = 99;
  loopir::LoopNest nest = scatter_nest(n, a_hi, n - 1);
  Compiler compiler;
  CompiledLoop loop = compiler.compile(nest).value();
  auto k = loop.jit();
  ASSERT_TRUE(k.has_value()) << k.error().to_string();
  EXPECT_TRUE((*k)->row_kernel());
  EXPECT_FALSE((*k)->partitioned());
  EXPECT_NE((*k)->source().find("__builtin_add_overflow"), std::string::npos);

  const exec::ArrayStore init = scatter_store(nest, a_hi);
  exec::ArrayStore ref = init;
  exec::run_sequential(nest, ref);
  for (std::size_t threads : {1u, 2u, 8u}) {
    exec::ArrayStore got = init;
    auto rep = loop.execute(
        ExecPolicy{}.threads(threads).backend(ExecBackend::kJit), got);
    ASSERT_TRUE(rep.has_value()) << rep.error().to_string();
    EXPECT_TRUE(rep->inspector);
    EXPECT_TRUE(rep->jit);
    EXPECT_FALSE(rep->jit_partitioned);
    EXPECT_EQ(rep->iterations, n);
    EXPECT_TRUE(got == ref) << "threads=" << threads;
  }
  // The row kernel is memoized per bounds: a second handle at these
  // bounds gets the same loaded kernel.
  auto again = compiler.compile(nest).value().jit();
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->get(), k->get());
}

TEST(JitFallback, MissingCompilerRunsIndirectNestOnCompiledLeaves) {
  constexpr i64 n = 300, a_hi = 40;
  loopir::LoopNest nest = scatter_nest(n, a_hi, n - 1);
  Compiler compiler;
  CompiledLoop loop = compiler.compile(nest).value();
  jit::JitOptions jo;
  jo.compiler = "/nonexistent/vdep-no-such-cc";
  EXPECT_FALSE(loop.jit(jo).has_value());

  const exec::ArrayStore init = scatter_store(nest, a_hi);
  exec::ArrayStore ref = init;
  exec::run_sequential(nest, ref);
  for (std::size_t threads : {1u, 8u}) {
    exec::ArrayStore got = init;
    auto rep = loop.execute(ExecPolicy{}
                                .threads(threads)
                                .backend(ExecBackend::kJit)
                                .jit_options(jo),
                            got);
    ASSERT_TRUE(rep.has_value()) << rep.error().to_string();
    EXPECT_TRUE(rep->inspector);
    EXPECT_FALSE(rep->jit);
    EXPECT_TRUE(got == ref) << "threads=" << threads;
  }
}

// ------------------------------------------------------- memoized  .so

TEST(JitMemo, SameBoundsReuseTheLoadedKernel) {
  if (!have_toolchain()) GTEST_SKIP() << "no C toolchain";
  Compiler compiler;
  auto a = compiler.compile(core::example42(16));
  ASSERT_TRUE(a.has_value());
  auto k1 = a->jit();
  ASSERT_TRUE(k1.has_value()) << k1.error().to_string();
  auto k2 = a->jit();
  ASSERT_TRUE(k2.has_value());
  // Same handle, same bounds: the identical loaded object.
  EXPECT_EQ(k1->get(), k2->get());

  // Recompiling the same structure is a plan-cache hit sharing the same
  // artifact, so the kernel memo is shared too.
  CacheStats before = compiler.cache_stats();
  auto b = compiler.compile(core::example42(16));
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(compiler.cache_stats().hits, before.hits + 1);
  auto k3 = b->jit();
  ASSERT_TRUE(k3.has_value());
  EXPECT_EQ(k1->get(), k3->get());
}

TEST(JitMemo, NewBoundsCompileANewKernelWithoutReanalysis) {
  if (!have_toolchain()) GTEST_SKIP() << "no C toolchain";
  Compiler compiler;
  auto small = compiler.compile(core::example42(10));
  ASSERT_TRUE(small.has_value());
  auto k_small = small->jit();
  ASSERT_TRUE(k_small.has_value());

  CacheStats before = compiler.cache_stats();
  auto big = small->at(core::example42(40));
  ASSERT_TRUE(big.has_value());
  // at() rebinds with zero compiles — misses unchanged.
  EXPECT_EQ(compiler.cache_stats().misses, before.misses);

  auto k_big = big->jit();
  ASSERT_TRUE(k_big.has_value()) << k_big.error().to_string();
  EXPECT_NE(k_small->get(), k_big->get());  // bounds differ, .so differs

  // And the new-bounds kernel is immediately correct.
  exec::ArrayStore ref(big->nest());
  ref.fill_pattern();
  exec::ArrayStore got = ref;
  exec::run_sequential(big->nest(), ref);
  ExecPolicy policy;
  policy.threads(4).backend(ExecBackend::kJit);
  auto rep = big->execute(policy, got);
  ASSERT_TRUE(rep.has_value());
  EXPECT_TRUE(rep->jit);
  EXPECT_TRUE(ref == got);

  // Second jit() at the new bounds: served from the memo.
  auto k_big2 = big->jit();
  ASSERT_TRUE(k_big2.has_value());
  EXPECT_EQ(k_big->get(), k_big2->get());
}

TEST(JitMemo, ArrayDimsSeparateKernelsOfOneFingerprint) {
  if (!have_toolchain()) GTEST_SKIP() << "no C toolchain";
  // Same accesses, same loop bounds, different array dims: the structural
  // fingerprint deliberately collides (analysis is dim-independent), so
  // both compiles share one PlanArtifact — but flattening strides differ,
  // so the codegen/jit memos must not. Regression for a silent
  // wrong-strides reuse (worst case: out-of-bounds native writes).
  auto make = [](i64 cols) {
    loopir::LoopNestBuilder b;
    b.loop("i", 0, 9).loop("j", 0, 9);
    b.array("A", {{0, 9}, {0, cols}});
    b.assign(b.ref("A", {b.idx(0), b.idx(1)}),
             loopir::Expr::add(b.read("A", {b.idx(0), b.idx(1)}),
                               loopir::Expr::constant(1)));
    return b.build();
  };
  loopir::LoopNest narrow = make(9), wide = make(19);

  Compiler compiler;
  auto a = compiler.compile(narrow);
  auto b = compiler.compile(wide);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  ASSERT_EQ(a->fingerprint(), b->fingerprint());  // shared artifact

  EXPECT_NE(a->codegen(), b->codegen());  // dims are in the emitted C

  auto ka = a->jit();
  auto kb = b->jit();
  ASSERT_TRUE(ka.has_value()) << ka.error().to_string();
  ASSERT_TRUE(kb.has_value()) << kb.error().to_string();
  EXPECT_NE(ka->get(), kb->get());  // dims separate the .so memo

  for (const loopir::LoopNest* nest : {&narrow, &wide}) {
    const CompiledLoop& loop = nest == &narrow ? *a : *b;
    exec::ArrayStore ref(*nest);
    ref.fill_pattern();
    exec::ArrayStore got = ref;
    exec::run_sequential(*nest, ref);
    ExecPolicy policy;
    policy.threads(2).backend(ExecBackend::kJit);
    auto rep = loop.execute(policy, got);
    ASSERT_TRUE(rep.has_value());
    EXPECT_TRUE(rep->jit);
    EXPECT_TRUE(ref == got);
  }
}

TEST(JitMemo, DeterministicCompileFailureIsMemoizedCheaply) {
  if (!have_toolchain()) GTEST_SKIP() << "no C toolchain";
  Compiler compiler;
  auto loop = compiler.compile(core::example41(8));
  ASSERT_TRUE(loop.has_value());
  jit::JitOptions bad;
  bad.extra_flags = "--definitely-not-a-flag-xyz";
  auto k1 = loop->jit(bad);
  ASSERT_FALSE(k1.has_value());
  EXPECT_EQ(k1.error().kind, ErrorKind::kUnsupported);
  // Second request must come from the failure memo (same error, no new
  // toolchain subprocess — observable here only as the same stable error).
  auto k2 = loop->jit(bad);
  ASSERT_FALSE(k2.has_value());
  EXPECT_EQ(k2.error().message, k1.error().message);
  // And the default options still compile fine on the same artifact.
  auto good = loop->jit();
  EXPECT_TRUE(good.has_value()) << good.error().to_string();
}

TEST(JitMemo, KeepArtifactsExposesTheSharedObjectPath) {
  if (!have_toolchain()) GTEST_SKIP() << "no C toolchain";
  Compiler compiler;
  auto loop = compiler.compile(core::example41(8));
  ASSERT_TRUE(loop.has_value());
  jit::JitOptions keep;
  keep.keep_artifacts = true;
  auto k = loop->jit(keep);
  ASSERT_TRUE(k.has_value()) << k.error().to_string();
  EXPECT_FALSE((*k)->library_path().empty());
  // Default lifecycle unlinks eagerly; the option key separates the memos.
  auto k_default = loop->jit();
  ASSERT_TRUE(k_default.has_value());
  EXPECT_TRUE((*k_default)->library_path().empty());
  EXPECT_NE(k->get(), k_default->get());
}

}  // namespace
}  // namespace vdep
