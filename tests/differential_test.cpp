// Cross-backend differential fuzzing: seeded random affine nests (depth
// 1-3, coupled subscripts, variable distances, a quarter of the multi-dim
// cases with skewed extents — outer extent 1-2, innermost >= 64 — to fuzz
// the inner-axis descriptor splitter, and a third of them with affine
// non-constant bounds — triangular/wedge spaces where an inner bound is a
// max/min with an outer index, the shapes the steady-state loop partition
// splits) must produce bit-identical final stores through every execution
// strategy —
//
//   sequential reference  (exec::run_sequential, the paper's semantics)
//   streaming interpreter (ExecBackend::kInterpreter)
//   streaming compiled    (ExecBackend::kCompiled, postfix kernels)
//   streaming jit         (ExecBackend::kJit, dlopen-ed native kernels)
//
// each parallel backend at 1, 2 and 8 worker contexts. Under kCompiled a
// nest the postfix kernel compiles runs every iteration as a column
// exactly when its plan has a DOALL level (ExecReport::column_iterations).
// The analysis is
// exact (dependence equations -> PDM -> Algorithm 1 -> Theorem 2 classes),
// so ANY divergence — off-by-one class strides, a misproved DOALL, a bad
// native kernel — is a bug, not noise; correctness across execution
// strategies is the property a reproduction must continuously re-prove
// (Kale et al.; Blom et al.'s verification angle).
//
// The generator emits only nests whose values provably fit int64: each
// statement reads the written array at most once (plus one read-only array
// and a small constant), so value growth along any dependence chain is
// additive, bounded by iterations * O(10^2) from a +-99 initial fill.
//
// Registered with ctest under fixed seeds (4 suites x 60 cases >= 200
// compiled cases); `differential_test --fuzz N [seed]` runs N extra cases
// standalone for CI soak jobs. Indirect nests (A[B[i]]) have their own
// generator and inputs: they run through the inspector with postfix and
// native (kJit row-kernel) leaves at 1, 2 and 8 workers, pinned and not.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "api/vdep.h"
#include "core/suite.h"
#include "exec/compiled.h"
#include "exec/interpreter.h"
#include "jit/toolchain.h"
#include "loopir/builder.h"
#include "support/rng.h"

#include "blocked_nests.h"
#include "indirect_inputs.h"

namespace vdep {
namespace {

using loopir::AffineExpr;
using loopir::Expr;
using loopir::ExprPtr;
using loopir::LoopNest;
using loopir::LoopNestBuilder;

// ------------------------------------------------------------- generator

struct GenCase {
  LoopNest nest;
  std::string trace;  ///< reproduction hint printed on failure
};

/// A random affine subscript over `depth` indices: coefficients in
/// [-2, 2], constant in [-3, 3]. `couple` forces at least two nonzero
/// coefficients when the depth allows it (coupled subscripts are where
/// variable distances come from).
AffineExpr random_subscript(Rng& rng, int depth, bool couple) {
  intlin::Vec coeffs(static_cast<std::size_t>(depth), 0);
  for (auto& c : coeffs) c = rng.uniform(-2, 2);
  if (couple && depth >= 2) {
    std::size_t a = static_cast<std::size_t>(rng.uniform(0, depth - 1));
    std::size_t b = (a + 1) % static_cast<std::size_t>(depth);
    if (coeffs[a] == 0) coeffs[a] = rng.uniform(0, 1) ? 1 : -1;
    if (coeffs[b] == 0) coeffs[b] = rng.uniform(0, 1) ? 2 : -1;
  }
  return AffineExpr(std::move(coeffs), rng.uniform(-3, 3));
}

/// Interval of `s` over the constant-bounds box `box`.
std::pair<i64, i64> subscript_range(const AffineExpr& s,
                                    const std::vector<std::pair<i64, i64>>& box) {
  i64 lo = s.constant_term(), hi = s.constant_term();
  for (std::size_t k = 0; k < box.size(); ++k) {
    i64 c = s.coeffs()[k];
    lo += c * (c >= 0 ? box[k].first : box[k].second);
    hi += c * (c >= 0 ? box[k].second : box[k].first);
  }
  return {lo, hi};
}

/// One random nest. Writes go to array "A"; every rhs reads A at most once
/// (additive value growth, no int64 overflow) plus optionally a read-only
/// array "B" and a constant. Subscript arity 1-2, coefficients small, so
/// dependence equations stay well inside exact-arithmetic range.
LoopNest random_nest(Rng& rng) {
  int depth = static_cast<int>(rng.uniform(1, 3));
  // Extents sized so depth-3 spaces stay ~a few hundred iterations.
  i64 extent = depth == 1 ? rng.uniform(20, 60)
             : depth == 2 ? rng.uniform(5, 14)
                          : rng.uniform(3, 7);
  std::vector<i64> extents(static_cast<std::size_t>(depth), extent);
  // A quarter of the cases get tiny extents (2-4 per dimension, the same
  // order as the dependence distances): spaces that are nearly all
  // prologue/epilogue, where the steady-state loop partition's edge
  // handling — empty steady regions, boundary classes — has to be exact.
  if (rng.chance(1, 4))
    for (auto& e : extents) e = rng.uniform(2, 4);
  // A quarter of the multi-dimensional nests get skewed extents — tiny
  // outer loop, large innermost loop — so the inner-axis descriptor
  // splitter (runtime/task.h) is fuzzed across every backend, not only hit
  // by the hand-written skewed suite cases.
  if (depth >= 2 && rng.chance(1, 4)) {
    extents[0] = rng.uniform(1, 2);
    for (int k = 1; k + 1 < depth; ++k)
      extents[static_cast<std::size_t>(k)] = rng.uniform(2, 4);
    extents[static_cast<std::size_t>(depth - 1)] = rng.uniform(64, 96);
  }
  LoopNestBuilder b;
  std::vector<std::pair<i64, i64>> box;
  for (int k = 0; k < depth; ++k) {
    i64 lo = rng.uniform(-2, 2);
    i64 ext = extents[static_cast<std::size_t>(k)];
    i64 hi = lo + ext - 1;
    box.emplace_back(lo, hi);
    // A third of the inner levels get an affine non-constant bound: the
    // constant stays as one max/min term, so the triangular space is a
    // subset of the rectangular box (the declared array hulls and the
    // value-growth bound still hold). These are the wedge shapes the
    // steady-state partition pass splits into prologue/steady/epilogue.
    if (k >= 1 && rng.chance(1, 3)) {
      int m = static_cast<int>(rng.uniform(0, k - 1));
      intlin::Vec coeffs(static_cast<std::size_t>(depth), 0);
      coeffs[static_cast<std::size_t>(m)] = rng.chance(1, 2) ? 1 : -1;
      AffineExpr e(std::move(coeffs), rng.uniform(-2, 2));
      loopir::Bound lower = loopir::Bound::constant(depth, lo);
      loopir::Bound upper = loopir::Bound::constant(depth, hi);
      if (rng.chance(1, 2))
        lower.add_term({e, 1});  // lower = max(lo, e)
      else
        upper.add_term({e, 1});  // upper = min(hi, e)
      b.loop("i" + std::to_string(k + 1), std::move(lower), std::move(upper));
    } else {
      b.loop("i" + std::to_string(k + 1), lo, hi);
    }
  }

  int arity = static_cast<int>(rng.uniform(1, depth >= 2 ? 2 : 1));
  bool with_b = rng.chance(1, 2);
  int statements = static_cast<int>(rng.uniform(1, 2));

  // Subscripts first, so the array dims can be declared as their hull.
  struct StmtSubs {
    std::vector<AffineExpr> write, read_a, read_b;
    i64 constant;
    bool has_read_b;
    i64 b_scale;
  };
  std::vector<StmtSubs> stmts;
  std::vector<std::pair<i64, i64>> a_dims(static_cast<std::size_t>(arity),
                                          {0, 0});
  std::vector<std::pair<i64, i64>> b_dims(static_cast<std::size_t>(arity),
                                          {0, 0});
  auto widen = [&](std::vector<std::pair<i64, i64>>& dims,
                   const std::vector<AffineExpr>& subs) {
    for (std::size_t d = 0; d < subs.size(); ++d) {
      auto [lo, hi] = subscript_range(subs[d], box);
      dims[d].first = std::min(dims[d].first, lo);
      dims[d].second = std::max(dims[d].second, hi);
    }
  };
  for (int s = 0; s < statements; ++s) {
    StmtSubs st;
    for (int d = 0; d < arity; ++d) {
      st.write.push_back(random_subscript(rng, depth, rng.chance(2, 3)));
      st.read_a.push_back(random_subscript(rng, depth, rng.chance(2, 3)));
      st.read_b.push_back(random_subscript(rng, depth, false));
    }
    st.constant = rng.uniform(-9, 9);
    st.has_read_b = with_b && rng.chance(2, 3);
    st.b_scale = rng.uniform(1, 3);
    widen(a_dims, st.write);
    widen(a_dims, st.read_a);
    if (st.has_read_b) widen(b_dims, st.read_b);
    stmts.push_back(std::move(st));
  }

  b.array("A", a_dims);
  if (with_b) b.array("B", b_dims);

  for (const StmtSubs& st : stmts) {
    ExprPtr rhs = Expr::add(Expr::read(loopir::ArrayRef{"A", st.read_a}),
                            Expr::constant(st.constant));
    if (st.has_read_b) {
      ExprPtr rb = Expr::read(loopir::ArrayRef{"B", st.read_b});
      if (st.b_scale > 1)
        rb = Expr::mul(rb, Expr::constant(st.b_scale));
      rhs = Expr::add(rhs, rb);
    }
    b.assign(loopir::ArrayRef{"A", st.write}, rhs);
  }
  return b.build();
}

// -------------------------------------------------- indirect generator

/// One random indirect-subscript nest plus the index-array contents it
/// must run against. Statement forms (all additive in A, so values stay
/// well inside int64):
///   scatter-accumulate  A[B[i]] = A[B[i]] + C[i]
///   pure scatter        A[B[i]] = C[i] + const   (duplicate order matters)
///   pure gather         D[i]    = A[B[i]] + C[i]
/// Index arrays come in the three shapes that stress the inspector
/// differently: a random permutation (all classes singleton chains),
/// duplicate-heavy values in a small range (long conflict chains), and a
/// monotone non-decreasing ramp (runs of adjacent conflicts). A's lower
/// bound is a random nonzero value in [-20, 20].
struct IndirectCase {
  LoopNest nest;
  std::vector<i64> index_values;
  std::string shape;
};

IndirectCase random_indirect_nest(Rng& rng) {
  i64 n = rng.uniform(24, 72);
  int shape = static_cast<int>(rng.uniform(0, 2));
  i64 a_hi;
  std::vector<i64> vals(static_cast<std::size_t>(n));
  if (shape == 0) {  // permutation
    a_hi = n - 1;
    for (i64 i = 0; i < n; ++i) vals[static_cast<std::size_t>(i)] = i;
    for (i64 i = n - 1; i > 0; --i)
      std::swap(vals[static_cast<std::size_t>(i)],
                vals[static_cast<std::size_t>(rng.uniform(0, i))]);
  } else if (shape == 1) {  // duplicate-heavy
    a_hi = std::max<i64>(1, n / 6);
    for (auto& v : vals) v = rng.uniform(0, a_hi);
  } else {  // monotone non-decreasing
    a_hi = std::max<i64>(1, n / 2);
    i64 cur = 0;
    for (auto& v : vals) {
      v = cur;
      cur = std::min(a_hi, cur + rng.uniform(0, 1));
    }
  }

  // A nonzero lower bound on the target, with the index values shifted to
  // match, so the inspector's per-array offsets must subtract it.
  i64 a_lo = rng.uniform(1, 20) * (rng.uniform(0, 1) == 0 ? -1 : 1);
  for (auto& v : vals) v += a_lo;

  int form = static_cast<int>(rng.uniform(0, 2));
  LoopNestBuilder b;
  b.loop("i", 0, n - 1);
  b.array("A", {{a_lo, a_lo + a_hi}});
  b.array("B", {{0, n - 1}});
  b.array("C", {{0, n - 1}});
  if (form == 2) b.array("D", {{0, n - 1}});
  loopir::ArrayRef a_ind;
  a_ind.array = "A";
  a_ind.subscripts = {b.cst(0)};
  a_ind.indirect = {loopir::IndirectSubscript{"B", b.idx(0)}};
  ExprPtr read_c = Expr::read(b.ref("C", {b.idx(0)}));
  if (form == 0) {
    b.assign(a_ind, Expr::add(Expr::read(a_ind), std::move(read_c)));
  } else if (form == 1) {
    b.assign(a_ind,
             Expr::add(std::move(read_c), Expr::constant(rng.uniform(-9, 9))));
  } else {
    b.assign(b.ref("D", {b.idx(0)}),
             Expr::add(Expr::read(a_ind), std::move(read_c)));
  }
  const char* shapes[] = {"permutation", "duplicate-heavy", "monotone"};
  const char* forms[] = {"scatter-accumulate", "scatter", "gather"};
  return {b.build(), std::move(vals),
          std::string(shapes[shape]) + "/" + forms[form] +
              " A lo=" + std::to_string(a_lo)};
}

// ----------------------------------------------------------- differential

struct FuzzStats {
  int attempted = 0;
  int compiled = 0;  ///< analysis succeeded, cross-check ran
  int skipped = 0;   ///< analysis rejected the nest (kUnsupported etc.)
  int jit_native = 0;
  /// Divergence reports (empty = all backends bit-identical). Collected
  /// instead of raised so the standalone --fuzz mode can run outside a
  /// gtest test context.
  std::vector<std::string> failures;
};

/// One successful execute() of a cross-check.
struct CrossCheckRun {
  ExecBackend backend;
  std::size_t threads;
  i64 workers_used;
};

/// Cross-checks one nest through every backend/thread combination against
/// the sequential reference; divergences append to stats.failures. When
/// `runs` is given, every successful execute() appends its record.
void cross_check(const Compiler& compiler, const LoopNest& nest,
                 const std::string& trace, FuzzStats& stats,
                 std::vector<CrossCheckRun>* runs = nullptr) {
  Expected<CompiledLoop> loop = compiler.compile(nest);
  if (!loop) {
    ++stats.skipped;
    return;  // outside the supported model: nothing to differentiate
  }
  ++stats.compiled;

  exec::ArrayStore init(nest);
  init.fill_pattern();
  exec::ArrayStore ref = init;
  exec::run_sequential(nest, ref);

  const ExecBackend backends[] = {ExecBackend::kInterpreter,
                                  ExecBackend::kCompiled, ExecBackend::kJit,
                                  ExecBackend::kInspector};
  const char* names[] = {"interpreter", "compiled", "jit", "inspector"};
  const std::size_t thread_counts[] = {1, 2, 8};
  // Column runs: with a compiled body, a plan with a DOALL level runs it as
  // columns, every iteration; without one, none.
  const bool columns = loop->plan().doall_loops > 0 &&
                       exec::CompiledKernel::try_compile(nest) != nullptr;
  for (int bk = 0; bk < 4; ++bk) {
    for (std::size_t threads : thread_counts) {
      exec::ArrayStore got = init;
      ExecPolicy policy;
      policy.backend(backends[bk]).threads(threads);
      Expected<ExecReport> rep = loop->execute(policy, got);
      if (!rep) {
        stats.failures.push_back("execute(" + std::string(names[bk]) +
                                 ", threads=" + std::to_string(threads) +
                                 ") failed: " + rep.error().to_string() +
                                 "\n" + trace + nest.to_string());
        continue;
      }
      if (backends[bk] == ExecBackend::kJit && threads == 1 && rep->jit)
        ++stats.jit_native;
      if (runs) runs->push_back({backends[bk], threads, rep->workers_used});
      if (backends[bk] == ExecBackend::kCompiled &&
          rep->column_iterations != (columns ? rep->iterations : 0)) {
        stats.failures.push_back(
            "compiled at " + std::to_string(threads) + " thread(s) ran " +
            std::to_string(rep->column_iterations) + " of " +
            std::to_string(rep->iterations) + " iterations as columns (" +
            std::to_string(loop->plan().doall_loops) + " DOALL level(s))\n" +
            trace + nest.to_string());
      }
      if (!(got == ref)) {
        stats.failures.push_back("backend " + std::string(names[bk]) +
                                 " at " + std::to_string(threads) +
                                 " thread(s) diverged from sequential\n" +
                                 trace + nest.to_string());
      }
    }
  }
}

/// Indirect nests run only through the runtime inspector (every ExecPolicy
/// backend routes there for a non-affine nest); the backend picks the leaf
/// body: kInspector and kCompiled the postfix CompiledKernel, kJit the
/// native row kernel. The differential axis is backend x worker count x
/// pinning against the sequential reference, starting from `init`. A kJit
/// run must be native whenever a toolchain is found.
void indirect_cross_check(const Compiler& compiler, const LoopNest& nest,
                          const exec::ArrayStore& init,
                          const std::string& trace, FuzzStats& stats) {
  Expected<CompiledLoop> loop = compiler.compile(nest);
  if (!loop) {
    stats.failures.push_back("indirect compile failed: " +
                             loop.error().to_string() + "\n" + trace +
                             nest.to_string());
    return;
  }
  ++stats.compiled;

  exec::ArrayStore ref = init;
  exec::run_sequential(nest, ref);

  static const bool toolchain = jit::discover_toolchain().has_value();
  const ExecBackend backends[] = {ExecBackend::kInspector,
                                  ExecBackend::kCompiled, ExecBackend::kJit};
  const char* names[] = {"inspector", "compiled", "jit"};
  for (int bk = 0; bk < 3; ++bk) {
    for (std::size_t threads : {1u, 2u, 8u}) {
      for (bool pin : {true, false}) {
        const std::string where = std::string(names[bk]) + " at " +
                                  std::to_string(threads) + " thread(s), pin " +
                                  (pin ? "on" : "off");
        exec::ArrayStore got = init;
        ExecPolicy policy;
        policy.backend(backends[bk]).threads(threads).pin_workers(pin);
        Expected<ExecReport> rep = loop->execute(policy, got);
        if (!rep) {
          stats.failures.push_back("indirect execute(" + where +
                                   ") failed: " + rep.error().to_string() +
                                   "\n" + trace + nest.to_string());
          continue;
        }
        if (!rep->inspector)
          stats.failures.push_back(
              "indirect nest did not run via the inspector (" + where + ")\n" +
              trace + nest.to_string());
        if (rep->jit != (backends[bk] == ExecBackend::kJit && toolchain))
          stats.failures.push_back("indirect " + where + " reported jit=" +
                                   (rep->jit ? "true" : "false") + "\n" +
                                   trace + nest.to_string());
        if (rep->jit_partitioned)
          stats.failures.push_back("indirect " + where +
                                   " reported a partitioned kernel\n" + trace +
                                   nest.to_string());
        if (rep->jit && threads == 1) ++stats.jit_native;
        if (!(got == ref))
          stats.failures.push_back(where + " diverged from sequential\n" +
                                   trace + nest.to_string());
      }
    }
  }
}

void indirect_cross_check(const Compiler& compiler, const IndirectCase& c,
                          const std::string& trace, FuzzStats& stats) {
  exec::ArrayStore init(c.nest);
  init.fill_pattern();
  for (std::size_t k = 0; k < c.index_values.size(); ++k)
    init.write("B", intlin::Vec{static_cast<i64>(k)}, c.index_values[k]);
  indirect_cross_check(compiler, c.nest, init, trace + "(" + c.shape + ")\n",
                       stats);
}

/// Runs `cases` random indirect nests from `seed`.
FuzzStats run_indirect_fuzz(std::uint64_t seed, int cases) {
  Compiler compiler;
  Rng rng(seed);
  FuzzStats stats;
  for (int k = 0; k < cases && stats.failures.empty(); ++k) {
    ++stats.attempted;
    IndirectCase c = random_indirect_nest(rng);
    std::string trace = "indirect seed " + std::to_string(seed) + " case " +
                        std::to_string(k) + " (" + c.shape + "):\n";
    indirect_cross_check(compiler, c, trace, stats);
  }
  return stats;
}

/// Runs `cases` random nests from `seed` through the full cross-check.
FuzzStats run_fuzz(std::uint64_t seed, int cases) {
  Compiler compiler;
  Rng rng(seed);
  FuzzStats stats;
  for (int k = 0; k < cases && stats.failures.empty(); ++k) {
    ++stats.attempted;
    LoopNest nest = random_nest(rng);
    std::string trace =
        "seed " + std::to_string(seed) + " case " + std::to_string(k) + ":\n";
    cross_check(compiler, nest, trace, stats);
  }
  return stats;
}

void expect_clean(const FuzzStats& s) {
  for (const std::string& f : s.failures) ADD_FAILURE() << f;
  // Pin a yield floor so generator drift can't silently hollow the suite
  // out (the exact compiled count is deterministic per seed).
  EXPECT_GE(s.compiled, 50) << "generator yield collapsed";
}

// The four fixed-seed suites: >= 200 compiled cases total.
TEST(Differential, FuzzSeedA) { expect_clean(run_fuzz(0xA11CE, 60)); }
TEST(Differential, FuzzSeedB) { expect_clean(run_fuzz(0xB0B, 60)); }
TEST(Differential, FuzzSeedC) { expect_clean(run_fuzz(0xC0FFEE, 60)); }
TEST(Differential, FuzzSeedD) { expect_clean(run_fuzz(0xD00D, 60)); }

// Indirect-subscript suites: every generated nest compiles (the non-affine
// artifact path never rejects), so compiled == attempted, and every nest
// ran native under kJit when a toolchain exists.
void expect_indirect_clean(const FuzzStats& s, int cases) {
  for (const std::string& f : s.failures) ADD_FAILURE() << f;
  EXPECT_EQ(s.compiled, cases);
  if (jit::discover_toolchain())
    EXPECT_EQ(s.jit_native, 2 * cases);  // once per pinning
}
TEST(Differential, IndirectFuzzSeedE) {
  expect_indirect_clean(run_indirect_fuzz(0xE44E, 50), 50);
}
TEST(Differential, IndirectFuzzSeedF) {
  expect_indirect_clean(run_indirect_fuzz(0xF00F, 50), 50);
}
// The hand-written indirect inputs (negative bounds, two written arrays, a
// 2-D target, a read-only gather source) plus the conflict-free
// permutation, through the same backend x worker x pinning matrix.
TEST(Differential, IndirectInputsCrossCheck) {
  Compiler compiler;
  FuzzStats stats;
  std::vector<test_inputs::IndirectInput> inputs = test_inputs::indirect_inputs();
  inputs.push_back(test_inputs::permutation_input(48));
  for (const test_inputs::IndirectInput& in : inputs)
    indirect_cross_check(compiler, in.nest, test_inputs::initial_store(in),
                         in.name + ":\n", stats);
  expect_indirect_clean(stats, static_cast<int>(inputs.size()));
}

// Pinned hard cases: the paper's own examples (variable distances with
// nontrivial class structure) and the classical kernels, through the same
// cross-check harness at sizes the fuzz generator does not reach.
TEST(Differential, PaperSuiteCrossCheck) {
  Compiler compiler;
  FuzzStats stats;
  for (i64 n : {i64{6}, i64{13}}) {
    for (const core::NamedNest& c : core::paper_suite(n)) {
      cross_check(compiler, c.nest, c.name + " at n=" + std::to_string(n) + ":\n",
                  stats);
    }
  }
  // The suite's partitioned nests are small, or their classes share cache
  // lines, so most of them run on the caller. Row-parity classes sit rows
  // apart: their class range splits across workers under every static
  // backend, so the class-split leaves are cross-checked too.
  for (i64 n : {i64{16}, i64{40}}) {
    std::vector<CrossCheckRun> runs;
    cross_check(compiler, test_inputs::row_parity(n),
                "row_parity at n=" + std::to_string(n) + ":\n", stats, &runs);
    int multi_worker = 0;
    for (const CrossCheckRun& r : runs) {
      if (r.backend == ExecBackend::kInspector || r.threads == 1) continue;
      EXPECT_GT(r.workers_used, 1)
          << "row_parity at n=" << n << ", backend "
          << static_cast<int>(r.backend) << ", threads=" << r.threads;
      ++multi_worker;
    }
    EXPECT_EQ(multi_worker, 6) << "row_parity at n=" << n;
  }
  for (const std::string& f : stats.failures) ADD_FAILURE() << f;
  EXPECT_GE(stats.compiled, 20);
}

}  // namespace
}  // namespace vdep

// Custom main: gtest by default; `--fuzz N [seed]` runs N standalone cases
// (used by the CI soak leg and for local bug hunting).
int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int k = 1; k < argc; ++k) {
    if (std::strcmp(argv[k], "--fuzz") == 0 && k + 1 < argc) {
      int cases = std::atoi(argv[k + 1]);
      std::uint64_t seed =
          k + 2 < argc ? std::strtoull(argv[k + 2], nullptr, 0) : 0xF422;
      vdep::FuzzStats stats = vdep::run_fuzz(seed, cases);
      for (const std::string& f : stats.failures)
        std::fprintf(stderr, "FAIL: %s\n", f.c_str());
      std::printf(
          "fuzz: %d attempted, %d compiled+cross-checked, %d skipped "
          "(unsupported), %d native-jit, %zu failures\n",
          stats.attempted, stats.compiled, stats.skipped, stats.jit_native,
          stats.failures.size());
      return stats.failures.empty() ? 0 : 1;
    }
  }
  return RUN_ALL_TESTS();
}
