// Tests for nest rewriting (unimodular + Fourier-Motzkin bounds) and the C
// emitter — including compiling the emitted C with the discovered C
// toolchain ($VDEP_CC, then cc/gcc/clang) and comparing checksums of
// original vs transformed programs.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <set>

#include "codegen/emit_c.h"
#include "codegen/rewrite.h"
#include "core/suite.h"
#include "dep/pdm.h"
#include "exec/interpreter.h"
#include "jit/toolchain.h"
#include "loopir/builder.h"
#include "trans/planner.h"

namespace vdep::codegen {
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

// ----------------------------------------------------------- rewriting

TEST(Rewrite, BijectionOnExample41) {
  LoopNest nest = example41(6);
  trans::TransformPlan plan = plan_for(nest);
  TransformedNest tn = rewrite_nest(nest, plan);
  std::set<intlin::Vec> original;
  for (const auto& i : nest.iterations()) original.insert(i);
  std::set<intlin::Vec> mapped;
  i64 count = 0;
  tn.nest.for_each_iteration([&](const intlin::Vec& j) {
    mapped.insert(tn.original_iteration(j));
    ++count;
  });
  EXPECT_EQ(count, static_cast<i64>(original.size()));  // no duplicates
  EXPECT_EQ(mapped, original);                          // exact cover
}

TEST(Rewrite, RoundTripIterationMapping) {
  LoopNest nest = example41(4);
  trans::TransformPlan plan = plan_for(nest);
  TransformedNest tn = rewrite_nest(nest, plan);
  for (const auto& i : nest.iterations()) {
    intlin::Vec j = tn.transformed_iteration(i);
    EXPECT_EQ(tn.original_iteration(j), i);
    EXPECT_TRUE(tn.nest.contains(j));
  }
}

TEST(Rewrite, MarksDoallLevels) {
  LoopNest nest = example41(4);
  trans::TransformPlan plan = plan_for(nest);
  ASSERT_EQ(plan.num_doall, 1);
  TransformedNest tn = rewrite_nest(nest, plan);
  EXPECT_TRUE(tn.nest.level(0).parallel);
  EXPECT_FALSE(tn.nest.level(1).parallel);
}

TEST(Rewrite, SubstitutedBodyComputesSameValues) {
  // Running the rewritten nest sequentially (its own j-order) must produce
  // the same store as the original: j-order is legal by Theorem 1.
  LoopNest nest = example41(5);
  trans::TransformPlan plan = plan_for(nest);
  TransformedNest tn = rewrite_nest(nest, plan);

  exec::ArrayStore ref(nest);
  ref.fill_pattern();
  exec::ArrayStore got = ref;
  exec::run_sequential(nest, ref);
  exec::run_sequential(tn.nest, got);
  EXPECT_EQ(ref, got);
}

TEST(Rewrite, IdentityTransformKeepsBounds) {
  LoopNest nest = example42(7);
  trans::TransformPlan plan = plan_for(nest);
  ASSERT_TRUE(plan.is_identity_transform());
  TransformedNest tn = rewrite_nest(nest, plan);
  EXPECT_EQ(tn.nest.iteration_count(), nest.iteration_count());
  for (const auto& i : nest.iterations())
    EXPECT_EQ(tn.original_iteration(i), i);
}

TEST(Rewrite, RejectsBadShapes) {
  LoopNest nest = example41(3);
  EXPECT_THROW(rewrite_nest(nest, intlin::Mat::identity(3), 0),
               PreconditionError);
  EXPECT_THROW(rewrite_nest(nest, intlin::Mat::identity(2), 5),
               PreconditionError);
}

// ------------------------------------------------------------ emission

TEST(EmitC, OriginalContainsLoopsAndBody) {
  std::string src = emit_c_original(example41(10));
  EXPECT_NE(src.find("for (int64_t i1 = -10; i1 <= 10; ++i1)"), std::string::npos);
  EXPECT_NE(src.find("A(3*i1 - 2*i2 + 2, -2*i1 + 3*i2 - 2)"), std::string::npos);
  EXPECT_NE(src.find("int main(void)"), std::string::npos);
}

TEST(EmitC, TransformedHasDoallAndClasses) {
  LoopNest nest = example41(10);
  std::string src = emit_c_transformed(nest, plan_for(nest));
  EXPECT_NE(src.find("#pragma omp parallel for"), std::string::npos);
  EXPECT_NE(src.find("/* doall */"), std::string::npos);
  EXPECT_NE(src.find("vdep_class"), std::string::npos);
}

TEST(EmitC, PartitionedOnlyPlanEmitsStridedLoops) {
  LoopNest nest = example42(10);
  std::string src = emit_c_transformed(nest, plan_for(nest));
  EXPECT_NE(src.find("vdep_class < 4"), std::string::npos);
  EXPECT_NE(src.find("+= 2"), std::string::npos);  // stride h_kk = 2
}

TEST(EmitC, ProgramEmbedsTheJitClampedKernel) {
  // One loop emitter: past their header comments, a program without main
  // (so without <stdio.h>) starts with the JIT's clamped range-kernel TU,
  // byte for byte; the driver follows.
  for (const LoopNest& nest : {example41(10), example42(10)}) {
    const trans::TransformPlan plan = plan_for(nest);
    EmitOptions eo;
    eo.with_main = false;
    const std::string prog = emit_c_transformed(nest, plan, eo);
    const std::string jit = emit_c_range_kernel(nest, plan, "kernel_range");
    const std::string body = jit.substr(jit.find('\n') + 1);
    EXPECT_EQ(prog.substr(prog.find('\n') + 1, body.size()), body);
    EXPECT_NE(prog.find("void kernel(void) {"), std::string::npos);
    EXPECT_EQ(prog.find("int main"), std::string::npos);
  }
}

namespace {

// Compiles `src` with `cc` (as the JIT does: -fwrapv) plus `flags` and
// returns the stdout of the produced binary run under `env`.
std::string compile_and_run(const std::string& cc, const std::string& src,
                            const std::string& tag,
                            const std::string& flags = "",
                            const std::string& env = "") {
  std::string dir = ::testing::TempDir();
  std::string cpath = dir + "/vdep_" + tag + ".c";
  std::string bin = dir + "/vdep_" + tag + ".bin";
  {
    std::ofstream f(cpath);
    f << src;
  }
  std::string cmd = cc + " -O1 -std=c99 -fwrapv " + flags + " -o " + bin +
                    " " + cpath + " 2>&1";
  int rc = std::system(cmd.c_str());
  EXPECT_EQ(rc, 0) << "compilation failed for " << tag;
  if (rc != 0) return "";
  FILE* p = popen((env + " " + bin + " 2>&1").c_str(), "r");
  EXPECT_NE(p, nullptr);
  std::string out;
  char buf[256];
  while (p && fgets(buf, sizeof buf, p)) out += buf;
  if (p) pclose(p);
  return out;
}

// Whether `cc` compiles and links an OpenMP program.
bool accepts_openmp(const std::string& cc) {
  const std::string dir = ::testing::TempDir();
  {
    std::ofstream f(dir + "/vdep_omp_probe.c");
    f << "int main(void) {\n  int s = 0;\n"
         "#pragma omp parallel for reduction(+ : s)\n"
         "  for (int i = 0; i < 4; ++i) s += i;\n  return s != 6;\n}\n";
  }
  const std::string cmd = cc + " -fopenmp -o " + dir + "/vdep_omp_probe " +
                          dir + "/vdep_omp_probe.c > /dev/null 2>&1";
  return std::system(cmd.c_str()) == 0;
}

}  // namespace

TEST(EmitCIntegration, SuiteChecksumsMatch) {
  // Every paper-suite kernel: the original and transformed programs leave
  // equal arrays, and so does the transformed one on four OpenMP threads
  // (its driver loop is the outermost DOALL level or the class range).
  const std::optional<std::string> cc = jit::discover_toolchain();
  if (!cc) GTEST_SKIP() << "no C toolchain";
  const bool openmp = accepts_openmp(*cc);
  for (const core::NamedNest& c : core::paper_suite(8)) {
    const std::string want =
        compile_and_run(*cc, emit_c_original(c.nest), "orig_" + c.name);
    ASSERT_FALSE(want.empty()) << c.name;
    const std::string trans = emit_c_transformed(c.nest, plan_for(c.nest));
    EXPECT_EQ(compile_and_run(*cc, trans, "trans_" + c.name), want) << c.name;
    if (openmp)
      EXPECT_EQ(compile_and_run(*cc, trans, "omp_" + c.name, "-fopenmp",
                                "OMP_NUM_THREADS=4"),
                want)
          << c.name;
  }
}

TEST(EmitCIntegration, UniformLoopChecksumsMatch) {
  LoopNestBuilder b;
  b.loop("i1", 0, 12).loop("i2", 0, 12);
  b.array("A", {{-4, 20}, {-4, 20}});
  b.assign(b.ref("A", {b.affine({1, 0}, 2), b.affine({0, 1}, 0)}),
           Expr::add(b.read("A", {b.idx(0), b.affine({0, 1}, -2)}),
                     b.read("A", {b.affine({1, 0}, 2), b.affine({0, 1}, 2)})));
  LoopNest nest = b.build();
  const std::optional<std::string> cc = jit::discover_toolchain();
  if (!cc) GTEST_SKIP() << "no C toolchain";
  std::string x = compile_and_run(*cc, emit_c_original(nest), "origu");
  std::string y = compile_and_run(
      *cc, emit_c_transformed(nest, plan_for(nest)), "transu");
  ASSERT_FALSE(x.empty());
  EXPECT_EQ(x, y);
}

}  // namespace
}  // namespace vdep::codegen
