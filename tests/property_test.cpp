// Parameterized property suites (TEST_P) sweeping the full pipeline over
// randomized loops, seeds and sizes:
//
//   P1. every empirical (brute-forced) dependence distance lies in the PDM
//       lattice — the PDM is a sound summary;
//   P2. the planned transformation is Theorem-1 legal and its schedule
//       passes the memory-trace verifier;
//   P3. parallel execution reproduces sequential semantics bit for bit;
//   P4. compiled kernels agree with the tree-walking interpreter;
//   P5. emitted transformed C visits the same iteration set (via rewrite
//       bijection), checked structurally.
#include <gtest/gtest.h>

#include <set>

#include "api/vdep.h"
#include "codegen/rewrite.h"
#include "intlin/det.h"
#include "core/suite.h"
#include "dep/pdm.h"
#include "exec/compiled.h"
#include "exec/isdg.h"
#include "exec/verify.h"
#include "loopir/builder.h"
#include "runtime/stream_executor.h"
#include "support/rng.h"
#include "trans/planner.h"

namespace vdep {
namespace {

using intlin::i64;
using intlin::Vec;
using loopir::Expr;
using loopir::LoopNest;
using loopir::LoopNestBuilder;

/// Runs `plan` over `store` through the streaming runtime, one worker
/// context per `pool` thread.
void run_streaming(const LoopNest& nest, const trans::TransformPlan& plan,
                   exec::ArrayStore& store, ThreadPool& pool) {
  runtime::StreamOptions so;
  so.num_threads = pool.size();
  runtime::StreamExecutor(nest, plan, so).run(store, pool);
}

// ------------------------------------------------ randomized 2-deep loops

struct RandomLoopCase {
  std::uint64_t seed;
  i64 n;
};

void PrintTo(const RandomLoopCase& c, std::ostream* os) {
  *os << "seed" << c.seed << "_n" << c.n;
}

LoopNest random_loop(const RandomLoopCase& c) {
  Rng rng(c.seed);
  LoopNestBuilder b;
  b.loop("i1", -c.n, c.n).loop("i2", -c.n, c.n);
  b.array("A", {{-300, 300}});
  b.array("B", {{-300, 300}});
  auto aff = [&] {
    return b.affine({rng.uniform(-3, 3), rng.uniform(-3, 3)}, rng.uniform(-4, 4));
  };
  // One or two statements, A and possibly B, with 1-2 reads each.
  b.assign(b.ref("A", {aff()}),
           Expr::add(b.read("A", {aff()}), Expr::constant(rng.uniform(1, 5))));
  if (rng.chance(1, 2)) {
    b.assign(b.ref("B", {aff()}),
             Expr::sub(b.read("A", {aff()}), b.read("B", {aff()})));
  }
  return b.build();
}

class PipelineProperty : public ::testing::TestWithParam<RandomLoopCase> {};

TEST_P(PipelineProperty, PdmCoversEmpiricalDistances) {
  LoopNest nest = random_loop(GetParam());
  dep::Pdm pdm = dep::compute_pdm(nest);
  intlin::Lattice lat = pdm.lattice();
  exec::Isdg g = exec::build_isdg(nest);
  for (const Vec& d : g.distance_vectors())
    EXPECT_TRUE(lat.contains(d))
        << nest.to_string() << "distance " << intlin::to_string(d)
        << " outside " << pdm.to_string();
}

TEST_P(PipelineProperty, PlanIsLegalAndVerified) {
  LoopNest nest = random_loop(GetParam());
  dep::Pdm pdm = dep::compute_pdm(nest);
  trans::TransformPlan plan = trans::plan_transform(pdm);
  EXPECT_TRUE(trans::is_legal_transform(pdm.matrix(), plan.t));
  exec::Schedule sched = exec::build_schedule(nest, plan);
  exec::VerifyResult v = exec::verify_schedule(nest, sched);
  EXPECT_TRUE(v.ok) << nest.to_string()
                    << (v.violations.empty() ? "" : v.violations[0].reason);
  EXPECT_EQ(sched.total_iterations(), nest.iteration_count());
}

TEST_P(PipelineProperty, ParallelMatchesSequential) {
  LoopNest nest = random_loop(GetParam());
  trans::TransformPlan plan = trans::plan_transform(dep::compute_pdm(nest));
  ThreadPool pool(3);
  exec::ArrayStore ref(nest);
  ref.fill_pattern();
  exec::ArrayStore par = ref;
  exec::run_sequential(nest, ref);
  run_streaming(nest, plan, par, pool);
  EXPECT_EQ(ref, par) << nest.to_string() << plan.to_string();
}

TEST_P(PipelineProperty, CompiledAgreesWithInterpreter) {
  LoopNest nest = random_loop(GetParam());
  exec::ArrayStore a(nest), b(nest);
  a.fill_pattern();
  b.fill_pattern();
  exec::run_sequential(nest, a);
  exec::CompiledKernel(nest).run_sequential(b);
  EXPECT_EQ(a, b) << nest.to_string();
}

TEST_P(PipelineProperty, RewriteIsABijection) {
  LoopNest nest = random_loop(GetParam());
  trans::TransformPlan plan = trans::plan_transform(dep::compute_pdm(nest));
  codegen::TransformedNest tn = codegen::rewrite_nest(nest, plan);
  std::set<Vec> seen;
  tn.nest.for_each_iteration([&](const Vec& j) {
    EXPECT_TRUE(seen.insert(tn.original_iteration(j)).second);
  });
  EXPECT_EQ(static_cast<i64>(seen.size()), nest.iteration_count());
  for (const Vec& i : nest.iterations()) EXPECT_TRUE(seen.count(i));
}

INSTANTIATE_TEST_SUITE_P(
    RandomLoops, PipelineProperty,
    ::testing::Values(RandomLoopCase{1, 3}, RandomLoopCase{2, 3},
                      RandomLoopCase{3, 4}, RandomLoopCase{4, 4},
                      RandomLoopCase{5, 3}, RandomLoopCase{6, 4},
                      RandomLoopCase{7, 3}, RandomLoopCase{8, 4},
                      RandomLoopCase{9, 5}, RandomLoopCase{10, 5},
                      RandomLoopCase{11, 3}, RandomLoopCase{12, 4},
                      RandomLoopCase{13, 5}, RandomLoopCase{14, 3},
                      RandomLoopCase{15, 4}, RandomLoopCase{16, 5}));

// ------------------------------------------------ suite-kernel sweeps

class SuiteProperty
    : public ::testing::TestWithParam<std::tuple<std::string, i64>> {
 protected:
  LoopNest nest() const {
    for (core::NamedNest& c : core::paper_suite(std::get<1>(GetParam())))
      if (c.name == std::get<0>(GetParam())) return std::move(c.nest);
    throw Error("unknown suite kernel " + std::get<0>(GetParam()));
  }
};

TEST_P(SuiteProperty, EndToEndChecked) {
  LoopNest n = nest();
  vdep::Compiler compiler;
  ThreadPool pool(3);
  vdep::CompiledLoop loop = compiler.compile(n).value();
  // check() errors on divergence from the sequential reference.
  vdep::ExecReport r = loop.check(vdep::ExecPolicy{}, pool).value();
  EXPECT_TRUE(r.verified);
  EXPECT_GE(loop.measure().work_items, 1);
}

TEST_P(SuiteProperty, CrossItemEdgesAlwaysZero) {
  LoopNest n = nest();
  trans::TransformPlan plan = trans::plan_transform(dep::compute_pdm(n));
  exec::Schedule sched = exec::build_schedule(n, plan);
  exec::Isdg g = exec::build_isdg(n);
  EXPECT_EQ(g.cross_item_edges(sched), 0);
}

INSTANTIATE_TEST_SUITE_P(
    PaperSuite, SuiteProperty,
    ::testing::Combine(
        ::testing::Values("example_4_1", "example_4_2", "uniform_wavefront",
                          "uniform_blocked", "zero_column",
                          "parity_independent", "sequential_chain",
                          "variable_3deep", "triangular_uniform"),
        ::testing::Values<i64>(3, 5)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, i64>>& info) {
      return std::get<0>(info.param) + "_n" +
             std::to_string(std::get<1>(info.param));
    });

// ------------------------------------------------ HNF/partition sweeps

class LatticePartitionProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LatticePartitionProperty, ClassesPartitionTheBox) {
  Rng rng(GetParam());
  intlin::Mat gens(2, 2);
  do {
    for (int r = 0; r < 2; ++r)
      for (int c = 0; c < 2; ++c) gens.at(r, c) = rng.uniform(-4, 4);
  } while (intlin::determinant(gens) == 0);
  intlin::Mat h = intlin::hermite_normal_form(gens);
  trans::Partitioning part(h);

  LoopNestBuilder b;
  b.loop("i1", -6, 6).loop("i2", -6, 6);
  b.array("A", {{-6, 6}, {-6, 6}});
  b.assign(b.ref("A", {b.idx(0), b.idx(1)}), Expr::constant(1));
  LoopNest nest = b.build();

  std::set<Vec> seen;
  for (i64 id = 0; id < part.num_classes(); ++id)
    part.for_each_class_iteration(nest, part.class_label(id), [&](const Vec& i) {
      EXPECT_TRUE(seen.insert(i).second);
      EXPECT_EQ(part.class_id(i), id);
    });
  EXPECT_EQ(static_cast<i64>(seen.size()), nest.iteration_count());
}

TEST_P(LatticePartitionProperty, ResidueEquivalenceMatchesLattice) {
  Rng rng(GetParam() * 7919);
  intlin::Mat gens(2, 2);
  do {
    for (int r = 0; r < 2; ++r)
      for (int c = 0; c < 2; ++c) gens.at(r, c) = rng.uniform(-3, 3);
  } while (intlin::determinant(gens) == 0);
  intlin::Mat h = intlin::hermite_normal_form(gens);
  trans::Partitioning part(h);
  intlin::Lattice lat = intlin::Lattice::from_generators(h);
  Rng sampler(GetParam() + 17);
  for (int k = 0; k < 200; ++k) {
    Vec x{sampler.uniform(-20, 20), sampler.uniform(-20, 20)};
    Vec y{sampler.uniform(-20, 20), sampler.uniform(-20, 20)};
    EXPECT_EQ(part.residue_of(x) == part.residue_of(y),
              lat.contains(intlin::sub(y, x)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LatticePartitionProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

// ------------------------------------------------ 3-deep random pipeline

class Deep3Property : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Deep3Property, FullPipelinePreservesSemantics) {
  Rng rng(GetParam() * 1000003);
  LoopNestBuilder b;
  b.loop("i1", -2, 2).loop("i2", -2, 2).loop("i3", -2, 2);
  b.array("A", {{-200, 200}});
  auto aff = [&] {
    return b.affine({rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2)},
                    rng.uniform(-3, 3));
  };
  b.assign(b.ref("A", {aff()}),
           Expr::add(b.read("A", {aff()}), Expr::constant(1)));
  LoopNest nest = b.build();

  dep::Pdm pdm = dep::compute_pdm(nest);
  trans::TransformPlan plan = trans::plan_transform(pdm);
  EXPECT_TRUE(trans::is_legal_transform(pdm.matrix(), plan.t));

  exec::Schedule sched = exec::build_schedule(nest, plan);
  exec::VerifyResult v = exec::verify_schedule(nest, sched);
  EXPECT_TRUE(v.ok) << nest.to_string();

  ThreadPool pool(3);
  exec::ArrayStore ref(nest);
  ref.fill_pattern();
  exec::ArrayStore par = ref;
  exec::run_sequential(nest, ref);
  run_streaming(nest, plan, par, pool);
  EXPECT_EQ(ref, par) << nest.to_string();
}

INSTANTIATE_TEST_SUITE_P(Seeds, Deep3Property,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace vdep
