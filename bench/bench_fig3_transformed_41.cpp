// E2 / Figure 3: Example 4.1 after the unimodular transformation and the
// partitioning step.
//
// The paper's figure shows two separate partitions (jo2 in {0,1}) whose
// dependence arrows are parallel to the sequential axis and whose stride
// doubled. Regenerated here as: DOALL width, class count, per-item sizes,
// zero cross-item dependence edges, and the transformed distance vectors
// (0, 2k). Timed: schedule construction and the parallel execution.
#include <benchmark/benchmark.h>

#include <iostream>

#include "api/vdep.h"
#include "core/suite.h"
#include "dep/pdm.h"
#include "exec/isdg.h"
#include "exec/verify.h"
#include "trans/planner.h"

using namespace vdep;

namespace {

void print_report() {
  const intlin::i64 n = 10;
  loopir::LoopNest nest = core::example41(n);
  dep::Pdm pdm = dep::compute_pdm(nest);
  trans::TransformPlan plan = trans::plan_transform(pdm);

  std::cout << "=== Figure 3: transformed + partitioned Example 4.1 ===\n";
  std::cout << "T = " << plan.t.to_string()
            << ", H*T = " << plan.transformed_pdm.to_string() << "\n";
  std::cout << "outer DOALL loops: " << plan.num_doall
            << ", partition classes: " << plan.partition_classes << "\n";

  // Transformed distances: d * T must be (0, even) — arrows perpendicular
  // to the DOALL axis, stride 2 (the paper's "shortened arrows").
  exec::Isdg g = exec::build_isdg(nest);
  bool all_vertical = true;
  intlin::i64 min_stride = 0;
  for (const intlin::Vec& d : g.distance_vectors()) {
    intlin::Vec dt = intlin::vec_mat_mul(d, plan.t);
    all_vertical = all_vertical && dt[0] == 0;
    intlin::i64 s = checked::abs(dt[1]);
    if (min_stride == 0 || s < min_stride) min_stride = s;
  }
  std::cout << "transformed arrows perpendicular to DOALL axis: "
            << (all_vertical ? "yes" : "NO")
            << ", min stride along j2: " << min_stride << "\n";

  exec::Schedule sched = exec::build_schedule(nest, plan);
  std::cout << "independent work items: " << sched.parallelism()
            << " (DOALL width " << 4 * n + 1 << " x 2 classes), longest item "
            << sched.max_item_size() << "\n";
  std::cout << "cross-item dependence edges: " << g.cross_item_edges(sched)
            << " (paper: partitions are fully separate)\n";
  exec::VerifyResult v = exec::verify_schedule(nest, sched);
  std::cout << "legality (trace verifier): " << (v.ok ? "legal" : "ILLEGAL")
            << "\n"
            << std::endl;
}

void BM_BuildSchedule41(benchmark::State& state) {
  loopir::LoopNest nest = core::example41(state.range(0));
  trans::TransformPlan plan = trans::plan_transform(dep::compute_pdm(nest));
  for (auto _ : state) {
    exec::Schedule sched = exec::build_schedule(nest, plan);
    benchmark::DoNotOptimize(sched.parallelism());
  }
}
BENCHMARK(BM_BuildSchedule41)->Arg(10)->Arg(20)->Arg(40);

void BM_ParallelRun41(benchmark::State& state) {
  loopir::LoopNest nest = core::example41(state.range(0));
  Compiler compiler;
  CompiledLoop loop = compiler.compile(nest).value();
  const auto threads = static_cast<std::size_t>(state.range(1));
  ThreadPool pool(threads);
  const ExecPolicy policy = ExecPolicy{}.threads(threads);
  for (auto _ : state) {
    exec::ArrayStore store(nest);
    store.fill_pattern();
    (void)loop.execute(policy, store, pool).value();
    benchmark::DoNotOptimize(store.checksum());
  }
}
BENCHMARK(BM_ParallelRun41)->Args({40, 1})->Args({40, 2})->Args({40, 4});

}  // namespace

int main(int argc, char** argv) {
  print_report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
