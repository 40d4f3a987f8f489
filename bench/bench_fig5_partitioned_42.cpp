// E4 / Figure 5: Example 4.2 partitioned into det(H) = 4 independent 2-D
// iteration sub-spaces.
//
// Figure 5's content: four partitions (io1, io2 in {0,1}); arrows shorter
// in proportion to the doubled step; "the skewing affects the offsets of
// the iteration indices, while the iteration space has the same square
// shape as the original". Regenerated as: class count and sizes, zero
// cross-class edges, per-class bounding boxes, and the skewed-offset
// membership witness.
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
  loopir::LoopNest nest = core::example42(n);
  dep::Pdm pdm = dep::compute_pdm(nest);
  trans::TransformPlan plan = trans::plan_transform(pdm);
  const trans::Partitioning& part = *plan.partition;

  std::cout << "=== Figure 5: Example 4.2 partitioned into 4 sub-spaces ===\n";
  std::cout << "lattice basis " << part.lattice_basis().to_string()
            << ", det = " << part.num_classes() << "\n";

  exec::Schedule sched = exec::build_schedule(nest, plan);
  exec::Isdg g = exec::build_isdg(nest);
  std::cout << "classes: " << sched.parallelism()
            << ", cross-class dependence edges: " << g.cross_item_edges(sched)
            << "\n";

  for (std::size_t k = 0; k < sched.items.size(); ++k) {
    const auto& item = sched.items[k];
    intlin::i64 lo1 = item[0][0], hi1 = item[0][0];
    intlin::i64 lo2 = item[0][1], hi2 = item[0][1];
    for (const intlin::Vec& i : item) {
      lo1 = std::min(lo1, i[0]);
      hi1 = std::max(hi1, i[0]);
      lo2 = std::min(lo2, i[1]);
      hi2 = std::max(hi2, i[1]);
    }
    std::cout << "  class " << k << ": " << item.size() << " iterations, box ["
              << lo1 << "," << hi1 << "] x [" << lo2 << "," << hi2
              << "]  (same square shape)\n";
  }

  // The skewed offset (t1 * h12 coupling): (0,0) ~ (2,1), but not (2,0).
  std::cout << "skewed offsets: class(0,0) == class(2,1): "
            << (part.class_id({0, 0}) == part.class_id({2, 1}) ? "yes" : "no")
            << "; class(0,0) == class(2,0): "
            << (part.class_id({0, 0}) == part.class_id({2, 0}) ? "yes" : "no")
            << "\n";

  exec::VerifyResult v = exec::verify_schedule(nest, sched);
  std::cout << "legality (trace verifier): " << (v.ok ? "legal" : "ILLEGAL")
            << "\n";

  // In-terminal rendering of the figure: digits are partition classes.
  loopir::LoopNest small = core::example42(6);
  exec::Schedule small_sched = exec::build_schedule(
      small, trans::plan_transform(dep::compute_pdm(small)));
  exec::Isdg small_g = exec::build_isdg(small);
  std::cout << "Figure 5 rendering (N=6; digit = class of each dependent "
               "iteration):\n"
            << small_g.to_ascii(&small_sched) << std::endl;
}

void BM_PartitionScan42(benchmark::State& state) {
  loopir::LoopNest nest = core::example42(state.range(0));
  trans::TransformPlan plan = trans::plan_transform(dep::compute_pdm(nest));
  const trans::Partitioning& part = *plan.partition;
  for (auto _ : state) {
    intlin::i64 count = 0;
    for (intlin::i64 id = 0; id < part.num_classes(); ++id)
      part.for_each_class_iteration(nest, part.class_label(id),
                                    [&](const intlin::Vec&) { ++count; });
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_PartitionScan42)->Arg(10)->Arg(40)->Arg(80);

void BM_ParallelRun42(benchmark::State& state) {
  loopir::LoopNest nest = core::example42(state.range(0));
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
BENCHMARK(BM_ParallelRun42)->Args({60, 1})->Args({60, 2})->Args({60, 4});

}  // namespace

int main(int argc, char** argv) {
  print_report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
