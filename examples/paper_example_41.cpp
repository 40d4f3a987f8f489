// Paper Section 4.1 walkthrough (non-full-rank pseudo distance matrix).
//
// Reproduces, step by step, what the paper shows in Figures 2 and 3:
//   1. the dependence equations and their solution lattice,
//   2. the PDM H = [2 -2] (rank 1 < depth 2),
//   3. Algorithm 1's legal unimodular T with H*T = [0 2],
//   4. the transformed loop: outer DOALL + inner loop partitioned by 2,
//   5. ISDG statistics before/after and an execution proof.
#include <iostream>

#include "api/vdep.h"
#include "core/suite.h"
#include "exec/isdg.h"
#include "exec/verify.h"

using namespace vdep;

int main() {
  const intlin::i64 n = 10;  // the paper plots N = 10
  loopir::LoopNest nest = core::example41(n);

  std::cout << "== original loop (paper 4.1, reconstructed) ==\n"
            << nest.to_string() << "\n";

  // Step 1-2: dependence analysis and the PDM, through the staged API —
  // compile() runs the pipeline once, the stage accessors are lookups.
  Compiler compiler;
  CompiledLoop loop = compiler.compile(nest).value();
  const dep::Pdm& pdm = loop.analysis().pdm;
  for (const dep::DepPair& p : pdm.pairs()) {
    std::cout << dep::to_string(p.kind)
              << " dependence: delta0 = " << intlin::to_string(p.solution.offset)
              << ", generators = " << p.solution.generators.to_string() << "\n";
  }
  std::cout << pdm.to_string() << "\n\n";

  // Step 3: Algorithm 1 (the plan ships with its Theorem 1 certificate).
  const trans::TransformPlan& plan = loop.plan().transform;
  std::cout << "Algorithm 1: T = " << plan.t.to_string()
            << "  =>  H*T = " << plan.transformed_pdm.to_string() << "\n";
  std::cout << "ops:";
  for (const auto& op : plan.algorithm1_ops) std::cout << " " << op;
  std::cout << "\nlegal (Theorem 1): " << (loop.plan().legal ? "yes" : "NO")
            << "\n\n";

  // Step 4: transformed code.
  codegen::TransformedNest tn = codegen::rewrite_nest(nest, plan);
  std::cout << "== transformed loop ==\n" << tn.nest.to_string() << "\n";
  std::cout << "partition classes on the trailing block: "
            << plan.partition_classes << "\n\n";

  // Step 5: figures' numbers. Figure 2 = original ISDG; Figure 3 =
  // partitioned space (arrows only within a DOALL line, stride doubled).
  exec::Isdg g = exec::build_isdg(nest);
  std::cout << "ISDG (N=" << n << "): " << g.node_count() << " nodes, "
            << g.edge_count() << " edges, " << g.dependent_node_count()
            << " dependent nodes, " << g.chain_count() << " chains, "
            << "critical path " << g.critical_path_length() << "\n";

  exec::Schedule sched = exec::build_schedule(nest, plan);
  std::cout << "schedule: " << sched.parallelism()
            << " independent work items, longest " << sched.max_item_size()
            << " iterations, cross-item dependence edges: "
            << g.cross_item_edges(sched) << "\n";

  exec::VerifyResult v = exec::verify_schedule(nest, sched);
  std::cout << "trace verification: " << (v.ok ? "legal" : "ILLEGAL") << "\n";

  // Execution proof: check() runs the plan on the pool and the original
  // loop sequentially from the same initial store, and errors on any
  // bitwise divergence.
  ThreadPool pool(4);
  Expected<ExecReport> checked = loop.check(ExecPolicy{}, pool);
  if (checked)
    std::cout << "parallel result matches the sequential reference "
              << "(checksum " << checked->checksum << ")\n";
  else
    std::cout << "parallel result DOES NOT match the sequential reference: "
              << checked.error().to_string() << "\n";
  return checked && v.ok ? 0 : 1;
}
