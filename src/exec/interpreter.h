// Exact interpreter for loop-nest bodies.
//
// Executing the original nest sequentially gives the reference semantics;
// every transformed/partitioned/parallel schedule must reproduce the same
// final store. The interpreter is the oracle behind all end-to-end tests.
#pragma once

#include "exec/array_store.h"

namespace vdep::exec {

/// Element coordinates touched by `ref` at iteration `iter`. Unlike
/// ArrayRef::element_at this resolves indirect subscripts (A[B[i]]) by
/// reading the index array from `store`.
Vec element_coords(const loopir::ArrayRef& ref, const Vec& iter,
                   const ArrayStore& store);

/// Evaluates the rhs expression tree at iteration `iter`.
i64 eval_expr(const loopir::Expr& e, const Vec& iter, const ArrayStore& store);

/// Executes all body statements of `nest` at iteration `iter`.
void execute_iteration(const loopir::LoopNest& nest, const Vec& iter,
                       ArrayStore& store);

/// Reference execution: full sequential lexicographic traversal.
void run_sequential(const loopir::LoopNest& nest, ArrayStore& store);

}  // namespace vdep::exec
