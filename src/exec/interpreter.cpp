#include "exec/interpreter.h"

#include "support/error.h"

namespace vdep::exec {

Vec element_coords(const loopir::ArrayRef& ref, const Vec& iter,
                   const ArrayStore& store) {
  if (!ref.has_indirection()) return ref.element_at(iter);
  Vec e;
  e.reserve(ref.subscripts.size());
  for (std::size_t k = 0; k < ref.subscripts.size(); ++k) {
    if (k < ref.indirect.size() && ref.indirect[k].has_value()) {
      const loopir::IndirectSubscript& ind = *ref.indirect[k];
      e.push_back(store.read(ind.array, Vec{ind.pos.eval(iter)}));
    } else {
      e.push_back(ref.subscripts[k].eval(iter));
    }
  }
  return e;
}

i64 eval_expr(const loopir::Expr& e, const Vec& iter, const ArrayStore& store) {
  using K = loopir::Expr::Kind;
  switch (e.kind()) {
    case K::kConst:
      return e.value();
    case K::kIndex:
      return iter[static_cast<std::size_t>(e.index())];
    case K::kRead:
      return store.read(e.ref().array, element_coords(e.ref(), iter, store));
    case K::kAdd:
      return checked::add(eval_expr(*e.lhs(), iter, store),
                          eval_expr(*e.rhs(), iter, store));
    case K::kSub:
      return checked::sub(eval_expr(*e.lhs(), iter, store),
                          eval_expr(*e.rhs(), iter, store));
    case K::kMul:
      return checked::mul(eval_expr(*e.lhs(), iter, store),
                          eval_expr(*e.rhs(), iter, store));
  }
  VDEP_UNREACHABLE("expr kind");
}

void execute_iteration(const loopir::LoopNest& nest, const Vec& iter,
                       ArrayStore& store) {
  for (const loopir::Assign& a : nest.body()) {
    i64 value = eval_expr(*a.rhs, iter, store);
    store.write(a.lhs.array, element_coords(a.lhs, iter, store), value);
  }
}

void run_sequential(const loopir::LoopNest& nest, ArrayStore& store) {
  nest.for_each_iteration(
      [&](const Vec& iter) { execute_iteration(nest, iter, store); });
}

}  // namespace vdep::exec
