#include "exec/kernel.h"

#include "poly/constraints.h"
#include "support/checked.h"
#include "support/error.h"

namespace vdep::exec {

BufferTable::BufferTable(const loopir::LoopNest& nest, ArrayStore& store) {
  for (const loopir::ArrayDecl& decl : nest.arrays()) {
    ArrayStore::Buffer& buf = store.raw_mutable(decl.name);
    VDEP_REQUIRE(static_cast<i64>(buf.size()) == decl.element_count(),
                 "store shape differs from the declaration of array " +
                     decl.name);
    bufs_.push_back(buf.data());
  }
}

std::pair<i64, i64> affine_range(const loopir::AffineExpr& e,
                                 const IterationBox& box) {
  i64 lo = e.constant_term(), hi = e.constant_term();
  for (std::size_t k = 0; k < box.size(); ++k) {
    const i64 c = e.coeff(static_cast<int>(k));
    auto [bl, bh] = box[k];
    lo = checked::add(lo, checked::mul(c, c >= 0 ? bl : bh));
    hi = checked::add(hi, checked::mul(c, c >= 0 ? bh : bl));
  }
  return {lo, hi};
}

IterationBox prove_subscript_ranges(const loopir::LoopNest& nest) {
  poly::ConstraintSystem cs = poly::ConstraintSystem::from_nest(nest);
  IterationBox box;
  for (int k = 0; k < nest.depth(); ++k) {
    auto r = cs.variable_range(k);
    if (!r.has_value())
      throw UnsupportedError("unbounded loop cannot be range-proven");
    box.push_back(*r);
  }
  nest.for_each_access([&](const loopir::ArrayRef& ref, int, bool) {
    const loopir::ArrayDecl& decl = nest.array(ref.array);
    for (std::size_t d = 0; d < decl.dims.size(); ++d) {
      if (d < ref.indirect.size() && ref.indirect[d].has_value()) {
        const loopir::IndirectSubscript& ind = *ref.indirect[d];
        auto [lo, hi] = nest.array(ind.array).dims.front();
        auto [pmin, pmax] = affine_range(ind.pos, box);
        if (pmin < lo || pmax > hi)
          throw UnsupportedError("position into index array " + ind.array +
                                 " can leave its declared range");
        continue;
      }
      auto [lo, hi] = decl.dims[d];
      auto [smin, smax] = affine_range(ref.subscripts[d], box);
      if (smin < lo || smax > hi)
        throw UnsupportedError("subscript of " + ref.array +
                               " can leave the declared range");
    }
  });
  return box;
}

}  // namespace vdep::exec
