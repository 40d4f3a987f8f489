#include "exec/compiled.h"

#include <algorithm>
#include <string>

#include "poly/constraints.h"
#include "poly/fourier_motzkin.h"
#include "support/error.h"

namespace vdep::exec {

namespace {

// Body arithmetic throws like the interpreter's checked:: helpers (same
// message). The throw is cold and out of line so the postfix switch stays
// a flag test per operation.
[[noreturn, gnu::cold, gnu::noinline]] void throw_overflow(const char* op,
                                                           i64 a, i64 b) {
  throw OverflowError(std::string("int64 overflow in ") + op + "(" +
                      std::to_string(a) + ", " + std::to_string(b) + ")");
}

}  // namespace

CompiledKernel::CompiledKernel(const loopir::LoopNest& nest, ArrayStore& store)
    : nest_(nest) {
  for (const loopir::ArrayDecl& decl : nest.arrays())
    sizes_.push_back(store.raw(decl.name).size());
  // Iteration box for the one-time subscript range proof.
  poly::ConstraintSystem cs = poly::ConstraintSystem::from_nest(nest);
  box_.clear();
  for (int k = 0; k < nest.depth(); ++k) {
    auto r = cs.variable_range(k);
    VDEP_REQUIRE(r.has_value(), "unbounded loop cannot be compiled");
    box_.push_back(*r);
  }
  for (const loopir::Assign& a : nest.body()) {
    Stmt s;
    s.lhs = compile_access(a.lhs, store);
    compile_expr(*a.rhs, s, 0, store);
    stmts_.push_back(std::move(s));
  }
  for (const Stmt& s : stmts_)
    stack_size_ = std::max(stack_size_, static_cast<std::size_t>(s.max_stack));
  scratch_ = make_scratch();
}

std::pair<i64, i64> CompiledKernel::hull(const loopir::AffineExpr& e) const {
  i64 lo = e.constant_term(), hi = e.constant_term();
  for (int k = 0; k < nest_.depth(); ++k) {
    i64 c = e.coeff(k);
    auto [bl, bh] = box_[static_cast<std::size_t>(k)];
    lo = checked::add(lo, checked::mul(c, c >= 0 ? bl : bh));
    hi = checked::add(hi, checked::mul(c, c >= 0 ? bh : bl));
  }
  return {lo, hi};
}

CompiledKernel::Access CompiledKernel::compile_access(
    const loopir::ArrayRef& ref, ArrayStore& store) {
  const loopir::ArrayDecl& decl = nest_.array(ref.array);
  Access acc;
  acc.base = store.raw_mutable(ref.array).data();
  for (std::size_t a = 0; a < nest_.arrays().size(); ++a)
    if (nest_.arrays()[a].name == ref.array)
      acc.array_ord = static_cast<int>(a);
  acc.coeffs.assign(static_cast<std::size_t>(nest_.depth()), 0);
  acc.c0 = 0;
  i64 stride = 1;
  // Row-major: process dimensions right-to-left accumulating strides. Each
  // slot's one-time range proof runs over the (rectangular hull of the)
  // space.
  for (int d = decl.arity() - 1; d >= 0; --d) {
    const auto ud = static_cast<std::size_t>(d);
    auto [lo, hi] = decl.dims[ud];
    if (ud < ref.indirect.size() && ref.indirect[ud].has_value()) {
      const loopir::IndirectSubscript& ind = *ref.indirect[ud];
      const ArrayStore::Buffer& buf = store.raw(ind.array);
      const i64 idx_lo = nest_.array(ind.array).dims.front().first;
      auto [pmin, pmax] = hull(ind.pos);
      VDEP_REQUIRE(pmin >= idx_lo &&
                       checked::sub(pmax, idx_lo) < static_cast<i64>(buf.size()),
                   "position into index array " + ind.array +
                       " can leave its declared range; cannot compile");
      // One branch-free scan of every value the hull can reach proves the
      // slot.
      bool in_range = true;
      for (i64 p = pmin; p <= pmax; ++p) {
        const i64 v = buf[static_cast<std::size_t>(p - idx_lo)];
        in_range &= (v >= lo) & (v <= hi);
      }
      VDEP_REQUIRE(in_range, "index array " + ind.array +
                                 " holds a value outside " + ref.array +
                                 "'s declared range; cannot compile");
      Indirect x;
      x.idx = buf.data();
      x.coeffs = ind.pos.coeffs();
      x.c0 = checked::sub(ind.pos.constant_term(), idx_lo);
      x.stride = stride;
      acc.indirect.push_back(std::move(x));
      acc.c0 = checked::sub(acc.c0, checked::mul(stride, lo));
    } else {
      const loopir::AffineExpr& s = ref.subscripts[ud];
      auto [smin, smax] = hull(s);
      VDEP_REQUIRE(smin >= lo && smax <= hi,
                   "subscript of " + ref.array +
                       " can leave the declared range; cannot compile");
      for (int k = 0; k < nest_.depth(); ++k)
        acc.coeffs[static_cast<std::size_t>(k)] =
            checked::add(acc.coeffs[static_cast<std::size_t>(k)],
                         checked::mul(stride, s.coeff(k)));
      acc.c0 = checked::add(
          acc.c0, checked::mul(stride, checked::sub(s.constant_term(), lo)));
    }
    stride = checked::mul(stride, hi - lo + 1);
  }
  return acc;
}

void CompiledKernel::compile_expr(const loopir::Expr& e, Stmt& stmt, int depth,
                                  ArrayStore& store) {
  using K = loopir::Expr::Kind;
  switch (e.kind()) {
    case K::kConst:
      stmt.program.push_back({Op::kPushConst, e.value(), 0});
      stmt.max_stack = std::max(stmt.max_stack, depth + 1);
      return;
    case K::kIndex:
      stmt.program.push_back({Op::kPushIndex, 0, e.index()});
      stmt.max_stack = std::max(stmt.max_stack, depth + 1);
      return;
    case K::kRead: {
      int slot = static_cast<int>(reads_.size());
      reads_.push_back(compile_access(e.ref(), store));
      stmt.program.push_back(
          {reads_.back().indirect.empty() ? Op::kRead : Op::kReadIndirect, 0,
           slot});
      stmt.max_stack = std::max(stmt.max_stack, depth + 1);
      return;
    }
    case K::kAdd:
    case K::kSub:
    case K::kMul:
      compile_expr(*e.lhs(), stmt, depth, store);
      compile_expr(*e.rhs(), stmt, depth + 1, store);
      stmt.program.push_back(
          {e.kind() == K::kAdd   ? Op::kAdd
           : e.kind() == K::kSub ? Op::kSub
                                 : Op::kMul,
           0, 0});
      return;
  }
  VDEP_UNREACHABLE("expr kind");
}

void CompiledKernel::execute_iteration(const Vec& iter) {
  execute_iteration(iter, scratch_);
}

i64 CompiledKernel::affine_offset(const Access& a, const i64* it) {
  i64 off = a.c0;
  for (std::size_t k = 0; k < a.coeffs.size(); ++k) off += a.coeffs[k] * it[k];
  return off;
}

i64 CompiledKernel::indirect_offset(const Access& a, const i64* it) {
  i64 off = 0;
  for (const Indirect& x : a.indirect) {
    i64 pos = x.c0;
    for (std::size_t k = 0; k < x.coeffs.size(); ++k) pos += x.coeffs[k] * it[k];
    off += x.stride * x.idx[pos];
  }
  return off;
}

void CompiledKernel::execute_row(const i64* it, Scratch& scratch) const {
  for (const Stmt& s : stmts_) {
    i64* sp = scratch.stack.data();
    for (const Instr& ins : s.program) {
      i64 r = 0;
      switch (ins.op) {
        case Op::kPushConst:
          *sp++ = ins.value;
          break;
        case Op::kPushIndex:
          *sp++ = it[ins.index];
          break;
        case Op::kRead: {
          const Access& a = reads_[static_cast<std::size_t>(ins.index)];
          *sp++ = a.base[affine_offset(a, it)];
          break;
        }
        case Op::kReadIndirect: {
          const Access& a = reads_[static_cast<std::size_t>(ins.index)];
          *sp++ = a.base[affine_offset(a, it) + indirect_offset(a, it)];
          break;
        }
        case Op::kAdd:
          if (__builtin_add_overflow(sp[-2], sp[-1], &r))
            throw_overflow("add", sp[-2], sp[-1]);
          sp[-2] = r;
          --sp;
          break;
        case Op::kSub:
          if (__builtin_sub_overflow(sp[-2], sp[-1], &r))
            throw_overflow("sub", sp[-2], sp[-1]);
          sp[-2] = r;
          --sp;
          break;
        case Op::kMul:
          if (__builtin_mul_overflow(sp[-2], sp[-1], &r))
            throw_overflow("mul", sp[-2], sp[-1]);
          sp[-2] = r;
          --sp;
          break;
      }
    }
    i64 off = affine_offset(s.lhs, it);
    if (!s.lhs.indirect.empty()) off += indirect_offset(s.lhs, it);
    s.lhs.base[off] = sp[-1];
  }
}

void CompiledKernel::run_sequential() {
  nest_.for_each_iteration([&](const Vec& iter) { execute_iteration(iter); });
}

CompiledKernel CompiledKernel::rebind(ArrayStore& other) const {
  if (nest_.has_indirection())
    throw UnsupportedError(
        "CompiledKernel::rebind: the range proof of an indirect kernel read "
        "its store's index contents; build a kernel per store instead");
  CompiledKernel copy(*this);
  auto rebase = [&](Access& a) {
    const loopir::ArrayDecl& decl =
        nest_.arrays()[static_cast<std::size_t>(a.array_ord)];
    ArrayStore::Buffer& buf = other.raw_mutable(decl.name);
    // The range proof ran against the recorded sizes; it transfers only to
    // identically sized buffers.
    VDEP_REQUIRE(buf.size() == sizes_[static_cast<std::size_t>(a.array_ord)],
                 "CompiledKernel::rebind: store shape differs for array " +
                     decl.name);
    a.base = buf.data();
  };
  for (Stmt& s : copy.stmts_) rebase(s.lhs);
  for (Access& a : copy.reads_) rebase(a);
  return copy;
}

void execute_schedule_compiled(const loopir::LoopNest& nest,
                               const Schedule& sched, ArrayStore& store,
                               ThreadPool& pool) {
  // Compile once; the kernel is const and shared, each work item carries
  // only a private value stack. Array memory is shared and disjoint across
  // items by legality.
  const CompiledKernel kernel(nest, store);
  pool.parallel_for(static_cast<i64>(sched.items.size()), [&](i64 k) {
    CompiledKernel::Scratch scratch = kernel.make_scratch();
    for (const Vec& i : sched.items[static_cast<std::size_t>(k)])
      kernel.execute_iteration(i, scratch);
  });
}

}  // namespace vdep::exec
