#include "exec/compiled.h"

#include <cstdint>

#include "poly/constraints.h"
#include "poly/fourier_motzkin.h"
#include "support/error.h"

namespace vdep::exec {

namespace {

// Body arithmetic wraps in two's complement, the semantics native kernels
// get from -fwrapv (jit/toolchain.cpp): computed in unsigned arithmetic,
// where overflow is defined, so an overflowing nest has no signed-overflow
// UB here either.
using u64 = std::uint64_t;
i64 wrap_add(i64 a, i64 b) {
  return static_cast<i64>(static_cast<u64>(a) + static_cast<u64>(b));
}
i64 wrap_sub(i64 a, i64 b) {
  return static_cast<i64>(static_cast<u64>(a) - static_cast<u64>(b));
}
i64 wrap_mul(i64 a, i64 b) {
  return static_cast<i64>(static_cast<u64>(a) * static_cast<u64>(b));
}

}  // namespace

CompiledKernel::CompiledKernel(const loopir::LoopNest& nest, ArrayStore& store)
    : nest_(nest), store_(&store) {
  if (nest.has_indirection())
    throw UnsupportedError(
        "CompiledKernel requires affine subscripts; indirect references run "
        "through the interpreter");
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
    s.lhs = compile_access(a.lhs);
    compile_expr(*a.rhs, s, 0);
    stmts_.push_back(std::move(s));
  }
  for (const Stmt& s : stmts_)
    stack_size_ = std::max(stack_size_, static_cast<std::size_t>(s.max_stack));
  scratch_ = make_scratch();
}

CompiledKernel::Access CompiledKernel::compile_access(
    const loopir::ArrayRef& ref) {
  const loopir::ArrayDecl& decl = nest_.array(ref.array);
  Access acc;
  acc.base = store_->raw_mutable(ref.array).data();
  for (std::size_t a = 0; a < nest_.arrays().size(); ++a)
    if (nest_.arrays()[a].name == ref.array)
      acc.array_ord = static_cast<int>(a);
  acc.coeffs.assign(static_cast<std::size_t>(nest_.depth()), 0);
  acc.c0 = 0;
  i64 stride = 1;
  // Row-major: process dimensions right-to-left accumulating strides.
  for (int d = decl.arity() - 1; d >= 0; --d) {
    const loopir::AffineExpr& s = ref.subscripts[static_cast<std::size_t>(d)];
    auto [lo, hi] = decl.dims[static_cast<std::size_t>(d)];
    // One-time range proof over the (rectangular hull of the) space.
    i64 smin = s.constant_term(), smax = s.constant_term();
    for (int k = 0; k < nest_.depth(); ++k) {
      i64 c = s.coeff(k);
      auto [bl, bh] = box_[static_cast<std::size_t>(k)];
      smin = checked::add(smin, checked::mul(c, c >= 0 ? bl : bh));
      smax = checked::add(smax, checked::mul(c, c >= 0 ? bh : bl));
    }
    VDEP_REQUIRE(smin >= lo && smax <= hi,
                 "subscript of " + ref.array +
                     " can leave the declared range; cannot compile");
    for (int k = 0; k < nest_.depth(); ++k)
      acc.coeffs[static_cast<std::size_t>(k)] = checked::add(
          acc.coeffs[static_cast<std::size_t>(k)], checked::mul(stride, s.coeff(k)));
    acc.c0 = checked::add(acc.c0,
                          checked::mul(stride, checked::sub(s.constant_term(), lo)));
    stride = checked::mul(stride, hi - lo + 1);
  }
  return acc;
}

void CompiledKernel::compile_expr(const loopir::Expr& e, Stmt& stmt, int depth) {
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
      reads_.push_back(compile_access(e.ref()));
      stmt.program.push_back({Op::kRead, 0, slot});
      stmt.max_stack = std::max(stmt.max_stack, depth + 1);
      return;
    }
    case K::kAdd:
    case K::kSub:
    case K::kMul:
      compile_expr(*e.lhs(), stmt, depth);
      compile_expr(*e.rhs(), stmt, depth + 1);
      stmt.program.push_back(
          {e.kind() == K::kAdd   ? Op::kAdd
           : e.kind() == K::kSub ? Op::kSub
                                 : Op::kMul,
           0, 0});
      return;
  }
  VDEP_CHECK(false, "unreachable expr kind");
}

void CompiledKernel::execute_iteration(const Vec& iter) {
  execute_iteration(iter, scratch_);
}

void CompiledKernel::execute_iteration(const Vec& iter, Scratch& scratch) const {
  const i64* it = iter.data();
  for (const Stmt& s : stmts_) {
    i64* sp = scratch.stack.data();
    for (const Instr& ins : s.program) {
      switch (ins.op) {
        case Op::kPushConst:
          *sp++ = ins.value;
          break;
        case Op::kPushIndex:
          *sp++ = it[ins.index];
          break;
        case Op::kRead: {
          const Access& a = reads_[static_cast<std::size_t>(ins.index)];
          i64 off = a.c0;
          for (std::size_t k = 0; k < a.coeffs.size(); ++k)
            off += a.coeffs[k] * it[k];
          *sp++ = a.base[off];
          break;
        }
        case Op::kAdd:
          sp[-2] = wrap_add(sp[-2], sp[-1]);
          --sp;
          break;
        case Op::kSub:
          sp[-2] = wrap_sub(sp[-2], sp[-1]);
          --sp;
          break;
        case Op::kMul:
          sp[-2] = wrap_mul(sp[-2], sp[-1]);
          --sp;
          break;
      }
    }
    i64 off = s.lhs.c0;
    for (std::size_t k = 0; k < s.lhs.coeffs.size(); ++k)
      off += s.lhs.coeffs[k] * it[k];
    s.lhs.base[off] = sp[-1];
  }
}

void CompiledKernel::run_sequential() {
  nest_.for_each_iteration([&](const Vec& iter) { execute_iteration(iter); });
}

CompiledKernel CompiledKernel::rebind(ArrayStore& other) const {
  CompiledKernel copy(*this);
  auto rebase = [&](Access& a) {
    const loopir::ArrayDecl& decl =
        nest_.arrays()[static_cast<std::size_t>(a.array_ord)];
    ArrayStore::Buffer& buf = other.raw_mutable(decl.name);
    // The range proof ran against the construction store's sizes; it
    // transfers only to identically sized buffers.
    VDEP_REQUIRE(buf.size() == store_->raw(decl.name).size(),
                 "CompiledKernel::rebind: store shape differs for array " +
                     decl.name);
    a.base = buf.data();
  };
  for (Stmt& s : copy.stmts_) rebase(s.lhs);
  for (Access& a : copy.reads_) rebase(a);
  copy.store_ = &other;
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
