#include "exec/compiled.h"

#include <algorithm>
#include <string>
#include <utility>

#include "support/checked.h"
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

struct CheckedAdd {
  static constexpr const char* kName = "add";
  static bool apply(i64 a, i64 b, i64* r) {
    return __builtin_add_overflow(a, b, r);
  }
};
struct CheckedSub {
  static constexpr const char* kName = "sub";
  static bool apply(i64 a, i64 b, i64* r) {
    return __builtin_sub_overflow(a, b, r);
  }
};
struct CheckedMul {
  static constexpr const char* kName = "mul";
  static bool apply(i64 a, i64 b, i64* r) {
    return __builtin_mul_overflow(a, b, r);
  }
};

/// r[e] = a[e] op b[e] over one chunk, checked. The result goes to a third
/// column, so on overflow both operands of the first failing element are
/// still there to name.
template <class Op>
void column_op(const i64* a, const i64* b, i64* r, i64 m) {
  bool overflow = false;
  for (i64 e = 0; e < m; ++e) overflow |= Op::apply(a[e], b[e], &r[e]);
  if (overflow) [[unlikely]] {
    for (i64 e = 0; e < m; ++e) {
      i64 t = 0;
      if (Op::apply(a[e], b[e], &t)) throw_overflow(Op::kName, a[e], b[e]);
    }
  }
}

i64 dot(const Vec& coeffs, const i64* x) {
  i64 acc = 0;
  for (std::size_t k = 0; k < coeffs.size(); ++k) acc += coeffs[k] * x[k];
  return acc;
}

}  // namespace

CompiledKernel::CompiledKernel(const loopir::LoopNest& nest) : nest_(nest) {
  IterationBox box;
  try {
    box = prove_subscript_ranges(nest_);
  } catch (const UnsupportedError& e) {
    throw PreconditionError(e.what());  // a kernel's refusal is a precondition
  }
  for (const loopir::Assign& a : nest_.body()) {
    Stmt s;
    s.lhs = compile_access(a.lhs, box);
    compile_expr(*a.rhs, s, 0, box);
    stmts_.push_back(std::move(s));
  }
  for (const Stmt& s : stmts_) {
    stack_size_ = std::max(stack_size_, static_cast<std::size_t>(s.max_stack));
    column_slots_ =
        std::max(column_slots_, static_cast<std::size_t>(s.max_stack) + 1);
  }
}

std::shared_ptr<const CompiledKernel> CompiledKernel::try_compile(
    const loopir::LoopNest& nest) {
  try {
    return std::make_shared<const CompiledKernel>(nest);
  } catch (const Error&) {
    return nullptr;  // range proof or box extraction refused
  }
}

CompiledKernel::Access CompiledKernel::compile_access(
    const loopir::ArrayRef& ref, const IterationBox& box) {
  // An array's declaration ordinal: its slot in every BufferTable.
  auto ordinal = [&](const std::string& name) {
    return static_cast<int>(&nest_.array(name) - nest_.arrays().data());
  };
  const loopir::ArrayDecl& decl = nest_.array(ref.array);
  Access acc;
  acc.array = ordinal(ref.array);
  acc.coeffs.assign(static_cast<std::size_t>(nest_.depth()), 0);
  acc.c0 = 0;
  i64 stride = 1;
  // Row-major: process dimensions right-to-left accumulating strides. The
  // constructor's range proof already covered every slot.
  for (int d = decl.arity() - 1; d >= 0; --d) {
    const auto ud = static_cast<std::size_t>(d);
    auto [lo, hi] = decl.dims[ud];
    if (ud < ref.indirect.size() && ref.indirect[ud].has_value()) {
      const loopir::IndirectSubscript& ind = *ref.indirect[ud];
      const i64 idx_lo = nest_.array(ind.array).dims.front().first;
      Indirect x;
      x.array = ordinal(ind.array);
      x.coeffs = ind.pos.coeffs();
      x.c0 = checked::sub(ind.pos.constant_term(), idx_lo);
      x.stride = stride;
      auto [pmin, pmax] = affine_range(ind.pos, box);
      x.first = pmin - idx_lo;
      x.last = pmax - idx_lo;
      x.lo = lo;
      x.hi = hi;
      acc.indirect.push_back(std::move(x));
      acc.c0 = checked::sub(acc.c0, checked::mul(stride, lo));
    } else {
      const loopir::AffineExpr& s = ref.subscripts[ud];
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

BufferTable CompiledKernel::bind(ArrayStore& store) const {
  BufferTable bufs(nest_, store);
  // One branch-free scan of every value a slot's position hull can reach
  // proves the slot for this store.
  auto name = [&](int array) { return nest_.arrays()[array].name; };
  auto scan = [&](const Access& a) {
    for (const Indirect& x : a.indirect) {
      const i64* idx = bufs.data()[x.array];
      bool in_range = true;
      for (i64 p = x.first; p <= x.last; ++p)
        in_range &= (idx[p] >= x.lo) & (idx[p] <= x.hi);
      VDEP_REQUIRE(in_range, "index array " + name(x.array) +
                                 " holds a value outside " + name(a.array) +
                                 "'s declared range; cannot bind");
    }
  };
  for (const Stmt& s : stmts_) scan(s.lhs);
  for (const Access& a : reads_) scan(a);
  return bufs;
}

void CompiledKernel::compile_expr(const loopir::Expr& e, Stmt& stmt, int depth,
                                  const IterationBox& box) {
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
      reads_.push_back(compile_access(e.ref(), box));
      stmt.program.push_back(
          {reads_.back().indirect.empty() ? Op::kRead : Op::kReadIndirect, 0,
           slot});
      stmt.max_stack = std::max(stmt.max_stack, depth + 1);
      return;
    }
    case K::kAdd:
    case K::kSub:
    case K::kMul:
      compile_expr(*e.lhs(), stmt, depth, box);
      compile_expr(*e.rhs(), stmt, depth + 1, box);
      stmt.program.push_back(
          {e.kind() == K::kAdd   ? Op::kAdd
           : e.kind() == K::kSub ? Op::kSub
                                 : Op::kMul,
           0, 0});
      return;
  }
  VDEP_UNREACHABLE("expr kind");
}

i64 CompiledKernel::affine_offset(const Access& a, const i64* it) {
  return a.c0 + dot(a.coeffs, it);
}

i64 CompiledKernel::indirect_offset(const Access& a, i64* const* bufs,
                                    const i64* it) {
  i64 off = 0;
  for (const Indirect& x : a.indirect)
    off += x.stride * bufs[x.array][x.c0 + dot(x.coeffs, it)];
  return off;
}

void CompiledKernel::column_offsets(const Access& a, i64* const* bufs,
                                    const i64* it0, const i64* step, i64 e0,
                                    i64 m, i64* out) {
  const i64 d = dot(a.coeffs, step);
  const i64 off0 = affine_offset(a, it0) + e0 * d;
  for (i64 e = 0; e < m; ++e) out[e] = off0 + e * d;
  for (const Indirect& x : a.indirect) {
    const i64 dp = dot(x.coeffs, step);
    const i64* idx = bufs[x.array] + (x.c0 + dot(x.coeffs, it0) + e0 * dp);
    for (i64 e = 0; e < m; ++e) out[e] += x.stride * idx[e * dp];
  }
}

void CompiledKernel::Scratch::fit(std::size_t stack_slots,
                                  std::size_t column_slots) {
  if (stack.size() < stack_slots) stack.resize(stack_slots);
  if (slots.size() < column_slots) {
    columns.resize(column_slots * static_cast<std::size_t>(kColumnChunk));
    slots.resize(column_slots);
  }
}

void CompiledKernel::execute_row(const BufferTable& bufs, const i64* it,
                                 Scratch& scratch) const {
  scratch.fit(stack_size_, 0);
  i64* const* buf = bufs.data();
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
          *sp++ = buf[a.array][affine_offset(a, it)];
          break;
        }
        case Op::kReadIndirect: {
          const Access& a = reads_[static_cast<std::size_t>(ins.index)];
          *sp++ = buf[a.array][affine_offset(a, it) +
                               indirect_offset(a, buf, it)];
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
    if (!s.lhs.indirect.empty()) off += indirect_offset(s.lhs, buf, it);
    buf[s.lhs.array][off] = sp[-1];
  }
}

void CompiledKernel::execute_column(const BufferTable& bufs, const i64* it0,
                                    const i64* step, i64 n,
                                    Scratch& scratch) const {
  // Independence lets each op run over the whole chunk: no element reads
  // what another element of the column writes, so only body order (a
  // statement's store before the next statement's reads) must be kept.
  // Stack slots point at chunk-long columns; a binary op writes the spare
  // column and swaps it in, so no operand is overwritten. The last slot's
  // column starts as the spare; programs never push that deep.
  scratch.fit(0, column_slots_);
  i64** slot = scratch.slots.data();
  for (std::size_t k = 0; k < column_slots_; ++k)
    slot[k] =
        scratch.columns.data() + k * static_cast<std::size_t>(kColumnChunk);
  i64* spare = slot[column_slots_ - 1];
  i64* const* buf = bufs.data();
  for (i64 e0 = 0; e0 < n; e0 += kColumnChunk) {
    const i64 m = std::min(kColumnChunk, n - e0);
    for (const Stmt& s : stmts_) {
      i64** sp = slot;
      for (const Instr& ins : s.program) {
        switch (ins.op) {
          case Op::kPushConst:
            std::fill_n(*sp++, m, ins.value);
            break;
          case Op::kPushIndex: {
            const i64 d = step[ins.index];
            const i64 v0 = it0[ins.index] + e0 * d;
            i64* out = *sp++;
            for (i64 e = 0; e < m; ++e) out[e] = v0 + e * d;
            break;
          }
          case Op::kRead: {
            const Access& a = reads_[static_cast<std::size_t>(ins.index)];
            const i64 d = dot(a.coeffs, step);
            const i64* in = buf[a.array] + (affine_offset(a, it0) + e0 * d);
            i64* out = *sp++;
            for (i64 e = 0; e < m; ++e) out[e] = in[e * d];
            break;
          }
          case Op::kReadIndirect: {
            const Access& a = reads_[static_cast<std::size_t>(ins.index)];
            i64* out = *sp++;
            column_offsets(a, buf, it0, step, e0, m, out);
            const i64* in = buf[a.array];
            for (i64 e = 0; e < m; ++e) out[e] = in[out[e]];
            break;
          }
          case Op::kAdd:
            column_op<CheckedAdd>(sp[-2], sp[-1], spare, m);
            std::swap(sp[-2], spare);
            --sp;
            break;
          case Op::kSub:
            column_op<CheckedSub>(sp[-2], sp[-1], spare, m);
            std::swap(sp[-2], spare);
            --sp;
            break;
          case Op::kMul:
            column_op<CheckedMul>(sp[-2], sp[-1], spare, m);
            std::swap(sp[-2], spare);
            --sp;
            break;
        }
      }
      const i64* value = sp[-1];
      const Access& lhs = s.lhs;
      if (lhs.indirect.empty()) {
        const i64 d = dot(lhs.coeffs, step);
        i64* out = buf[lhs.array] + (affine_offset(lhs, it0) + e0 * d);
        for (i64 e = 0; e < m; ++e) out[e * d] = value[e];
      } else {
        column_offsets(lhs, buf, it0, step, e0, m, spare);
        i64* out = buf[lhs.array];
        for (i64 e = 0; e < m; ++e) out[spare[e]] = value[e];
      }
    }
  }
}

void CompiledKernel::run_sequential(ArrayStore& store) const {
  const BufferTable bufs = bind(store);
  Scratch scratch;
  nest_.for_each_iteration(
      [&](const Vec& iter) { execute_row(bufs, iter.data(), scratch); });
}

void execute_schedule_compiled(const loopir::LoopNest& nest,
                               const Schedule& sched, ArrayStore& store,
                               ThreadPool& pool) {
  // Compile and bind once; the kernel and its binding are const and
  // shared, each work item carries only a private value stack. Array
  // memory is shared and disjoint across items by legality.
  const CompiledKernel kernel(nest);
  const BufferTable bufs = kernel.bind(store);
  pool.parallel_for(static_cast<i64>(sched.items.size()), [&](i64 k) {
    CompiledKernel::Scratch scratch;
    for (const Vec& i : sched.items[static_cast<std::size_t>(k)])
      kernel.execute_iteration(bufs, i, scratch);
  });
}

}  // namespace vdep::exec
