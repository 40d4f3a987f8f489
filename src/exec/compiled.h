// Compiled loop bodies: the interpreter resolves array names through a map
// on every access; for benchmarking the *parallel structure* that overhead
// drowns the signal. A CompiledKernel flattens each statement once:
//
//   * every array reference's flat buffer offset is an affine function of
//     the iteration vector (row-major flattening of affine subscripts is
//     affine), plus, per indirect slot (A[B[i]]), `stride * B[pos(iter)]`
//     with `pos` affine — so a read/write becomes a dot product, one raw
//     index-buffer load per indirect slot and a raw-pointer access;
//   * the rhs expression tree becomes a postfix program over a small value
//     stack.
//
// The program runs in one of two shapes. execute_row evaluates it at one
// iteration (the inspector's rows, the per-point scan). execute_column
// evaluates it over a column of mutually independent iterations
// it0 + e * step — a DOALL level's values at one point of the deeper
// levels (runtime/stream_executor.h) — one op at a time over fixed-size
// chunks: every access is then a strided run (one dot product per chunk,
// not per point), kPushIndex an affine sequence, and the value stack a set
// of chunk-long columns in the worker's Scratch.
//
// Subscript-in-bounds is established once per (kernel, nest) pair by
// checking the affine offset's extremes over the iteration box. An indirect
// slot is proven twice: the hull of its position over the box must lie
// inside the index array, and one scan of the index array over that hull
// must stay inside the target dimension's declared range. Index arrays are
// read-only in the nest (LoopNest::validate), so the proof holds for the
// whole run and the hot path needs no per-access checks — provided nothing
// outside the nest rewrites an index array while a kernel built over it is
// live.
//
// Body arithmetic has the interpreter's contract: add/sub/mul that leave
// int64 throw OverflowError (checked, with the throw kept out of line), so
// kInterpreter and kCompiled fail the same way on the same inputs, with the
// same message in either shape.
#pragma once

#include "exec/runner.h"
#include "support/thread_pool.h"

namespace vdep::exec {

class CompiledKernel {
 public:
  /// Compiles the body of `nest` against `store` (which must own every
  /// array). The store must stay alive and must not be resized while the
  /// kernel is used; data-array values may change freely, index-array
  /// values must not (the range proof read them). Throws PreconditionError
  /// when the proof fails, e.g. an index value in the scanned hull lies
  /// outside its target's declared range.
  CompiledKernel(const loopir::LoopNest& nest, ArrayStore& store);

  /// Iterations per chunk of execute_column.
  static constexpr i64 kColumnChunk = 128;

  /// Private mutable state of one executing task — the value stack, and
  /// execute_column's value columns (one kColumnChunk-long buffer per
  /// stack slot plus a spare, allocated by the first column run) with the
  /// slot table over them; the kernel itself stays const and shareable
  /// across threads.
  struct Scratch {
    std::vector<i64> stack;
    std::vector<i64> columns;
    std::vector<i64*> slots;
  };
  Scratch make_scratch() const {
    return Scratch{std::vector<i64>(stack_size_, 0), {}, {}};
  }

  /// Executes all statements at the iteration whose coordinates are
  /// `row[0..depth)` (no bounds checks on the hot path; ranges were proven
  /// at compile time). Throws OverflowError when body arithmetic leaves
  /// int64; the statement being evaluated is not stored.
  void execute_row(const i64* row, Scratch& scratch) const;

  /// Executes the `n` iterations it0 + e * step, e in [0, n) — `it0` and
  /// `step` are depth-long original-coordinate vectors — which must be
  /// mutually independent (no dependence joins any two of them) and each
  /// inside the nest. Runs kColumnChunk iterations at a time: statements
  /// in body order, each one's program evaluated over the whole chunk and
  /// stored once it completes, so a later statement reads an earlier one's
  /// writes of the same iteration. Throws OverflowError naming the operands
  /// of the first overflowing element; that statement's chunk is not
  /// stored.
  void execute_column(const i64* it0, const i64* step, i64 n,
                      Scratch& scratch) const;

  /// execute_row over an iteration vector.
  void execute_iteration(const Vec& iter, Scratch& scratch) const {
    execute_row(iter.data(), scratch);
  }

  /// Convenience single-threaded form with an internal scratch.
  void execute_iteration(const Vec& iter);

  /// Sequential lexicographic execution of the whole nest.
  void run_sequential();

  /// A copy of this kernel with every access re-based onto `other`'s
  /// buffers — the serving path: requests at one (structure, bounds)
  /// compile one kernel and rebind it per request's store, skipping the
  /// per-construction range proof. `other` must own the same arrays at the
  /// sizes the proof ran against (checked against the sizes recorded at
  /// construction, throwing PreconditionError on mismatch); it must outlive
  /// the copy. Rebinding never touches the construction store, so a
  /// prototype may outlive it — it just must not execute after it is gone.
  /// Indirect kernels throw UnsupportedError: their proof read the
  /// construction store's index contents, which a shape check cannot vouch
  /// for.
  CompiledKernel rebind(ArrayStore& other) const;

 private:
  /// One indirect slot: adds stride * idx[dot(coeffs, iter) + c0] to the
  /// flat offset (c0 already subtracts the index array's lower bound).
  struct Indirect {
    const i64* idx = nullptr;  // index array buffer
    Vec coeffs;
    i64 c0 = 0;
    i64 stride = 0;            // row-major stride of the target dimension
  };
  struct Access {
    i64* base = nullptr;   // array buffer
    Vec coeffs;            // flat offset = dot(coeffs, iter) + c0 + indirect
    i64 c0 = 0;
    std::vector<Indirect> indirect;
    int array_ord = 0;     // index into nest_.arrays(), for rebind()
  };
  /// kRead is an affine-only read and kReadIndirect adds the indirect
  /// slots, so the affine scan and batch paths never test for them.
  enum class Op : unsigned char {
    kPushConst, kPushIndex, kRead, kReadIndirect, kAdd, kSub, kMul
  };
  struct Instr {
    Op op;
    i64 value = 0;   // kPushConst
    int index = 0;   // kPushIndex / kRead (access table slot)
  };
  struct Stmt {
    Access lhs;
    std::vector<Instr> program;  // postfix
    int max_stack = 0;
  };

  Access compile_access(const loopir::ArrayRef& ref, ArrayStore& store);
  void compile_expr(const loopir::Expr& e, Stmt& stmt, int depth,
                    ArrayStore& store);
  /// Flat buffer offset of `a` at iteration row `it` (unchecked: proven):
  /// the affine part, and the indirect slots' part.
  static i64 affine_offset(const Access& a, const i64* it);
  static i64 indirect_offset(const Access& a, const i64* it);
  /// execute_column: the flat offsets of `a` at it0 + e * step for e in
  /// [e0, e0 + m), into `out`.
  static void column_offsets(const Access& a, const i64* it0, const i64* step,
                             i64 e0, i64 m, i64* out);
  /// [min, max] of affine `e` over the iteration box (checked).
  std::pair<i64, i64> hull(const loopir::AffineExpr& e) const;

  const loopir::LoopNest& nest_;
  /// Buffer size of every array (by nest_.arrays() ordinal) the range
  /// proof ran against; rebind() accepts only stores of these sizes.
  std::vector<std::size_t> sizes_;
  std::vector<std::pair<i64, i64>> box_;
  std::vector<Stmt> stmts_;
  std::vector<Access> reads_;
  std::size_t stack_size_ = 16;
  std::size_t column_slots_ = 1;  ///< deepest program stack, plus a spare
  Scratch scratch_;  // for the single-threaded convenience path
};

/// Parallel execution of a prebuilt schedule through compiled kernels (one
/// kernel per worker is unnecessary: execution only mutates array memory,
/// which legality keeps disjoint across items; the value stack is the only
/// mutable kernel state, so each task gets its own kernel copy).
void execute_schedule_compiled(const loopir::LoopNest& nest,
                               const Schedule& sched, ArrayStore& store,
                               ThreadPool& pool);

}  // namespace vdep::exec
