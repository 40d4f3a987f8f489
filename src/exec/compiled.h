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
// A kernel is built from the bounded nest alone, each array named by its
// declaration ordinal, and proven once against the declared dims
// (exec::prove_subscript_ranges, the JIT's proof too). A store reaches it
// through bind()'s BufferTable: sizes checked, and each indirect slot's
// index array scanned over the slot's position hull for values outside
// the target dimension. Index arrays are read-only in the nest
// (LoopNest::validate), so a binding holds for the whole run and the hot
// path needs no per-access checks — provided nothing outside the nest
// rewrites an index array while a binding over it is live.
//
// Body arithmetic has the interpreter's contract: add/sub/mul that leave
// int64 throw OverflowError (checked, with the throw kept out of line), so
// kInterpreter and kCompiled fail the same way on the same inputs, with the
// same message in either shape.
#pragma once

#include <memory>

#include "exec/kernel.h"
#include "exec/runner.h"
#include "support/thread_pool.h"

namespace vdep::exec {

class CompiledKernel {
 public:
  /// Compiles the body of `nest` (the kernel keeps its own copy) and runs
  /// the range proof against its declared dims. Throws PreconditionError
  /// when the proof fails, e.g. a subscript whose extremes over the
  /// iteration box leave the declared range.
  explicit CompiledKernel(const loopir::LoopNest& nest);
  /// The kernel of `nest`, or null when construction throws (its caller
  /// interprets instead).
  static std::shared_ptr<const CompiledKernel> try_compile(
      const loopir::LoopNest& nest);

  /// `store`'s buffer table for this kernel, after one scan of every
  /// indirect slot's index array over its position hull. Throws
  /// PreconditionError, before anything runs, on a mis-sized buffer or an
  /// index value outside its target's declared range. Index-array values
  /// must not change while the binding is used; data values may.
  BufferTable bind(ArrayStore& store) const;

  /// Iterations per chunk of execute_column.
  static constexpr i64 kColumnChunk = 128;

  /// Private mutable state of one executing task — the value stack, and
  /// execute_column's value columns (one kColumnChunk-long buffer per
  /// stack slot plus a spare) with the slot table over them; the kernel
  /// and its bindings stay const and shareable across threads. A scratch
  /// serves any kernel: execute_row grows the stack and execute_column the
  /// columns to what this kernel needs, and neither shrinks, so once a
  /// scratch has served the largest kernel it runs it allocates nothing.
  struct Scratch {
    std::vector<i64> stack;
    std::vector<i64> columns;
    std::vector<i64*> slots;
    /// Grows to at least `stack_slots` stack values and `column_slots`
    /// value columns.
    void fit(std::size_t stack_slots, std::size_t column_slots);
  };
  /// What this kernel uses of a Scratch: stack values, and value columns
  /// when it runs execute_column.
  std::size_t stack_slots() const { return stack_size_; }
  std::size_t column_slots() const { return column_slots_; }

  /// Executes all statements over `bufs` (bind()'s) at the iteration whose
  /// coordinates are `row[0..depth)` (no bounds checks on the hot path;
  /// construction and bind() proved the ranges). Throws OverflowError when
  /// body arithmetic leaves int64; the statement being evaluated is not
  /// stored.
  void execute_row(const BufferTable& bufs, const i64* row,
                   Scratch& scratch) const;

  /// Executes the `n` iterations it0 + e * step, e in [0, n) — `it0` and
  /// `step` are depth-long original-coordinate vectors — which must be
  /// mutually independent (no dependence joins any two of them) and each
  /// inside the nest. Runs kColumnChunk iterations at a time: statements
  /// in body order, each one's program evaluated over the whole chunk and
  /// stored once it completes, so a later statement reads an earlier one's
  /// writes of the same iteration. Throws OverflowError naming the operands
  /// of the first overflowing element; that statement's chunk is not
  /// stored.
  void execute_column(const BufferTable& bufs, const i64* it0,
                      const i64* step, i64 n, Scratch& scratch) const;

  /// execute_row over an iteration vector.
  void execute_iteration(const BufferTable& bufs, const Vec& iter,
                         Scratch& scratch) const {
    execute_row(bufs, iter.data(), scratch);
  }

  /// Sequential lexicographic execution of the whole nest over `store`.
  void run_sequential(ArrayStore& store) const;

 private:
  /// One indirect slot: adds stride * idx[dot(coeffs, iter) + c0] to the
  /// flat offset (c0 already subtracts the index array's lower bound).
  /// bind() checks idx[first..last] (the position hull) against [lo, hi],
  /// the target dimension's declared range.
  struct Indirect {
    int array = 0;  // index array's declaration ordinal
    Vec coeffs;
    i64 c0 = 0;
    i64 stride = 0;  // row-major stride of the target dimension
    i64 first = 0, last = 0, lo = 0, hi = 0;
  };
  struct Access {
    int array = 0;  // declaration ordinal: the BufferTable slot
    Vec coeffs;     // flat offset = dot(coeffs, iter) + c0 + indirect
    i64 c0 = 0;
    std::vector<Indirect> indirect;
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

  Access compile_access(const loopir::ArrayRef& ref,
                        const IterationBox& box);
  void compile_expr(const loopir::Expr& e, Stmt& stmt, int depth,
                    const IterationBox& box);
  /// Flat buffer offset of `a` at iteration row `it` (unchecked: proven):
  /// the affine part, and the indirect slots' part over `bufs`.
  static i64 affine_offset(const Access& a, const i64* it);
  static i64 indirect_offset(const Access& a, i64* const* bufs,
                             const i64* it);
  /// execute_column: the flat offsets of `a` at it0 + e * step for e in
  /// [e0, e0 + m), into `out`.
  static void column_offsets(const Access& a, i64* const* bufs,
                             const i64* it0, const i64* step, i64 e0, i64 m,
                             i64* out);

  loopir::LoopNest nest_;
  std::vector<Stmt> stmts_;
  std::vector<Access> reads_;
  std::size_t stack_size_ = 16;
  std::size_t column_slots_ = 1;  ///< deepest program stack, plus a spare
};

/// Parallel execution of a prebuilt schedule through one compiled kernel
/// and one binding, shared by every task: execution only mutates array
/// memory, which legality keeps disjoint across items, and the value stack
/// — the only mutable execution state — lives in each task's own Scratch.
void execute_schedule_compiled(const loopir::LoopNest& nest,
                               const Schedule& sched, ArrayStore& store,
                               ThreadPool& pool);

}  // namespace vdep::exec
