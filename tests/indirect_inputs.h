// Indirect (A[B[i]]) test inputs shared by the inspector and compiled-kernel
// suites: small nests plus the index-array contents they run against.
#pragma once

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "exec/array_store.h"
#include "loopir/builder.h"

namespace vdep::test_inputs {

using intlin::i64;
using intlin::Vec;
using loopir::ArrayRef;
using loopir::Expr;
using loopir::IndirectSubscript;
using loopir::LoopNest;
using loopir::LoopNestBuilder;

/// A 1-D indirect nest `A[B[i]] = A[B[i]] + C[i]` over i in [0, n-1],
/// with A sized [0, a_hi].
inline LoopNest indirect_nest(i64 n, i64 a_hi) {
  LoopNestBuilder b;
  b.loop("i", 0, n - 1);
  b.array("A", {{0, a_hi}});
  b.array("B", {{0, n - 1}});
  b.array("C", {{0, n - 1}});
  ArrayRef lhs;
  lhs.array = "A";
  lhs.subscripts = {b.cst(0)};
  lhs.indirect = {IndirectSubscript{"B", b.idx(0)}};
  ArrayRef rhs_a = lhs;
  b.assign(lhs, Expr::add(Expr::read(rhs_a),
                          Expr::read(b.ref("C", {b.idx(0)}))));
  return b.build();
}

/// An indirect nest plus the index-array contents it runs against.
struct IndirectInput {
  std::string name;
  LoopNest nest;
  std::map<std::string, std::vector<i64>> index;  ///< array -> values from lo
};

inline std::vector<IndirectInput> indirect_inputs() {
  std::vector<IndirectInput> out;

  // Duplicate-heavy 1-D scatter-accumulate.
  {
    std::vector<i64> b;
    for (i64 i = 0; i < 24; ++i) b.push_back((i * 5 + 2) % 9);  // collisions
    out.push_back({"scatter", indirect_nest(24, 40), {{"B", b}}});
  }
  // Negative and nonzero lower bounds on the loop, the target and the
  // index array: table offsets must subtract each declared lo.
  {
    LoopNestBuilder b;
    b.loop("i", -5, 18);
    b.array("A", {{-7, 3}});
    b.array("B", {{-4, 19}});
    b.array("C", {{-5, 18}});
    ArrayRef lhs;
    lhs.array = "A";
    lhs.subscripts = {b.cst(0)};
    lhs.indirect = {IndirectSubscript{"B", b.idx(0) + b.cst(1)}};
    b.assign(lhs, Expr::add(Expr::read(lhs),
                            Expr::read(b.ref("C", {b.idx(0)}))));
    std::vector<i64> vals;
    for (i64 p = -4; p <= 19; ++p) vals.push_back(-7 + (p * 7 + 30) % 11);
    out.push_back({"negative-lo", b.build(), {{"B", vals}}});
  }
  // Two written arrays with their own index arrays; the second statement
  // reads the first one's cells, linking the two scatter patterns.
  {
    LoopNestBuilder b;
    b.loop("i", 0, 19);
    b.array("A", {{0, 6}});
    b.array("D", {{2, 9}});
    b.array("B", {{0, 19}});
    b.array("E", {{0, 19}});
    ArrayRef a;
    a.array = "A";
    a.subscripts = {b.cst(0)};
    a.indirect = {IndirectSubscript{"B", b.idx(0)}};
    ArrayRef d;
    d.array = "D";
    d.subscripts = {b.cst(0)};
    d.indirect = {IndirectSubscript{"E", b.idx(0)}};
    b.assign(a, Expr::add(Expr::read(a), Expr::constant(1)));
    b.assign(d, Expr::add(Expr::read(a), Expr::read(d)));
    std::vector<i64> bv, ev;
    for (i64 i = 0; i < 20; ++i) {
      bv.push_back((i * 3) % 7);
      ev.push_back(2 + (i * 5 + 1) % 8);
    }
    out.push_back({"two-written", b.build(), {{"B", bv}, {"E", ev}}});
  }
  // 2-D written array whose first slot is indirect: M[B[i], j] is linked
  // with M[B[i], 5 - j], so rows of M collide through B and columns pair
  // up within each row.
  {
    LoopNestBuilder b;
    b.loop("i", 0, 7);
    b.loop("j", 1, 4);
    b.array("M", {{-2, 3}, {1, 4}});
    b.array("B", {{0, 7}});
    b.array("C", {{0, 7}});
    ArrayRef lhs;
    lhs.array = "M";
    lhs.subscripts = {b.cst(0), b.idx(1)};
    lhs.indirect = {IndirectSubscript{"B", b.idx(0)}, std::nullopt};
    ArrayRef rhs = lhs;
    rhs.subscripts = {b.cst(0), b.cst(5) - b.idx(1)};
    b.assign(lhs, Expr::add(Expr::read(rhs),
                            Expr::read(b.ref("C", {b.idx(0)}))));
    out.push_back(
        {"2d-indirect-first", b.build(), {{"B", {3, -2, 0, 3, 1, -2, 2, 0}}}});
  }
  // A read-only gather source R touched both directly and through B: its
  // cells carry no dependence, so only the scatter into A links iterations.
  {
    LoopNestBuilder b;
    b.loop("i", 0, 15);
    b.array("A", {{0, 5}});
    b.array("R", {{0, 15}});
    b.array("B", {{0, 15}});
    ArrayRef a;
    a.array = "A";
    a.subscripts = {b.cst(0)};
    a.indirect = {IndirectSubscript{"B", b.idx(0)}};
    ArrayRef r = a;
    r.array = "R";
    b.assign(a, Expr::add(Expr::read(r),
                          Expr::read(b.ref("R", {b.idx(0)}))));
    std::vector<i64> vals;
    for (i64 i = 0; i < 16; ++i) vals.push_back(i % 3 == 0 ? i / 3 : 5);
    out.push_back({"read-only-array", b.build(), {{"B", vals}}});
  }
  return out;
}

/// `A[B[i]] = A[B[i]] + C[i]` over i in [0, n-1] with B a permutation of
/// A's cells: no two iterations share a cell, so the inspection is
/// conflict-free. Kept out of indirect_inputs(), whose inputs all carry
/// dependences.
inline IndirectInput permutation_input(i64 n) {
  std::vector<i64> b;
  // 7 is coprime with every n that 7 does not divide.
  for (i64 i = 0; i < n; ++i) b.push_back((i * 7 + 3) % n);
  return {"permutation", indirect_nest(n, n - 1), {{"B", b}}};
}

/// The input's store: fill_pattern() data with its index contents loaded.
inline exec::ArrayStore initial_store(const IndirectInput& in) {
  exec::ArrayStore store(in.nest);
  store.fill_pattern();
  for (const auto& [array, vals] : in.index) {
    const i64 lo = in.nest.array(array).dims.front().first;
    for (std::size_t k = 0; k < vals.size(); ++k)
      store.write(array, Vec{lo + static_cast<i64>(k)}, vals[k]);
  }
  return store;
}

/// `init` with one entry of the input's first index array changed to
/// another value that array holds (so still in range): same shapes, one
/// differing index entry. Equal to `init` only for a constant array.
inline exec::ArrayStore with_one_index_entry_changed(
    const IndirectInput& in, const exec::ArrayStore& init) {
  const auto& [array, vals] = *in.index.begin();
  const auto other = std::find_if(vals.begin(), vals.end(),
                                  [&](i64 v) { return v != vals.front(); });
  exec::ArrayStore changed = init;
  if (other != vals.end())
    changed.write(array, Vec{in.nest.array(array).dims.front().first}, *other);
  return changed;
}

}  // namespace vdep::test_inputs
