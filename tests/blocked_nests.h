// Uniform-distance blocked nests shared by the runtime and topology suites:
// partitioned plans whose class spacing is set by the distances.
#pragma once

#include "loopir/builder.h"

namespace vdep::test_inputs {

/// A[i1, i2] = A[i1 - d1, i2] + A[i1, i2 - d2] + 1 over [0, n]^2: uniform
/// distances (d1, 0) and (0, d2), so H = diag(d1, d2).
inline loopir::LoopNest blocked(intlin::i64 n, intlin::i64 d1,
                                intlin::i64 d2) {
  loopir::LoopNestBuilder b;
  b.loop("i1", 0, n).loop("i2", 0, n);
  b.array("A", {{-d1, n}, {-d2, n}});
  b.assign(b.ref("A", {b.idx(0), b.idx(1)}),
           loopir::Expr::add(
               loopir::Expr::add(b.read("A", {b.affine({1, 0}, -d1), b.idx(1)}),
                                 b.read("A", {b.idx(0), b.affine({0, 1}, -d2)})),
               loopir::Expr::constant(1)));
  return b.build();
}

/// H = diag(2, 1): the classes are row parity, and rows of n + 1 >= 16
/// cells sit lines apart, so the class range stays a split axis.
inline loopir::LoopNest row_parity(intlin::i64 n) { return blocked(n, 2, 1); }

}  // namespace vdep::test_inputs
