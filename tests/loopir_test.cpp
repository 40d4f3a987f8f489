// Tests for the loop IR: affine expressions, bounds, array references,
// expression trees, nest validation, enumeration and printing.
#include <gtest/gtest.h>

#include "loopir/builder.h"
#include "loopir/nest.h"
#include "support/rng.h"

namespace vdep::loopir {
namespace {

// ------------------------------------------------------------- AffineExpr

TEST(AffineExpr, ConstantAndIndex) {
  AffineExpr c = AffineExpr::constant(2, 7);
  EXPECT_TRUE(c.is_constant());
  EXPECT_EQ(c.eval(Vec{10, 20}), 7);
  AffineExpr i1 = AffineExpr::index(2, 1);
  EXPECT_EQ(i1.eval(Vec{10, 20}), 20);
  EXPECT_EQ(i1.last_index_used(), 1);
  EXPECT_EQ(c.last_index_used(), -1);
}

TEST(AffineExpr, Arithmetic) {
  AffineExpr e = AffineExpr(Vec{3, -2}, 2);  // 3*i1 - 2*i2 + 2
  EXPECT_EQ(e.eval(Vec{1, 2}), 1);
  AffineExpr f = e + AffineExpr::index(2, 0);       // 4*i1 - 2*i2 + 2
  EXPECT_EQ(f.eval(Vec{1, 2}), 2);
  AffineExpr g = e.scaled(-1);
  EXPECT_EQ(g.eval(Vec{1, 2}), -1);
  EXPECT_EQ(e.plus_constant(5).eval(Vec{0, 0}), 7);
  EXPECT_EQ((e - e).eval(Vec{4, 5}), 0);
}

TEST(AffineExpr, SubstituteRowConvention) {
  // T = [[1,1],[1,0]]: j = i*T means i = j*Tinv; substitute computes
  // e'(j) = e(j*T). e = i1 => e'(j) = j1 + j2.
  intlin::Mat t = intlin::Mat::from_rows({{1, 1}, {1, 0}});
  AffineExpr e = AffineExpr::index(2, 0);
  AffineExpr s = e.substitute(t);
  for (i64 a = -3; a <= 3; ++a)
    for (i64 b = -3; b <= 3; ++b) {
      Vec j{a, b};
      Vec i = intlin::vec_mat_mul(j, t);
      EXPECT_EQ(s.eval(j), e.eval(i));
    }
}

TEST(AffineExpr, ToString) {
  std::vector<std::string> names{"i1", "i2"};
  EXPECT_EQ(AffineExpr(Vec{3, -2}, 2).to_string(names), "3*i1 - 2*i2 + 2");
  EXPECT_EQ(AffineExpr(Vec{-1, 0}, 0).to_string(names), "-i1");
  EXPECT_EQ(AffineExpr::constant(2, -4).to_string(names), "-4");
  EXPECT_EQ(AffineExpr(Vec{0, 1}, -1).to_string(names), "i2 - 1");
}

// ------------------------------------------------------------------ Bound

TEST(Bound, LowerIsMaxOfCeils) {
  Bound b;
  b.add_term({AffineExpr::constant(1, 7), 2});   // ceil(7/2) = 4
  b.add_term({AffineExpr::constant(1, 3), 1});   // 3
  EXPECT_EQ(b.eval_lower(Vec{0}), 4);
}

TEST(Bound, UpperIsMinOfFloors) {
  Bound b;
  b.add_term({AffineExpr::constant(1, 7), 2});   // floor(7/2) = 3
  b.add_term({AffineExpr::constant(1, 5), 1});   // 5
  EXPECT_EQ(b.eval_upper(Vec{0}), 3);
}

TEST(Bound, AffineTermsUseOuterIndices) {
  // lower bound of i2: max(-10, i1 - 10) at i1 = 3 -> -7.
  Bound b;
  b.add_term({AffineExpr::constant(2, -10), 1});
  b.add_term({AffineExpr(Vec{1, 0}, -10), 1});
  EXPECT_EQ(b.eval_lower(Vec{3, 0}), -7);
  EXPECT_EQ(b.last_index_used(), 0);
}

TEST(Bound, ToString) {
  std::vector<std::string> names{"i1"};
  Bound b;
  b.add_term({AffineExpr::constant(1, -10), 1});
  EXPECT_EQ(b.to_string(names, true), "-10");
  b.add_term({AffineExpr(Vec{1}, 0), 2});
  EXPECT_EQ(b.to_string(names, true), "max(-10, ceil(i1, 2))");
  EXPECT_EQ(b.to_string(names, false), "min(-10, floor(i1, 2))");
}

// --------------------------------------------------------------- ArrayRef

TEST(ArrayRef, ElementAndLinearPart) {
  ArrayRef r{"A", {AffineExpr(Vec{3, -2}, 2), AffineExpr(Vec{-2, 3}, -2)}};
  EXPECT_EQ(r.element_at(Vec{1, 1}), (Vec{3, -1}));
  EXPECT_EQ(r.linear_part(), intlin::Mat::from_rows({{3, -2}, {-2, 3}}));
  EXPECT_EQ(r.constant_part(), (Vec{2, -2}));
  std::vector<std::string> names{"i1", "i2"};
  EXPECT_EQ(r.to_string(names), "A[3*i1 - 2*i2 + 2, -2*i1 + 3*i2 - 2]");
}

// ------------------------------------------------------------------- Expr

TEST(Expr, EvaluationTreeCollectsReads) {
  ArrayRef a{"A", {AffineExpr::index(2, 0)}};
  ArrayRef b{"B", {AffineExpr::index(2, 1)}};
  ExprPtr e = Expr::add(Expr::read(a), Expr::mul(Expr::read(b), Expr::constant(3)));
  std::vector<ArrayRef> reads;
  e->collect_reads(&reads);
  ASSERT_EQ(reads.size(), 2u);
  EXPECT_EQ(reads[0].array, "A");
  EXPECT_EQ(reads[1].array, "B");
  std::vector<std::string> names{"i1", "i2"};
  EXPECT_EQ(e->to_string(names), "(A[i1] + (B[i2] * 3))");
}

TEST(Expr, SubstitutedRewritesAllReads) {
  intlin::Mat t = intlin::Mat::from_rows({{0, 1}, {1, 0}});  // swap indices
  ArrayRef a{"A", {AffineExpr::index(2, 0)}};
  ExprPtr e = Expr::sub(Expr::read(a), Expr::constant(1));
  ExprPtr s = e->substituted(t);
  std::vector<ArrayRef> reads;
  s->collect_reads(&reads);
  ASSERT_EQ(reads.size(), 1u);
  // i1 evaluated at j*T picks j2.
  EXPECT_EQ(reads[0].subscripts[0], AffineExpr::index(2, 1));
}

// -------------------------------------------------------------- ArrayDecl

TEST(ArrayDecl, LinearIndexRowMajor) {
  ArrayDecl d{"A", {{-1, 1}, {0, 2}}};
  EXPECT_EQ(d.element_count(), 9);
  EXPECT_EQ(d.linear_index(Vec{-1, 0}), 0);
  EXPECT_EQ(d.linear_index(Vec{-1, 2}), 2);
  EXPECT_EQ(d.linear_index(Vec{0, 0}), 3);
  EXPECT_EQ(d.linear_index(Vec{1, 2}), 8);
  EXPECT_THROW(d.linear_index(Vec{2, 0}), PreconditionError);
  EXPECT_TRUE(d.in_range(Vec{0, 1}));
  EXPECT_FALSE(d.in_range(Vec{0, 3}));
}

// --------------------------------------------------------------- LoopNest

LoopNest square_nest(i64 n) {
  LoopNestBuilder b;
  b.loop("i1", -n, n).loop("i2", -n, n);
  b.array("A", {{-5 * n - 10, 5 * n + 10}, {-5 * n - 10, 5 * n + 10}});
  b.assign(b.ref("A", {b.idx(0), b.idx(1)}),
           Expr::add(b.read("A", {b.idx(0), b.idx(1)}), Expr::constant(1)));
  return b.build();
}

TEST(LoopNest, BuilderProducesValidNest) {
  LoopNest nest = square_nest(2);
  EXPECT_EQ(nest.depth(), 2);
  EXPECT_EQ(nest.iteration_count(), 25);
  EXPECT_EQ(nest.index_names(), (std::vector<std::string>{"i1", "i2"}));
}

TEST(LoopNest, EnumerationIsLexicographic) {
  LoopNest nest = square_nest(1);
  std::vector<Vec> iters = nest.iterations();
  ASSERT_EQ(iters.size(), 9u);
  EXPECT_EQ(iters.front(), (Vec{-1, -1}));
  EXPECT_EQ(iters.back(), (Vec{1, 1}));
  for (std::size_t k = 1; k < iters.size(); ++k)
    EXPECT_TRUE(intlin::lex_less(iters[k - 1], iters[k]));
}

TEST(LoopNest, TriangularBounds) {
  // do i1 = 0, 4 ; do i2 = i1, 4 — a triangle of 15 points.
  LoopNestBuilder b;
  b.loop("i1", 0, 4);
  b.loop("i2", Bound(AffineExpr(Vec{1, 0}, 0)), Bound(AffineExpr::constant(2, 4)));
  b.array("A", {{0, 4}});
  b.assign(b.ref("A", {b.idx(1)}), Expr::constant(0));
  LoopNest nest = b.build();
  EXPECT_EQ(nest.iteration_count(), 15);
  EXPECT_TRUE(nest.contains(Vec{2, 3}));
  EXPECT_FALSE(nest.contains(Vec{3, 2}));
}

TEST(LoopNest, AccessesCollectsWritesAndReads) {
  LoopNest nest = square_nest(1);
  auto acc = nest.accesses();
  ASSERT_EQ(acc.size(), 2u);
  EXPECT_TRUE(acc[0].is_write);
  EXPECT_FALSE(acc[1].is_write);
  EXPECT_EQ(acc[0].ref.array, "A");
}

TEST(LoopNest, ValidationCatchesInnerIndexInBound) {
  LoopNestBuilder b;
  b.loop("i1", Bound(AffineExpr(Vec{0, 1}, 0)), Bound(AffineExpr::constant(2, 4)));
  b.loop("i2", 0, 4);
  b.array("A", {{0, 4}});
  b.assign(b.ref("A", {b.idx(0)}), Expr::constant(0));
  EXPECT_THROW(b.build(), PreconditionError);
}

TEST(LoopNest, ValidationCatchesUndeclaredArray) {
  LoopNestBuilder b;
  b.loop("i1", 0, 4);
  b.assign(ArrayRef{"Ghost", {AffineExpr::index(1, 0)}}, Expr::constant(0));
  EXPECT_THROW(b.build(), PreconditionError);
}

TEST(LoopNest, ValidationCatchesArityMismatch) {
  LoopNestBuilder b;
  b.loop("i1", 0, 4);
  b.array("A", {{0, 4}, {0, 4}});
  b.assign(b.ref("A", {b.idx(0)}), Expr::constant(0));
  EXPECT_THROW(b.build(), PreconditionError);
}

TEST(LoopNest, ToStringRoundTripShape) {
  LoopNest nest = square_nest(10);
  std::string s = nest.to_string();
  EXPECT_NE(s.find("do i1 = -10, 10"), std::string::npos);
  EXPECT_NE(s.find("do i2 = -10, 10"), std::string::npos);
  EXPECT_NE(s.find("A[i1, i2] = (A[i1, i2] + 1)"), std::string::npos);
  EXPECT_NE(s.find("enddo"), std::string::npos);
}

TEST(LoopNestProperty, ContainsAgreesWithEnumeration) {
  Rng rng(13);
  LoopNest nest = square_nest(3);
  std::vector<Vec> iters = nest.iterations();
  for (const Vec& i : iters) EXPECT_TRUE(nest.contains(i));
  for (int k = 0; k < 100; ++k) {
    Vec p{rng.uniform(-6, 6), rng.uniform(-6, 6)};
    bool in = p[0] >= -3 && p[0] <= 3 && p[1] >= -3 && p[1] <= 3;
    EXPECT_EQ(nest.contains(p), in);
  }
}

// iteration_count() counts the innermost level in closed form and
// for_each_inner_range() walks only the outer levels; both must agree with
// full enumeration on wedge spaces whose inner ranges are often empty —
// including whole outer slices with nothing inside — at depths 1-3.
TEST(LoopNestProperty, ClosedFormInnerCountsAgreeWithEnumeration) {
  Rng rng(29);
  for (int trial = 0; trial < 200; ++trial) {
    const int depth = static_cast<int>(rng.uniform(1, 3));
    LoopNestBuilder b;
    for (int k = 0; k < depth; ++k) {
      Bound lower = Bound::constant(depth, rng.uniform(-3, 2));
      Bound upper = Bound::constant(depth, rng.uniform(-3, 4));
      if (k > 0 && rng.chance(2, 3)) {
        Vec coeffs(static_cast<std::size_t>(depth), 0);
        coeffs[static_cast<std::size_t>(rng.uniform(0, k - 1))] =
            rng.uniform(-2, 2);
        AffineExpr e(std::move(coeffs), rng.uniform(-3, 3));
        if (rng.chance(1, 2))
          lower.add_term({e, 1});
        else
          upper.add_term({e, rng.uniform(1, 2)});
      }
      b.loop("i" + std::to_string(k + 1), std::move(lower), std::move(upper));
    }
    b.array("A", {{-10, 10}});
    b.assign(b.ref("A", {b.cst(0)}), Expr::constant(0));
    LoopNest nest = b.build();

    const std::vector<Vec> iters = nest.iterations();
    EXPECT_EQ(nest.iteration_count(), static_cast<i64>(iters.size()))
        << nest.to_string();
    std::vector<Vec> rows;
    nest.for_each_inner_range([&](const Vec& iter, i64 lo, i64 hi) {
      for (i64 v = lo; v <= hi; ++v) {
        Vec row = iter;
        row.back() = v;
        rows.push_back(row);
      }
    });
    EXPECT_EQ(rows, iters) << nest.to_string();
  }
}

}  // namespace
}  // namespace vdep::loopir
