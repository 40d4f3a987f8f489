#include "loopir/builder.h"

#include "support/error.h"

namespace vdep::loopir {

LoopNestBuilder& LoopNestBuilder::loop(const std::string& name, i64 lo, i64 hi) {
  Level l;
  l.name = name;
  // Depth is patched at build() time; store a placeholder depth equal to the
  // current level count + 1 and extend later. To keep things simple the
  // builder requires all loops to be declared before affine helpers are
  // used, so bounds here are depth-agnostic constants stored directly.
  l.lower = Bound(AffineExpr::constant(0, lo));
  l.upper = Bound(AffineExpr::constant(0, hi));
  levels_.push_back(std::move(l));
  return *this;
}

LoopNestBuilder& LoopNestBuilder::loop(const std::string& name, Bound lower,
                                       Bound upper) {
  Level l;
  l.name = name;
  l.lower = std::move(lower);
  l.upper = std::move(upper);
  levels_.push_back(std::move(l));
  return *this;
}

LoopNestBuilder& LoopNestBuilder::array(const std::string& name,
                                        std::vector<std::pair<i64, i64>> dims) {
  arrays_.push_back(ArrayDecl{name, std::move(dims)});
  return *this;
}

LoopNestBuilder& LoopNestBuilder::assign(ArrayRef lhs, ExprPtr rhs) {
  body_.push_back(Assign{std::move(lhs), std::move(rhs)});
  return *this;
}

AffineExpr LoopNestBuilder::idx(int k) const {
  VDEP_REQUIRE(k >= 0 && k < depth(), "idx(k) out of declared loop range");
  return AffineExpr::index(depth(), k);
}

AffineExpr LoopNestBuilder::cst(i64 c) const {
  return AffineExpr::constant(depth(), c);
}

AffineExpr LoopNestBuilder::affine(const Vec& coeffs, i64 c0) const {
  VDEP_REQUIRE(static_cast<int>(coeffs.size()) == depth(),
               "affine() coefficient count mismatch");
  return AffineExpr(coeffs, c0);
}

ArrayRef LoopNestBuilder::ref(const std::string& array,
                              std::vector<AffineExpr> subscripts) const {
  return ArrayRef{array, std::move(subscripts), {}};
}

ExprPtr LoopNestBuilder::read(const std::string& array,
                              std::vector<AffineExpr> subscripts) const {
  return Expr::read(ref(array, std::move(subscripts)));
}

LoopNest LoopNestBuilder::build() const {
  // Normalize bound expressions to the final depth (constant bounds were
  // stored with depth 0 placeholders).
  std::vector<Level> levels = levels_;
  int n = depth();
  for (Level& l : levels) {
    auto fix = [&](Bound& b) {
      std::vector<BoundTerm> terms;
      for (const BoundTerm& t : b.terms()) {
        if (t.num.depth() == n) {
          terms.push_back(t);
        } else {
          VDEP_REQUIRE(t.num.is_constant(),
                       "non-constant bound with wrong depth in builder");
          terms.push_back({AffineExpr::constant(n, t.num.constant_term()), t.den});
        }
      }
      b = Bound(std::move(terms));
    };
    fix(l.lower);
    fix(l.upper);
  }
  return LoopNest(std::move(levels), arrays_, body_);
}

}  // namespace vdep::loopir
