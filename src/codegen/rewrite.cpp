#include "codegen/rewrite.h"

#include "intlin/det.h"
#include "obs/trace.h"
#include "poly/fourier_motzkin.h"
#include "support/error.h"

namespace vdep::codegen {

Vec TransformedNest::original_iteration(const Vec& j) const {
  return intlin::vec_mat_mul(j, t_inverse);
}

Vec TransformedNest::transformed_iteration(const Vec& i) const {
  return intlin::vec_mat_mul(i, t);
}

TransformedNest rewrite_nest(const loopir::LoopNest& original, const Mat& t,
                             int num_doall) {
  int n = original.depth();
  VDEP_REQUIRE(t.rows() == n && t.cols() == n, "transform shape mismatch");
  VDEP_REQUIRE(num_doall >= 0 && num_doall <= n, "num_doall out of range");
  Mat tinv = intlin::unimodular_inverse(t);

  // Bounds: transform the iteration polytope and re-extract loop bounds.
  // Trace-only span (Phase::kNone): callers time the whole rewrite under
  // their own phase, so accounting FM here would double count.
  poly::NestBounds nb;
  {
    obs::ScopedSpan fm_span(obs::EventKind::kFmBounds, /*layer_enabled=*/true);
    poly::ConstraintSystem cs = poly::ConstraintSystem::from_nest(original);
    poly::ConstraintSystem ct = cs.transformed(t);
    nb = poly::extract_bounds(ct);
  }

  std::vector<loopir::Level> levels;
  for (int k = 0; k < n; ++k) {
    loopir::Level l;
    l.name += 'j';  // appended: GCC 12 flags operator+ with -Wrestrict
    l.name += std::to_string(k + 1);
    l.lower = nb.lower[static_cast<std::size_t>(k)];
    l.upper = nb.upper[static_cast<std::size_t>(k)];
    l.parallel = k < num_doall;
    levels.push_back(std::move(l));
  }

  // Body: substitute i = j * Tinv into every reference. ArrayRef::substituted
  // rewrites subscripts s(i) into s'(j) = s(j * M) for a given M; we need
  // s(j * Tinv), hence M = Tinv.
  std::vector<loopir::Assign> body;
  for (const loopir::Assign& a : original.body()) {
    loopir::Assign na;
    na.lhs = a.lhs.substituted(tinv);
    na.rhs = a.rhs->substituted(tinv);
    body.push_back(std::move(na));
  }

  TransformedNest out{
      loopir::LoopNest(std::move(levels), original.arrays(), std::move(body)),
      t, std::move(tinv)};
  return out;
}

TransformedNest rewrite_nest(const loopir::LoopNest& original,
                             const trans::TransformPlan& plan) {
  VDEP_REQUIRE(plan.depth == original.depth(), "plan depth mismatch");
  return rewrite_nest(original, plan.t, plan.num_doall);
}

}  // namespace vdep::codegen
