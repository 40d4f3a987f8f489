#include "trans/partition.h"

#include "support/error.h"

namespace vdep::trans {

Partitioning::Partitioning(Mat h) : h_(std::move(h)) {
  VDEP_REQUIRE(h_.is_square(), "partitioning needs a square PDM block");
  VDEP_REQUIRE(h_.rows() == 0 || intlin::is_hermite_normal_form(h_),
               "partitioning needs a full-rank HNF");
  for (int k = 0; k < h_.rows(); ++k) {
    VDEP_REQUIRE(h_.at(k, k) > 0, "HNF diagonal must be positive");
    for (int c = 0; c < k; ++c)
      VDEP_REQUIRE(h_.at(k, c) == 0, "HNF must be upper triangular");
    num_classes_ = checked::mul(num_classes_, h_.at(k, k));
  }
}

Vec Partitioning::residue_of(const Vec& iter) const {
  VDEP_REQUIRE(static_cast<int>(iter.size()) == dim(), "iteration dim mismatch");
  // i_k = r_k + sum_{l<=k} t_l * h_{l,k}; peel t_k off with floor division.
  Vec r(iter.size());
  Vec t(iter.size());
  for (int k = 0; k < dim(); ++k) {
    i64 offset = 0;
    for (int l = 0; l < k; ++l)
      offset = checked::fma(offset, t[static_cast<std::size_t>(l)], h_.at(l, k));
    i64 rest = checked::sub(iter[static_cast<std::size_t>(k)], offset);
    i64 hkk = h_.at(k, k);
    t[static_cast<std::size_t>(k)] = checked::floor_div(rest, hkk);
    r[static_cast<std::size_t>(k)] = checked::mod(rest, hkk);
  }
  return r;
}

i64 Partitioning::class_id(const Vec& iter) const {
  Vec r = residue_of(iter);
  i64 id = 0;
  for (int k = 0; k < dim(); ++k)
    id = checked::add(checked::mul(id, h_.at(k, k)), r[static_cast<std::size_t>(k)]);
  return id;
}

Vec Partitioning::class_label(i64 id) const {
  Vec r;
  class_label(id, r);
  return r;
}

void Partitioning::class_label(i64 id, Vec& out) const {
  VDEP_REQUIRE(id >= 0 && id < num_classes_, "class id out of range");
  out.resize(static_cast<std::size_t>(dim()));
  for (int k = dim() - 1; k >= 0; --k) {
    i64 hkk = h_.at(k, k);
    out[static_cast<std::size_t>(k)] = id % hkk;
    id /= hkk;
  }
}

void Partitioning::scan(const loopir::LoopNest& nest, int start,
                        const Vec& label, int k, Vec& iter, Vec& t_coeffs,
                        const std::function<void(const Vec&)>& fn) const {
  if (k == dim()) {
    fn(iter);
    return;
  }
  const loopir::Level& level = nest.level(start + k);
  i64 lo = level.lower.eval_lower(iter);
  i64 hi = level.upper.eval_upper(iter);
  i64 hkk = h_.at(k, k);
  // Effective offset q~_k = label_k + sum_{l<k} t_l h_{l,k} (skewed offset).
  i64 qk = label[static_cast<std::size_t>(k)];
  for (int l = 0; l < k; ++l)
    qk = checked::fma(qk, t_coeffs[static_cast<std::size_t>(l)], h_.at(l, k));
  // First member of the class at or above lo: lo + mod(qk - lo, hkk).
  i64 first = checked::add(lo, checked::mod(checked::sub(qk, lo), hkk));
  for (i64 v = first; v <= hi; v = checked::add(v, hkk)) {
    iter[static_cast<std::size_t>(start + k)] = v;
    t_coeffs[static_cast<std::size_t>(k)] =
        checked::floor_div(checked::sub(v, qk), hkk);
    scan(nest, start, label, k + 1, iter, t_coeffs, fn);
  }
  iter[static_cast<std::size_t>(start + k)] = 0;
  t_coeffs[static_cast<std::size_t>(k)] = 0;
}

void Partitioning::for_each_class_iteration(
    const loopir::LoopNest& nest, const Vec& label,
    const std::function<void(const Vec&)>& fn) const {
  VDEP_REQUIRE(nest.depth() == dim(), "nest depth / partition dim mismatch");
  Vec iter(static_cast<std::size_t>(dim()), 0);
  for_each_class_iteration_from(nest, 0, label, iter, fn);
}

void Partitioning::for_each_class_iteration_from(
    const loopir::LoopNest& nest, int start, const Vec& label, Vec& iter,
    const std::function<void(const Vec&)>& fn) const {
  Vec t;
  for_each_class_iteration_from(nest, start, label, iter, t, fn);
}

void Partitioning::for_each_class_iteration_from(
    const loopir::LoopNest& nest, int start, const Vec& label, Vec& iter,
    Vec& t_scratch, const std::function<void(const Vec&)>& fn) const {
  VDEP_REQUIRE(start >= 0 && nest.depth() >= start + dim(),
               "nest depth must cover start + partition dim");
  VDEP_REQUIRE(static_cast<int>(label.size()) == dim(), "label dim mismatch");
  VDEP_REQUIRE(static_cast<int>(iter.size()) == nest.depth(),
               "iteration vector depth mismatch");
  t_scratch.assign(static_cast<std::size_t>(dim()), 0);
  scan(nest, start, label, 0, iter, t_scratch, fn);
}

}  // namespace vdep::trans
