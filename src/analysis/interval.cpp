#include "analysis/interval.h"

#include <algorithm>

#include "support/error.h"

namespace vdep::analysis {

namespace {

i64 min2(i64 a, i64 b) { return a < b ? a : b; }
i64 max2(i64 a, i64 b) { return a > b ? a : b; }

}  // namespace

Interval Interval::operator+(const Interval& o) const {
  if (is_empty() || o.is_empty()) return empty();
  return {checked::add(lo, o.lo), checked::add(hi, o.hi)};
}

Interval Interval::scaled(i64 c) const {
  if (is_empty()) return empty();
  if (c == 0) return point(0);
  i64 a = checked::mul(lo, c);
  i64 b = checked::mul(hi, c);
  return c > 0 ? Interval{a, b} : Interval{b, a};
}

Interval Interval::plus(i64 c) const {
  if (is_empty()) return empty();
  return {checked::add(lo, c), checked::add(hi, c)};
}

Interval Interval::ceil_div(i64 den) const {
  VDEP_REQUIRE(den > 0, "Interval::ceil_div: divisor must be positive");
  if (is_empty()) return empty();
  return {checked::ceil_div(lo, den), checked::ceil_div(hi, den)};
}

Interval Interval::floor_div(i64 den) const {
  VDEP_REQUIRE(den > 0, "Interval::floor_div: divisor must be positive");
  if (is_empty()) return empty();
  return {checked::floor_div(lo, den), checked::floor_div(hi, den)};
}

Interval Interval::hull(const Interval& o) const {
  if (is_empty()) return o;
  if (o.is_empty()) return *this;
  return {min2(lo, o.lo), max2(hi, o.hi)};
}

Interval Interval::intersect(const Interval& o) const {
  if (is_empty() || o.is_empty()) return empty();
  Interval r{max2(lo, o.lo), min2(hi, o.hi)};
  return r.is_empty() ? empty() : r;
}

std::string Interval::to_string() const {
  if (is_empty()) return "[]";
  std::string s = "[";  // appended: GCC 12 flags operator+ with -Wrestrict
  s += std::to_string(lo);
  s += ", ";
  s += std::to_string(hi);
  s += ']';
  return s;
}

IntervalEnv IntervalEnv::from_nest(const loopir::LoopNest& nest, int levels) {
  return from_nest_with_prefix(nest, levels, {});
}

IntervalEnv IntervalEnv::from_nest_with_prefix(const loopir::LoopNest& nest,
                                               int levels,
                                               std::vector<Interval> prefix) {
  VDEP_REQUIRE(levels >= 0 && levels <= nest.depth(),
               "IntervalEnv::from_nest: levels out of range");
  VDEP_REQUIRE(static_cast<int>(prefix.size()) <= levels,
               "IntervalEnv::from_nest_with_prefix: prefix longer than levels");
  IntervalEnv env;
  env.hulls_.reserve(static_cast<std::size_t>(levels));
  for (const Interval& given : prefix) {
    if (given.is_empty()) {
      env.empty_ = true;
      env.hulls_.assign(static_cast<std::size_t>(levels), Interval::empty());
      return env;
    }
    env.hulls_.push_back(given);
  }
  for (int k = static_cast<int>(prefix.size()); k < levels; ++k) {
    const loopir::Level& lv = nest.level(k);
    Interval lo = env.bound_interval(lv.lower, /*lower=*/true, k);
    Interval hi = env.bound_interval(lv.upper, /*lower=*/false, k);
    // The level ranges over [lower, upper] for *some* enclosing point, so
    // its hull is [min possible lower, max possible upper] — unless that
    // comes out inverted, in which case the whole space is provably empty.
    Interval hull{lo.lo, hi.hi};
    if (hull.is_empty()) {
      env.empty_ = true;
      env.hulls_.assign(static_cast<std::size_t>(levels), Interval::empty());
      return env;
    }
    env.hulls_.push_back(hull);
  }
  return env;
}

IntervalEnv IntervalEnv::from_hulls(std::vector<Interval> hulls) {
  IntervalEnv env;
  for (const Interval& h : hulls) {
    if (h.is_empty()) {
      env.empty_ = true;
      env.hulls_.assign(hulls.size(), Interval::empty());
      return env;
    }
  }
  env.hulls_ = std::move(hulls);
  return env;
}

const Interval& IntervalEnv::level_hull(int k) const {
  VDEP_REQUIRE(k >= 0 && k < levels(), "IntervalEnv::level_hull: bad level");
  return hulls_[static_cast<std::size_t>(k)];
}

Interval IntervalEnv::eval(const loopir::AffineExpr& e, int upto) const {
  VDEP_REQUIRE(upto >= 0 && upto <= levels(),
               "IntervalEnv::eval: upto out of range");
  VDEP_REQUIRE(e.last_index_used() < upto,
               "IntervalEnv::eval: expression references a level at or "
               "beyond upto");
  Interval acc = Interval::point(e.constant_term());
  for (int m = 0; m < upto; ++m) {
    i64 c = e.coeff(m);
    if (c == 0) continue;
    acc = acc + hulls_[static_cast<std::size_t>(m)].scaled(c);
  }
  return acc;
}

Interval IntervalEnv::term_interval(const loopir::BoundTerm& t, bool lower,
                                    int upto) const {
  Interval num = eval(t.num, upto);
  if (t.den == 1) return num;
  return lower ? num.ceil_div(t.den) : num.floor_div(t.den);
}

Interval IntervalEnv::bound_interval(const loopir::Bound& b, bool lower,
                                     int upto) const {
  VDEP_REQUIRE(!b.empty(), "IntervalEnv::bound_interval: empty bound");
  // A lower bound evaluates to max over terms, so its min is the max of
  // term mins and its max is the max of term maxes (dually for upper):
  // endpoint-wise max/min of the term intervals.
  Interval acc = term_interval(b.terms().front(), lower, upto);
  for (std::size_t i = 1; i < b.terms().size(); ++i) {
    Interval t = term_interval(b.terms()[i], lower, upto);
    if (lower) {
      acc = {max2(acc.lo, t.lo), max2(acc.hi, t.hi)};
    } else {
      acc = {min2(acc.lo, t.lo), min2(acc.hi, t.hi)};
    }
  }
  return acc;
}

}  // namespace vdep::analysis
