#include "loopir/nest.h"

#include <algorithm>
#include <sstream>

#include "support/error.h"

namespace vdep::loopir {

i64 ArrayDecl::element_count() const {
  i64 n = 1;
  for (const auto& [lo, hi] : dims) {
    VDEP_REQUIRE(lo <= hi, "array " + name + " has an empty dimension");
    n = checked::mul(n, checked::add(checked::sub(hi, lo), 1));
  }
  return n;
}

i64 ArrayDecl::linear_index(const Vec& coords) const {
  VDEP_REQUIRE(static_cast<int>(coords.size()) == arity(),
               "subscript arity mismatch for array " + name);
  i64 idx = 0;
  for (std::size_t k = 0; k < dims.size(); ++k) {
    auto [lo, hi] = dims[k];
    VDEP_REQUIRE(coords[k] >= lo && coords[k] <= hi,
                 "array " + name + " subscript out of declared range");
    i64 extent = hi - lo + 1;
    idx = checked::add(checked::mul(idx, extent), checked::sub(coords[k], lo));
  }
  return idx;
}

bool ArrayDecl::in_range(const Vec& coords) const {
  if (static_cast<int>(coords.size()) != arity()) return false;
  for (std::size_t k = 0; k < dims.size(); ++k)
    if (coords[k] < dims[k].first || coords[k] > dims[k].second) return false;
  return true;
}

LoopNest::LoopNest(std::vector<Level> levels, std::vector<ArrayDecl> arrays,
                   std::vector<Assign> body)
    : levels_(std::move(levels)),
      arrays_(std::move(arrays)),
      body_(std::move(body)) {
  validate();
}

const Level& LoopNest::level(int k) const {
  VDEP_REQUIRE(k >= 0 && k < depth(), "loop level out of range");
  return levels_[static_cast<std::size_t>(k)];
}

std::vector<std::string> LoopNest::index_names() const {
  std::vector<std::string> names;
  names.reserve(levels_.size());
  for (const Level& l : levels_) names.push_back(l.name);
  return names;
}

const ArrayDecl& LoopNest::array(const std::string& name) const {
  for (const ArrayDecl& a : arrays_)
    if (a.name == name) return a;
  throw PreconditionError("unknown array: " + name);
}

bool LoopNest::has_array(const std::string& name) const {
  for (const ArrayDecl& a : arrays_)
    if (a.name == name) return true;
  return false;
}

std::vector<LoopNest::Access> LoopNest::accesses() const {
  std::vector<Access> out;
  for (std::size_t s = 0; s < body_.size(); ++s) {
    out.push_back({body_[s].lhs, static_cast<int>(s), true});
    std::vector<ArrayRef> reads;
    body_[s].rhs->collect_reads(&reads);
    for (ArrayRef& r : reads)
      out.push_back({std::move(r), static_cast<int>(s), false});
  }
  return out;
}

bool LoopNest::has_indirection() const {
  bool found = false;
  for_each_access([&](const ArrayRef& ref, int, bool) {
    if (ref.has_indirection()) found = true;
  });
  return found;
}

std::vector<ArrayRef> LoopNest::indirect_refs() const {
  std::vector<ArrayRef> out;
  for_each_access([&](const ArrayRef& ref, int, bool) {
    if (ref.has_indirection() &&
        std::find(out.begin(), out.end(), ref) == out.end())
      out.push_back(ref);
  });
  return out;
}

void LoopNest::validate() const {
  VDEP_REQUIRE(!levels_.empty(), "loop nest must have at least one level");
  for (int k = 0; k < depth(); ++k) {
    const Level& l = levels_[static_cast<std::size_t>(k)];
    VDEP_REQUIRE(!l.lower.empty() && !l.upper.empty(),
                 "loop " + l.name + " is missing a bound");
    VDEP_REQUIRE(l.lower.last_index_used() < k,
                 "lower bound of " + l.name + " references an inner index");
    VDEP_REQUIRE(l.upper.last_index_used() < k,
                 "upper bound of " + l.name + " references an inner index");
    for (const BoundTerm& t : l.lower.terms()) {
      VDEP_REQUIRE(t.den > 0, "bound divisor must be positive");
      VDEP_REQUIRE(t.num.depth() == depth(), "bound depth mismatch");
    }
    for (const BoundTerm& t : l.upper.terms()) {
      VDEP_REQUIRE(t.den > 0, "bound divisor must be positive");
      VDEP_REQUIRE(t.num.depth() == depth(), "bound depth mismatch");
    }
  }
  for_each_access([&](const ArrayRef& ref, int, bool) {
    VDEP_REQUIRE(has_array(ref.array), "undeclared array " + ref.array);
    const ArrayDecl& decl = array(ref.array);
    VDEP_REQUIRE(ref.arity() == decl.arity(),
                 "reference arity mismatch for array " + ref.array);
    for (const AffineExpr& s : ref.subscripts)
      VDEP_REQUIRE(s.depth() == depth(),
                   "subscript depth mismatch in array " + ref.array);
    if (!ref.indirect.empty()) {
      VDEP_REQUIRE(ref.indirect.size() == ref.subscripts.size(),
                   "indirect-slot count mismatch in array " + ref.array);
      for (const auto& ind : ref.indirect) {
        if (!ind.has_value()) continue;
        VDEP_REQUIRE(has_array(ind->array),
                     "undeclared index array " + ind->array);
        VDEP_REQUIRE(array(ind->array).arity() == 1,
                     "index array " + ind->array + " must be 1-D");
        VDEP_REQUIRE(ind->pos.depth() == depth(),
                     "indirect position depth mismatch in array " + ref.array);
      }
    }
  });
  // Index arrays must stay read-only: the inspector evaluates indirect
  // subscripts against the *initial* store and the resulting partition is
  // only valid for the whole run if no statement mutates an index array.
  for (const Assign& a : body_) {
    for_each_access([&](const ArrayRef& ref, int, bool) {
      for (const auto& ind : ref.indirect)
        if (ind.has_value())
          VDEP_REQUIRE(ind->array != a.lhs.array,
                       "index array " + ind->array +
                           " must be read-only but is written by the nest");
    });
  }
}

void LoopNest::for_each_iteration(const std::function<void(const Vec&)>& fn) const {
  if (depth() == 0) {  // a default-constructed nest: the empty iteration
    fn(Vec{});
    return;
  }
  for_each_inner_range([&](Vec& iter, i64 lo, i64 hi) {
    for (i64 v = lo; v <= hi; ++v) {
      iter.back() = v;
      fn(iter);
    }
  });
}

std::vector<Vec> LoopNest::iterations() const {
  std::vector<Vec> out;
  for_each_iteration([&](const Vec& i) { out.push_back(i); });
  return out;
}

i64 LoopNest::iteration_count() const {
  if (depth() == 0) return 1;  // the empty iteration (for_each_iteration)
  i64 n = 0;
  for_each_inner_range([&](const Vec&, i64 lo, i64 hi) {
    if (hi >= lo) n = checked::add(n, checked::add(checked::sub(hi, lo), 1));
  });
  return n;
}

bool LoopNest::contains(const Vec& iter) const {
  if (static_cast<int>(iter.size()) != depth()) return false;
  for (int k = 0; k < depth(); ++k) {
    const Level& l = levels_[static_cast<std::size_t>(k)];
    if (iter[static_cast<std::size_t>(k)] < l.lower.eval_lower(iter)) return false;
    if (iter[static_cast<std::size_t>(k)] > l.upper.eval_upper(iter)) return false;
  }
  return true;
}

std::string LoopNest::to_string() const {
  std::ostringstream os;
  std::vector<std::string> names = index_names();
  std::string indent;
  for (int k = 0; k < depth(); ++k) {
    const Level& l = levels_[static_cast<std::size_t>(k)];
    os << indent << (l.parallel ? "doall " : "do ") << l.name << " = "
       << l.lower.to_string(names, /*lower=*/true) << ", "
       << l.upper.to_string(names, /*lower=*/false) << "\n";
    indent += "  ";
  }
  for (const Assign& a : body_) os << indent << a.to_string(names) << "\n";
  for (int k = depth() - 1; k >= 0; --k) {
    indent.resize(indent.size() - 2);
    os << indent << "enddo\n";
  }
  return os.str();
}

}  // namespace vdep::loopir
