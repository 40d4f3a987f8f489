// The perfectly nested loop model of the paper (equation 2.1):
//
//   do i1 = p1, q1
//     ...
//     do in = pn, qn
//       H(i1, ..., in)        -- a sequence of assignments
//
// Bounds p_k, q_k are integer (max/min of quasi-)affine functions of the
// *outer* indices i1..i_{k-1}; the body is a sequence of assignment
// statements over arrays with affine subscripts.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "loopir/expr.h"
#include "support/checked.h"

namespace vdep::loopir {

/// Declared shape of an array: inclusive [lo, hi] per dimension.
struct ArrayDecl {
  std::string name;
  std::vector<std::pair<i64, i64>> dims;

  int arity() const { return static_cast<int>(dims.size()); }
  i64 element_count() const;
  /// Row-major linear offset of `coords`, throwing when out of range.
  i64 linear_index(const Vec& coords) const;
  bool in_range(const Vec& coords) const;
};

/// One loop level: name, lower/upper bound, and whether the level was
/// proven parallel (DOALL). Step is always +1 in the base IR; strided
/// execution appears only in partitioned nests (trans::PartitionedNest).
struct Level {
  std::string name;
  Bound lower;
  Bound upper;
  bool parallel = false;
};

class LoopNest {
 public:
  LoopNest() = default;
  LoopNest(std::vector<Level> levels, std::vector<ArrayDecl> arrays,
           std::vector<Assign> body);

  int depth() const { return static_cast<int>(levels_.size()); }
  const std::vector<Level>& levels() const { return levels_; }
  const Level& level(int k) const;
  const std::vector<ArrayDecl>& arrays() const { return arrays_; }
  const std::vector<Assign>& body() const { return body_; }
  std::vector<std::string> index_names() const;

  const ArrayDecl& array(const std::string& name) const;
  bool has_array(const std::string& name) const;

  /// All array references in the body: every statement's write (lhs) and
  /// every read in its rhs, with statement index and access kind.
  struct Access {
    ArrayRef ref;
    int statement = 0;
    bool is_write = false;
  };
  std::vector<Access> accesses() const;

  /// True if any access in the body uses an indirect subscript (A[B[i]]).
  /// Such nests bypass the static PDM pipeline and run via the inspector.
  bool has_indirection() const;

  /// The distinct references with an indirect subscript, in the order of
  /// their first occurrence in accesses(); textually equal references (the
  /// read and the write of A[B[i]]) appear once. Column j of the
  /// inspector's resolved-subscript table and the row kernel's j-th table
  /// read both name indirect_refs()[j].
  std::vector<ArrayRef> indirect_refs() const;

  /// Visits every access in the same order as accesses() — per statement
  /// the write, then its reads in pre-order — without materializing
  /// ArrayRef copies. fn(ref, statement, is_write).
  template <typename Fn>
  void for_each_access(Fn&& fn) const {
    for (std::size_t s = 0; s < body_.size(); ++s) {
      int stmt = static_cast<int>(s);
      fn(body_[s].lhs, stmt, true);
      body_[s].rhs->for_each_read(
          [&](const ArrayRef& r) { fn(r, stmt, false); });
    }
  }

  /// Structural validation; throws PreconditionError on violations
  /// (bounds referencing inner indices, unknown arrays, arity mismatches,
  /// non-positive bound divisors).
  void validate() const;

  /// Sequential lexicographic enumeration of the iteration space.
  void for_each_iteration(const std::function<void(const Vec&)>& fn) const;
  /// Materialized iteration list (tests / ISDG on small spaces).
  std::vector<Vec> iterations() const;
  /// Number of points: the outer levels are enumerated, the innermost
  /// level is counted in closed form (for_each_inner_range).
  i64 iteration_count() const;
  /// Calls fn(iter, lo, hi) once per point of the outer depth() - 1
  /// levels, in lexicographic order: `iter` (a depth()-long Vec) holds
  /// that point's outer coordinates, and the innermost level runs over
  /// [lo, hi] there — empty when hi < lo. fn may overwrite iter's
  /// innermost entry (it is scratch) but no other. A depth-1 nest makes
  /// one call. No per-point callback: callers that need the points walk
  /// [lo, hi] themselves. Requires depth() >= 1.
  template <typename Fn>
  void for_each_inner_range(Fn&& fn) const {
    const int inner = depth() - 1;
    VDEP_REQUIRE(inner >= 0, "loop nest must have at least one level");
    Vec iter(static_cast<std::size_t>(depth()), 0);
    auto lower = [&](int k) {
      return levels_[static_cast<std::size_t>(k)].lower.eval_lower(iter);
    };
    auto upper = [&](int k) {
      return levels_[static_cast<std::size_t>(k)].upper.eval_upper(iter);
    };
    auto inner_range = [&] {
      const i64 lo = lower(inner), hi = upper(inner);
      fn(iter, lo, hi);
    };
    if (inner == 0) {
      inner_range();
      return;
    }
    // Odometer over the outer levels; outer_hi[k] is open level k's upper
    // bound.
    Vec outer_hi(static_cast<std::size_t>(inner));
    auto open = [&](int k) {
      iter[static_cast<std::size_t>(k)] = lower(k);
      outer_hi[static_cast<std::size_t>(k)] = upper(k);
    };
    open(0);
    for (int k = 0; k >= 0;) {
      const auto uk = static_cast<std::size_t>(k);
      if (iter[uk] > outer_hi[uk]) {
        --k;
        if (k >= 0) ++iter[static_cast<std::size_t>(k)];
      } else if (k + 1 < inner) {
        open(++k);
      } else {
        inner_range();
        ++iter[uk];
      }
    }
  }
  /// Whether `iter` lies inside all bounds.
  bool contains(const Vec& iter) const;

  /// Source-like rendering ("do i1 = ...").
  std::string to_string() const;

 private:
  std::vector<Level> levels_;
  std::vector<ArrayDecl> arrays_;
  std::vector<Assign> body_;
};

}  // namespace vdep::loopir
