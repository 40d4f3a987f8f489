#include "inspect/inspector.h"

#include <algorithm>
#include <chrono>

#include "support/error.h"

namespace vdep::inspect {

namespace {

i64 now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Slot states of the first-toucher table; any slot >= 0 holds the rank of
/// the cell's first toucher.
constexpr i64 kNeverWritten = -2;
constexpr i64 kNoToucher = -1;

/// One body access, flattened for the per-iteration hot loop: a tracked
/// array's table ids are base + row-major offset, affine slots evaluate
/// straight from an iteration row, and indirect slots read the index
/// array's raw buffer (no string lookups, no Vec per access).
struct FlatAccess {
  bool write = false;
  /// The body writes this array, so its cells have slots in the table.
  bool tracked = false;
  const loopir::ArrayDecl* decl = nullptr;
  i64 base = 0;

  struct Sub {
    const i64* coeffs = nullptr;  ///< the slot, or an indirect slot's position
    i64 constant = 0;
    const i64* idx = nullptr;     ///< indirect: index array's raw buffer
    i64 idx_lo = 0, idx_hi = 0;   ///< indirect: positions the buffer covers
    i64 lo = 0, hi = 0;           ///< declared range of this dimension
    i64 extent = 0;               ///< hi - lo + 1
  };
  std::vector<Sub> subs;
};

FlatAccess::Sub affine_sub(const loopir::AffineExpr& e, int depth) {
  VDEP_REQUIRE(e.depth() == depth, "iteration vector depth mismatch");
  FlatAccess::Sub s;
  s.coeffs = e.coeffs().data();
  s.constant = e.constant_term();
  return s;
}

/// Table offset of the cell `a` touches at iteration row `iter`. Every
/// slot is range-checked (indirect ones at the index position and at the
/// value read), so a bad subscript throws before it can index anything.
i64 cell_offset(const FlatAccess& a, const i64* iter, int depth) {
  i64 off = 0;
  for (const FlatAccess::Sub& s : a.subs) {
    i64 v = s.constant;
    for (int k = 0; k < depth; ++k) v = checked::fma(v, s.coeffs[k], iter[k]);
    if (s.idx) {
      VDEP_REQUIRE(v >= s.idx_lo && v <= s.idx_hi,
                   "index-array position out of declared range");
      v = s.idx[v - s.idx_lo];
    }
    VDEP_REQUIRE(v >= s.lo && v <= s.hi,
                 "array " + a.decl->name + " subscript out of declared range");
    off = checked::add(checked::mul(off, s.extent), v - s.lo);
  }
  return a.base + off;
}

i64 uf_find(std::vector<i64>& parent, i64 x) {
  while (parent[static_cast<std::size_t>(x)] != x) {
    // Path halving keeps amortized cost near-constant without recursion.
    parent[static_cast<std::size_t>(x)] =
        parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(x)])];
    x = parent[static_cast<std::size_t>(x)];
  }
  return x;
}

}  // namespace

void DynamicPartition::coords_of(i64 it, Vec& out) const {
  out.resize(static_cast<std::size_t>(depth_));
  const i64* src = coords_.data() + it * depth_;
  for (int d = 0; d < depth_; ++d) out[static_cast<std::size_t>(d)] = src[d];
}

DynamicPartition inspect(const loopir::LoopNest& nest,
                         const exec::ArrayStore& store) {
  const i64 t0 = now_ns();
  const int depth = nest.depth();

  // Flatten the body's accesses once; `accesses` keeps the ArrayRefs the
  // FlatAccess pointers borrow from alive for the whole inspection. Only
  // written arrays get table ids: a cell nothing writes carries no
  // dependence, so read-only arrays are range-checked but never tracked.
  const std::vector<loopir::LoopNest::Access> accesses = nest.accesses();
  std::vector<FlatAccess> flat(accesses.size());
  for (std::size_t k = 0; k < accesses.size(); ++k) {
    const loopir::ArrayRef& ref = accesses[k].ref;
    FlatAccess& fa = flat[k];
    fa.write = accesses[k].is_write;
    fa.decl = &nest.array(ref.array);
    for (std::size_t d = 0; d < ref.subscripts.size(); ++d) {
      FlatAccess::Sub s;
      if (d < ref.indirect.size() && ref.indirect[d].has_value()) {
        const loopir::IndirectSubscript& ind = *ref.indirect[d];
        const exec::ArrayStore::Buffer& buf = store.raw(ind.array);
        s = affine_sub(ind.pos, depth);
        s.idx = buf.data();
        s.idx_lo = nest.array(ind.array).dims.front().first;
        s.idx_hi = s.idx_lo + static_cast<i64>(buf.size()) - 1;
      } else {
        s = affine_sub(ref.subscripts[d], depth);
      }
      s.lo = fa.decl->dims[d].first;
      s.hi = fa.decl->dims[d].second;
      s.extent = checked::add(checked::sub(s.hi, s.lo), 1);
      fa.subs.push_back(s);
    }
  }
  i64 table_size = 0;
  for (FlatAccess& w : flat) {
    if (!w.write || w.tracked) continue;
    for (FlatAccess& fa : flat) {
      if (fa.decl != w.decl) continue;
      fa.tracked = true;
      fa.base = table_size;
    }
    table_size = checked::add(table_size, w.decl->element_count());
  }

  // The first-toucher table: one slot per cell of the written arrays.
  std::vector<i64> table(static_cast<std::size_t>(table_size), kNeverWritten);

  // Pass 1: materialize the iteration coordinates (pass 2 and the executor
  // replay them) and mark every written cell.
  DynamicPartition part;
  part.depth_ = depth;
  i64 written_cells = 0;
  nest.for_each_iteration([&](const Vec& iter) {
    part.coords_.insert(part.coords_.end(), iter.begin(), iter.end());
    for (const FlatAccess& fa : flat) {
      if (!fa.write) continue;
      i64& slot =
          table[static_cast<std::size_t>(cell_offset(fa, iter.data(), depth))];
      if (slot == kNeverWritten) {
        slot = kNoToucher;
        ++written_cells;
      }
    }
  });
  const i64 n = depth > 0 ? static_cast<i64>(part.coords_.size()) / depth : 0;

  // Pass 2: union every toucher of a written cell with that cell's first
  // toucher. Union-by-smaller-root keeps each root at its component's
  // lowest rank, i.e. its first member.
  std::vector<i64> parent(static_cast<std::size_t>(n));
  for (i64 k = 0; k < n; ++k) parent[static_cast<std::size_t>(k)] = k;
  for (i64 it = 0; it < n; ++it) {
    const i64* row = part.coords_.data() + it * depth;
    for (const FlatAccess& fa : flat) {
      const i64 cell = cell_offset(fa, row, depth);
      if (!fa.tracked) continue;
      i64& slot = table[static_cast<std::size_t>(cell)];
      if (slot == kNeverWritten) continue;
      if (slot == kNoToucher) {
        slot = it;
        continue;
      }
      i64 a = uf_find(parent, slot);
      i64 b = uf_find(parent, it);
      if (a != b) parent[static_cast<std::size_t>(std::max(a, b))] =
          std::min(a, b);
    }
  }

  // Classes: one per component (singletons included), numbered by the
  // lexicographic rank of the first member so class order is deterministic.
  // That first member is the root, so it is numbered before the rest.
  part.class_of_.resize(static_cast<std::size_t>(n));
  i64 num_classes = 0;
  for (i64 it = 0; it < n; ++it) {
    i64 r = uf_find(parent, it);
    part.class_of_[static_cast<std::size_t>(it)] =
        r == it ? num_classes++ : part.class_of_[static_cast<std::size_t>(r)];
  }

  // CSR (counting sort by class; members stay in ascending rank order).
  part.offsets_.assign(static_cast<std::size_t>(num_classes) + 1, 0);
  for (i64 c : part.class_of_) ++part.offsets_[static_cast<std::size_t>(c) + 1];
  for (std::size_t k = 1; k < part.offsets_.size(); ++k)
    part.offsets_[k] += part.offsets_[k - 1];
  part.members_.resize(static_cast<std::size_t>(n));
  std::vector<i64> cursor(part.offsets_.begin(), part.offsets_.end() - 1);
  for (i64 it = 0; it < n; ++it) {
    i64 c = part.class_of_[static_cast<std::size_t>(it)];
    part.members_[static_cast<std::size_t>(
        cursor[static_cast<std::size_t>(c)]++)] = it;
  }

  InspectStats& st = part.stats_;
  st.iterations = n;
  st.classes = num_classes;
  st.written_cells = written_cells;
  for (i64 c = 0; c < num_classes; ++c) {
    i64 sz = part.class_size(c);
    st.max_component = std::max(st.max_component, sz);
    if (sz >= 2) {
      ++st.chains;
      st.dependent_iterations += sz;
    }
  }
  st.inspect_ns = now_ns() - t0;
  return part;
}

}  // namespace vdep::inspect
