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

/// One distinct body access, flattened for the per-iteration hot loop: a
/// tracked array's table ids are base + row-major offset, affine slots
/// evaluate straight from an iteration row, and indirect slots read the
/// index array's raw buffer (no string lookups, no Vec per access).
struct FlatAccess {
  const loopir::ArrayRef* ref = nullptr;  ///< textual identity (dedup key)
  /// Some occurrence of the reference is a write.
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

  // Flatten the body's distinct accesses once (the read and the write of
  // A[B[i]] become one entry whose write flag is set); `accesses` keeps the
  // ArrayRefs the FlatAccess pointers borrow from alive for the whole
  // inspection. Only written arrays get table ids: a cell nothing writes
  // carries no dependence, so read-only arrays are range-checked but never
  // tracked.
  const std::vector<loopir::LoopNest::Access> accesses = nest.accesses();
  std::vector<FlatAccess> flat;
  for (const loopir::LoopNest::Access& acc : accesses) {
    const loopir::ArrayRef& ref = acc.ref;
    auto same = std::find_if(flat.begin(), flat.end(),
                             [&](const FlatAccess& fa) { return *fa.ref == ref; });
    if (same != flat.end()) {
      same->write |= acc.is_write;
      continue;
    }
    FlatAccess& fa = flat.emplace_back();
    fa.ref = &ref;
    fa.write = acc.is_write;
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
  std::size_t tracked = 0;
  for (FlatAccess& w : flat) {
    if (!w.write || w.tracked) continue;
    for (FlatAccess& fa : flat) {
      if (fa.decl != w.decl) continue;
      fa.tracked = true;
      fa.base = table_size;
      ++tracked;
    }
    table_size = checked::add(table_size, w.decl->element_count());
  }

  // The first-toucher table: one slot per cell of the written arrays.
  std::vector<i64> table(static_cast<std::size_t>(table_size), kNeverWritten);

  // Pass 1: materialize the iteration coordinates (the executor replays
  // them), range-check every access, record the cell of every tracked
  // access (`tracked` per iteration, in rank order) and mark every written
  // cell.
  // The space is counted up front so the row and cell vectors are allocated
  // once: a reallocation would touch fresh pages, and page faults are a
  // large share of inspection time at scale.
  DynamicPartition part;
  part.depth_ = depth;
  const i64 n = nest.iteration_count();
  part.coords_.reserve(static_cast<std::size_t>(checked::mul(n, depth)));
  std::vector<i64> cells;
  cells.reserve(static_cast<std::size_t>(n) * tracked);
  i64 written_cells = 0;
  nest.for_each_iteration([&](const Vec& iter) {
    part.coords_.insert(part.coords_.end(), iter.begin(), iter.end());
    for (const FlatAccess& fa : flat) {
      const i64 cell = cell_offset(fa, iter.data(), depth);
      if (!fa.tracked) continue;
      cells.push_back(cell);
      if (!fa.write) continue;
      i64& slot = table[static_cast<std::size_t>(cell)];
      if (slot == kNeverWritten) {
        slot = kNoToucher;
        ++written_cells;
      }
    }
  });

  // Pass 2: union every toucher of a written cell with that cell's first
  // toucher, reading the cells pass 1 resolved. Union-by-smaller-root keeps
  // each root at its component's lowest rank, i.e. its first member.
  std::vector<i64> parent(static_cast<std::size_t>(n));
  for (i64 k = 0; k < n; ++k) parent[static_cast<std::size_t>(k)] = k;
  const i64* cell = cells.data();
  for (i64 it = 0; it < n; ++it) {
    for (std::size_t t = 0; t < tracked; ++t) {
      i64& slot = table[static_cast<std::size_t>(*cell++)];
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
  // The members list reuses the dead cell vector's pages (n x tracked >= n)
  // instead of faulting in fresh ones.
  part.members_ = std::move(cells);

  // Classes: one per component (singletons included), numbered by the
  // lexicographic rank of the first member so class order is deterministic.
  // Every parent has a lower rank than its child and the root is the first
  // member, so one in-order sweep turns the parent array into class ids in
  // place: a root opens the next class, any other iteration takes its
  // parent's already-assigned class.
  i64 num_classes = 0;
  for (i64 it = 0; it < n; ++it) {
    i64& p = parent[static_cast<std::size_t>(it)];
    p = p == it ? num_classes++ : parent[static_cast<std::size_t>(p)];
  }
  part.class_of_ = std::move(parent);

  // CSR (counting sort by class; members stay in ascending rank order).
  // offsets_[c] serves as class c's fill cursor, which leaves it at the
  // start of class c + 1; one shift restores the starts.
  part.offsets_.assign(static_cast<std::size_t>(num_classes) + 1, 0);
  for (i64 c : part.class_of_) ++part.offsets_[static_cast<std::size_t>(c) + 1];
  for (std::size_t k = 1; k < part.offsets_.size(); ++k)
    part.offsets_[k] += part.offsets_[k - 1];
  part.members_.resize(static_cast<std::size_t>(n));
  for (i64 it = 0; it < n; ++it) {
    i64& cursor = part.offsets_[static_cast<std::size_t>(
        part.class_of_[static_cast<std::size_t>(it)])];
    part.members_[static_cast<std::size_t>(cursor++)] = it;
  }
  std::copy_backward(part.offsets_.begin(), part.offsets_.end() - 1,
                     part.offsets_.end());
  part.offsets_.front() = 0;

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
