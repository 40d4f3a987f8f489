#include "inspect/inspector.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <numeric>
#include <set>

#include "runtime/driver.h"
#include "support/error.h"
#include "support/thread_pool.h"

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
  /// A write whose cells pass 1 marks: its array is also read through a
  /// subscript that never writes.
  bool mark = false;
  const loopir::ArrayDecl* decl = nullptr;
  i64 base = 0;
  /// Column of this access's element offset in a pass-1 record: its
  /// LoopNest::indirect_refs() index for an indirect access, after those
  /// for a tracked affine one; -1 when nothing needs it.
  i64 col = -1;

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

/// Table offset of the cell `a` touches at iteration row `iter` (base plus
/// the row-major element offset). Every slot is range-checked (indirect
/// ones at the index position and at the value read), so a bad subscript
/// throws before it can index anything.
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

std::optional<ProvenStore> DynamicPartition::prove(exec::ArrayStore& store,
                                                   ThreadPool* pool,
                                                   std::size_t threads) const {
  for (const ArrayImage& img : arrays_)
    if (store.raw(img.name).size() != img.size) return std::nullopt;
  // Slice s of every image is [size * s / slices, size * (s + 1) / slices):
  // the slices tile each image, so every byte is compared exactly once.
  // A slice stops at its first differing image and skips the images left
  // once any slice has refused; memcmp itself stops at the first differing
  // byte, so the serial compare ends there.
  const std::size_t slices = pool && threads > 1 ? threads : 1;
  std::atomic<bool> differs{false};
  auto compare = [&](std::int64_t s) {
    const std::size_t k = static_cast<std::size_t>(s);
    for (const ArrayImage& img : arrays_) {
      if (differs.load(std::memory_order_relaxed)) return;
      if (img.index.empty()) continue;
      const std::size_t lo = img.size * k / slices;
      const std::size_t hi = img.size * (k + 1) / slices;
      if (std::memcmp(store.raw(img.name).data() + lo, img.index.data() + lo,
                      (hi - lo) * sizeof(i64)) != 0) {
        differs.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };
  // parallel_for returns once every slice has run, so no leaf can start
  // before the whole compare passed.
  if (slices > 1)
    pool->parallel_for(static_cast<std::int64_t>(slices), compare);
  else
    compare(0);
  if (differs.load(std::memory_order_relaxed)) return std::nullopt;
  return ProvenStore(store, *this);
}

DynamicPartition inspect(const loopir::LoopNest& nest,
                         const exec::ArrayStore& store, std::size_t threads,
                         ThreadPool* pool) {
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
  std::set<std::string> index_arrays;
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
        index_arrays.insert(ind.array);
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
  // Pass-1 record columns: the indirect accesses' offsets first, in
  // indirect_refs() order (the resolved table keeps these), then the
  // tracked affine accesses' cells, which only pass 2 reads.
  const std::vector<loopir::ArrayRef> resolved_refs = nest.indirect_refs();
  const std::size_t width = resolved_refs.size();
  for (FlatAccess& fa : flat)
    if (fa.ref->has_indirection())
      fa.col = std::find(resolved_refs.begin(), resolved_refs.end(), *fa.ref) -
               resolved_refs.begin();
  // The first-toucher table: one slot per cell of the written arrays. When
  // every access to an array writes, every cell of it pass 1 records is
  // written, so its slots start "no toucher yet" and need no marks. Only
  // an array also read through a non-writing subscript starts "never
  // written" and has its written cells marked by pass 1.
  std::vector<i64> table;
  std::vector<const FlatAccess*> tracked_cols;
  for (FlatAccess& w : flat) {
    if (!w.write || w.tracked) continue;
    const bool marked =
        std::any_of(flat.begin(), flat.end(), [&](const FlatAccess& fa) {
          return fa.decl == w.decl && !fa.write;
        });
    for (FlatAccess& fa : flat) {
      if (fa.decl != w.decl) continue;
      fa.tracked = true;
      fa.mark = marked && fa.write;
      fa.base = static_cast<i64>(table.size());
      tracked_cols.push_back(&fa);
    }
    table.resize(static_cast<std::size_t>(checked::add(
                     static_cast<i64>(table.size()), w.decl->element_count())),
                 marked ? kNeverWritten : kNoToucher);
  }
  std::size_t record_width = width;
  for (FlatAccess& fa : flat)
    if (fa.tracked && fa.col < 0) fa.col = static_cast<i64>(record_width++);

  // The iteration coordinates, materialized once: pass 1 reads them and
  // the executor replays them. One odometer pass over the outer levels
  // counts (innermost extents in closed form), a second writes the rows
  // straight into the buffer.
  DynamicPartition part;
  part.depth_ = depth;
  part.width_ = static_cast<int>(width);
  // What prove() compares later stores against: every array's size and
  // the index arrays' contents, as this inspection reads them.
  for (const loopir::ArrayDecl& decl : nest.arrays()) {
    const exec::ArrayStore::Buffer& buf = store.raw(decl.name);
    DynamicPartition::ArrayImage& img = part.arrays_.emplace_back();
    img.name = decl.name;
    img.size = buf.size();
    if (index_arrays.count(decl.name)) img.index.assign(buf.begin(), buf.end());
  }
  i64 n = 0;
  nest.for_each_inner_range([&](const Vec&, i64 lo, i64 hi) {
    if (hi >= lo) n = checked::add(n, checked::add(checked::sub(hi, lo), 1));
  });
  part.coords_.resize(static_cast<std::size_t>(checked::mul(n, depth)));
  {
    i64* out = part.coords_.data();
    const std::size_t outer = static_cast<std::size_t>(depth) - 1;
    nest.for_each_inner_range([&](const Vec& iter, i64 lo, i64 hi) {
      for (i64 v = lo; v <= hi; ++v) {
        out = std::copy_n(iter.data(), outer, out);
        *out++ = v;
      }
    });
  }

  // Pass 1, one driver source over the rank range [0, n): range-check every
  // access, write the element offset of every access with a column into
  // its iteration's record (`record_width` values per iteration, in rank
  // order) and mark the cells of every marking write (see the table
  // above). Leaves own disjoint rank slices of `records`; marks race only
  // with equal values.
  // Pass 1 belongs to the inspect span, so its leaves are not traced,
  // metered or pinned.
  std::vector<i64> records(static_cast<std::size_t>(checked::mul(
      n, static_cast<i64>(record_width))));
  {
    const i64* rows = part.coords_.data();
    i64* out_records = records.data();
    i64* marks = table.data();
    auto leaf = [&](const runtime::TaskDescriptor& task,
                    runtime::WorkerStats& stats, runtime::LeafScratch&) {
      for (i64 it = task.class_lo; it < task.class_hi; ++it) {
        const i64* row = rows + it * depth;
        i64* out = out_records + it * static_cast<i64>(record_width);
        for (const FlatAccess& fa : flat) {
          const i64 cell = cell_offset(fa, row, depth);
          if (fa.col >= 0) out[fa.col] = cell - fa.base;
          if (!fa.mark) continue;
          std::atomic_ref<i64> mark(marks[cell]);
          if (mark.load(std::memory_order_relaxed) == kNeverWritten)
            mark.store(kNoToucher, std::memory_order_relaxed);
        }
      }
      stats.iterations += task.class_extent();
    };
    runtime::TaskDescriptor ranks;
    ranks.class_hi = n;
    const runtime::DriveSource src{
        ranks, runtime::pick_grain(std::max<i64>(n, 1), threads), {}, leaf,
        {}, {}};
    runtime::drive(src, {threads, {false, false, false}}, pool);
  }

  // Pass 2: union every toucher of a written cell with that cell's first
  // toucher, reading the cells pass 1 resolved; the first toucher's claim
  // counts the cell. Union-by-smaller-root keeps each root at its
  // component's lowest rank, i.e. its first member. The union-find forest
  // is allocated at the first union, so a conflict-free space never
  // builds it.
  std::vector<i64> parent;
  i64 written_cells = 0;
  for (i64 it = 0; it < n; ++it) {
    const i64* rec = records.data() + it * static_cast<i64>(record_width);
    for (const FlatAccess* fa : tracked_cols) {
      i64& slot = table[static_cast<std::size_t>(fa->base + rec[fa->col])];
      if (slot == kNeverWritten) continue;
      if (slot == kNoToucher) {
        slot = it;
        ++written_cells;
        continue;
      }
      if (slot == it) continue;  // this iteration touched the cell already
      if (parent.empty()) {
        parent.resize(static_cast<std::size_t>(n));
        std::iota(parent.begin(), parent.end(), i64{0});
      }
      i64 a = uf_find(parent, slot);
      i64 b = uf_find(parent, it);
      if (a != b) parent[static_cast<std::size_t>(std::max(a, b))] =
          std::min(a, b);
    }
  }
  InspectStats& st = part.stats_;
  st.iterations = n;
  st.written_cells = written_cells;
  std::vector<i64>().swap(table);
  if (parent.empty()) {
    // Conflict-free: every component is a singleton, so the partition is
    // the identity and DynamicPartition answers from the rank alone. Slot
    // order is rank order: the rows stay, and the records' first `width`
    // columns are the resolved table (the rest are dropped in place).
    if (record_width > width) {
      for (i64 it = 1; it < n; ++it)
        std::memmove(records.data() + it * static_cast<i64>(width),
                     records.data() + it * static_cast<i64>(record_width),
                     width * sizeof(i64));
      records.resize(static_cast<std::size_t>(n) * width);
      records.shrink_to_fit();
    }
    part.resolved_ = std::move(records);
    st.classes = n;
    st.max_component = n > 0 ? 1 : 0;
    st.inspect_ns = now_ns() - t0;
    return part;
  }

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

  // Slot order, a counting sort by class that keeps members in ascending
  // rank order: one more sweep turns each class id into its rank's slot.
  // offsets_[c] serves as class c's fill cursor, which leaves it at the
  // start of class c + 1; one shift restores the starts.
  std::vector<i64>& slot = parent;
  part.offsets_.assign(static_cast<std::size_t>(num_classes) + 1, 0);
  for (i64 c : slot) ++part.offsets_[static_cast<std::size_t>(c) + 1];
  for (std::size_t k = 1; k < part.offsets_.size(); ++k)
    part.offsets_[k] += part.offsets_[k - 1];
  for (i64& c : slot) c = part.offsets_[static_cast<std::size_t>(c)]++;
  std::copy_backward(part.offsets_.begin(), part.offsets_.end() - 1,
                     part.offsets_.end());
  part.offsets_.front() = 0;

  // Scatter into slot order, freeing each source before the next buffer is
  // allocated, so at most three n-sized buffers are live: the rank-order
  // rows go first (the odometer that made them rebuilds each rank's
  // coordinates below), then the records once their resolved offsets have
  // moved, then the slots.
  std::vector<i64>().swap(part.coords_);
  part.resolved_.resize(static_cast<std::size_t>(n) * width);
  const i64 w = static_cast<i64>(width);
  for (i64 it = 0; it < n; ++it)
    std::copy_n(records.data() + it * static_cast<i64>(record_width), w,
                part.resolved_.data() + slot[static_cast<std::size_t>(it)] * w);
  std::vector<i64>().swap(records);
  part.coords_.resize(static_cast<std::size_t>(n) * depth);
  {
    const std::size_t outer = static_cast<std::size_t>(depth) - 1;
    const i64* m = slot.data();
    nest.for_each_inner_range([&](const Vec& iter, i64 lo, i64 hi) {
      for (i64 v = lo; v <= hi; ++v) {
        i64* row = part.coords_.data() + *m++ * depth;
        std::copy_n(iter.data(), outer, row);
        row[outer] = v;
      }
    });
  }

  st.classes = num_classes;
  for (std::size_t c = 0; c + 1 < part.offsets_.size(); ++c) {
    const i64 sz = part.offsets_[c + 1] - part.offsets_[c];
    st.max_component = std::max(st.max_component, sz);
    if (sz >= 2) {
      ++st.chains;
      st.dependent_iterations += sz;
    }
  }
  st.inspect_ns = now_ns() - t0;
  return part;
}

ProvenStore inspect(const loopir::LoopNest& nest, exec::ArrayStore& store,
                    DynamicPartition& out, std::size_t threads,
                    ThreadPool* pool) {
  out = inspect(nest, store, threads, pool);
  return ProvenStore(store, out);
}

}  // namespace vdep::inspect
