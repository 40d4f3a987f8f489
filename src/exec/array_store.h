// Dense storage for the arrays of a loop nest.
//
// Values are int64 (the interpreter is exact); every access is bounds
// checked against the declared shape. Stores are value types — copy one to
// replay a nest from the same initial state.
//
// Buffers use an allocator whose default-construct is a no-op, so resize()
// maps pages without writing them. The store's own zeroing pass performs
// the first touch — and on Linux the first touch decides which NUMA node a
// page lands on. With Placement::kFirstTouch the zeroing is parallel and
// pinned: worker k touches the k-th contiguous slice, the same slice the
// descriptor driver's position-ordered pre-seed hands pinned worker k, so
// each worker's pages start on its own node. Values are identical either
// way; only page placement changes.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "loopir/nest.h"

namespace vdep::exec {

using intlin::i64;
using intlin::Vec;

/// std::allocator whose value-initialization is skipped: resize() leaves
/// the new elements' pages untouched (the kernel maps them lazily), so the
/// thread that later zeroes a page is its true first toucher.
template <class T>
struct UninitAlloc : std::allocator<T> {
  UninitAlloc() = default;
  template <class U>
  UninitAlloc(const UninitAlloc<U>&) noexcept {}
  template <class U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
  friend bool operator==(const UninitAlloc&, const UninitAlloc&) {
    return true;
  }
};

class ArrayStore {
 public:
  /// Who zero-initializes the arrays' pages, i.e. where they land.
  enum class Placement {
    kSerial,      ///< the constructing thread touches everything
    kFirstTouch,  ///< parallel pinned touch, one slice per topology worker
  };

  /// One array's backing buffer. Kernel/inspector code holds pointers to
  /// these, so the type is part of the store's interface.
  using Buffer = std::vector<i64, UninitAlloc<i64>>;

  /// Allocates every array declared by the nest, zero-initialized.
  /// `touch_threads` sizes the kFirstTouch pass (0 = one per online cpu);
  /// pass the worker count the arrays will later be run with so the touch
  /// slices line up with the driver's pre-seeded slices. Small buffers
  /// (< 64 KiB) and hosts without affinity support fall back to serial.
  explicit ArrayStore(const loopir::LoopNest& nest,
                      Placement placement = Placement::kSerial,
                      std::size_t touch_threads = 0);

  /// Deterministic non-trivial fill: element k of array a gets
  /// (k * 2654435761 + hash(name)) % 199 - 99. Pages were already placed
  /// by the construction-time touch; this pass does not move them.
  void fill_pattern();

  i64 read(const std::string& array, const Vec& coords) const;
  void write(const std::string& array, const Vec& coords, i64 value);

  bool operator==(const ArrayStore& o) const { return data_ == o.data_; }

  /// Order-independent content digest (diagnostics).
  i64 checksum() const;

  const Buffer& raw(const std::string& array) const;
  /// Mutable buffer access for compiled kernels (exec/compiled.h).
  Buffer& raw_mutable(const std::string& array);

 private:
  struct Slot {
    loopir::ArrayDecl decl;
    Buffer data;
    bool operator==(const Slot& o) const {
      return decl.name == o.decl.name && data == o.data;
    }
  };
  const Slot& slot(const std::string& array) const;
  Slot& slot(const std::string& array);
  void zero_all(Placement placement, std::size_t touch_threads);

  std::map<std::string, Slot> data_;
};

}  // namespace vdep::exec
