// A dlopen-ed native kernel.
//
// NativeKernel wraps one shared object produced by jit::ToolchainCompiler.
// For an affine nest it is the emit_c_range_kernel TU of a plan: the
// resolved entry point runs a whole runtime::TaskDescriptor iteration box
// (N-dimensional DOALL-prefix ranges x class range) with zero
// per-iteration dispatch, which is what the streaming workers call through
// exec::RangeKernel. For an indirect nest it is the emit_c_row_kernel TU:
// the entry point (vdep_resolved_row_kernel) runs a range of an inspector
// partition's member slots (execute_rows), reading the slot-order rows and
// the resolved-subscript table, which is what the inspector's executor
// leaves call under ExecBackend::kJit. Both entry points share one C type,
// so the dlsym, the disk cache's metadata and the .so memo treat them
// alike; the entry symbol tells them apart, and a cached library is loaded
// only when its entry is the one its nest kind expects. The object
// stays mapped for the kernel's lifetime; the backing file is unlinked
// right after dlopen (POSIX keeps the mapping alive) unless
// JitOptions::keep_artifacts.
//
// Safety: both kernels index the raw buffers of an exec::BufferTable (the
// one exec::CompiledKernel runs on) without bounds checks. A range kernel
// is only ever built after exec::prove_subscript_ranges — the one proof
// exec::CompiledKernel runs too — certified every subscript's extremes
// over the iteration box; nests that fail the proof never reach the
// toolchain and fall back to the scan path. A row kernel has no
// build-time proof (its subscripts depend on index-array contents): it may
// only run rows that inspect::inspect() range-checked, with the table
// inspect() resolved from them, against a store whose index arrays equal
// the inspected ones (inspect::DynamicPartition::prove), which the
// inspector's executor enforces.
#pragma once

#include <string>
#include <vector>

#include "exec/kernel.h"

namespace vdep::jit {

using intlin::i64;

class NativeKernel final : public exec::RangeKernel {
 public:
  NativeKernel(const NativeKernel&) = delete;
  NativeKernel& operator=(const NativeKernel&) = delete;
  ~NativeKernel() override;

  /// Runs the descriptor box through the native entry point over `bufs`
  /// (its nest's table); safe concurrently for disjoint boxes.
  i64 execute_range(const exec::BufferTable& bufs,
                    const exec::IterBox& box) const override;

  /// Runs member slots [m_lo, m_hi) of an inspector partition through a
  /// row kernel (row_kernel() must hold): `rows` holds `depth` coordinates
  /// per slot, `resolved` the slot's element offset of every indirect
  /// reference (inspect::DynamicPartition::rows() / resolved()). Returns
  /// m_hi - m_lo, or -1 when body arithmetic overflowed int64 (that
  /// statement is not stored). Every access of those rows must have been
  /// range-checked, and the offsets resolved, against index arrays equal
  /// to the ones in the store of `bufs` (inspect::inspect(), prove()).
  /// Safe concurrently for slot ranges whose iterations write disjoint
  /// cells.
  i64 execute_rows(const exec::BufferTable& bufs, const i64* rows,
                   const i64* resolved, i64 depth, i64 m_lo, i64 m_hi) const;

  /// True for an indirect nest's row kernel (execute_rows), false for a
  /// range kernel (execute_range).
  bool row_kernel() const { return row_kernel_; }
  /// The emitted C of the loaded kernel (diagnostics / tests).
  const std::string& source() const { return source_; }
  /// Path of the .so; empty once unlinked (the default lifecycle).
  const std::string& library_path() const { return so_path_; }
  /// True when this is a verified steady-state partitioned kernel (-O3
  /// fast path); false for the clamped kernel (including verifier
  /// fallbacks).
  bool partitioned() const { return partitioned_; }
  /// The analysis::KernelVerifier summary that admitted this kernel — or,
  /// for a clamped fallback, the rejection that forced it. Empty when
  /// partitioning was not attempted.
  const std::string& partition_verdict() const { return verdict_; }

 private:
  friend class ToolchainCompiler;
  using EntryFn = std::int64_t (*)(std::int64_t**, const std::int64_t*,
                                   const std::int64_t*, std::int64_t,
                                   std::int64_t, std::int64_t);
  NativeKernel(void* handle, EntryFn fn, bool row_kernel,
               std::vector<std::string> arrays, std::string source,
               std::string so_path, bool partitioned, std::string verdict)
      : handle_(handle),
        fn_(fn),
        row_kernel_(row_kernel),
        arrays_(std::move(arrays)),
        source_(std::move(source)),
        so_path_(std::move(so_path)),
        partitioned_(partitioned),
        verdict_(std::move(verdict)) {}

  /// The entry's first argument: `bufs`, checked to bind this kernel's
  /// array count.
  std::int64_t** entry_buffers(const exec::BufferTable& bufs) const;

  void* handle_ = nullptr;
  EntryFn fn_ = nullptr;
  bool row_kernel_ = false;
  std::vector<std::string> arrays_;  ///< buffer bind order (declaration order)
  std::string source_;
  std::string so_path_;
  bool partitioned_ = false;
  std::string verdict_;
};

}  // namespace vdep::jit
