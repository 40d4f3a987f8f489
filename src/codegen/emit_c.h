// C source emission.
//
// Every affine C target is one range-kernel frame (prelude, array macros,
// the entry below, the clamped path): the JIT's clamped kernel, the
// partitioned kernel (the same frame with a steady-state fast path in
// front of the clamped path, its generic path), and the standalone
// programs CompiledLoop::codegen() prints (the clamped kernel over static
// buffers, a driver and an optional main). The loop structure is Theorem
// 2's: outer DOALL loops, then a loop over residue classes scanned by the
// paper's strided loop (3.2). Indirect nests get only the row kernel.
//
// The standalone programs' main() fills every array with a deterministic
// pattern, runs the kernel and prints a checksum — the integration tests
// compile original and transformed versions with the C toolchain and
// require identical checksums.
#pragma once

#include <string>

#include "analysis/loop_partition.h"
#include "codegen/rewrite.h"

namespace vdep::codegen {

struct EmitOptions {
  bool openmp = true;        ///< annotate the driver's parallel loop
  bool with_main = true;     ///< emit a checksum-printing main()
  std::string kernel_name = "kernel";
};

/// Standalone C99 program for the original nest: the clamped range kernel
/// (entry `<kernel_name>_range`) over the nest as written, one
/// `static int64_t <A>_data[]` per array, `void <kernel_name>(void)`
/// calling the kernel over the whole space, and (with_main) main().
/// Throws PreconditionError for an indirect nest.
std::string emit_c_original(const loopir::LoopNest& nest,
                            const EmitOptions& opts = {});

/// The same program over `original` rewritten under `plan`. The driver
/// calls the kernel once per point of the outermost DOALL level, else once
/// per residue class when there are several; `openmp` annotates that loop
/// with `#pragma omp parallel for` (Lemma 1 / Theorem 2). Throws
/// PreconditionError for an indirect nest.
std::string emit_c_transformed(const loopir::LoopNest& original,
                               const trans::TransformPlan& plan,
                               const EmitOptions& opts = {});

/// Self-contained C99 TU for the JIT backend: one entry point
///
///   int64_t <entry>(int64_t** arrays,
///                   const int64_t* lo, const int64_t* hi, int64_t ndims,
///                   int64_t class_lo, int64_t class_hi);
///
/// executing every iteration of one runtime::TaskDescriptor iteration box
/// of `plan` natively — each of the first `ndims` transformed DOALL-prefix
/// indices restricted to its inclusive [lo[k], hi[k]] range (dimensions
/// beyond ndims, and every dimension when the plan has no DOALL loop, scan
/// their full bounds), then the Theorem-2 strided class scan for classes in
/// [class_lo, class_hi) — returning the iteration count. Arrays arrive as
/// raw row-major int64 buffers in nest.arrays() declaration order. No
/// main(), no OpenMP: the streaming runtime provides the parallelism by
/// splitting descriptor boxes (runtime/task.h).
std::string emit_c_range_kernel(const loopir::LoopNest& original,
                                const trans::TransformPlan& plan,
                                const std::string& entry_name);

/// Steady-state partitioned variant of emit_c_range_kernel: the same TU
/// with a fast path ahead of the clamped path, so the same entry signature
/// and observable behavior for any box. When the caller boxes exactly the
/// plan's DOALL prefix (`ndims == num_doall`), the fast path clamps the box
/// to the static interval hull once, splits the partition axis into
/// prologue / steady / epilogue per `part`'s clip constraints, and scans
/// the steady region with clamp-free, box-slice loop headers
/// (`/* vdep:region ... */` and `/* vdep:scan ... */` markers delimit the
/// regions for analysis::KernelVerifier). Any other ndims falls through to
/// the clamped path, the kernel's generic path. `inject_fault` plants a
/// vdep_min use inside the steady region so tests can exercise verifier
/// rejection end-to-end.
std::string emit_c_partitioned_range_kernel(const loopir::LoopNest& original,
                                            const trans::TransformPlan& plan,
                                            const analysis::LoopPartition& part,
                                            const std::string& entry_name,
                                            bool inject_fault = false);

/// Self-contained C99 TU for an indirect nest's inspector leaves (the
/// row kernel): one entry point with the range kernel's argument types,
///
///   int64_t <entry>(int64_t** arrays, const int64_t* rows,
///                   const int64_t* res, int64_t depth,
///                   int64_t m_lo, int64_t m_hi);
///
/// executing the original body at every iteration of member slots
/// [m_lo, m_hi) in slot order: slot m's coordinates are the `depth` values
/// at rows + m * depth, and its K = nest.indirect_refs().size() resolved
/// offsets sit at res + m * K (inspect::DynamicPartition::rows() and
/// resolved()). Indirect reference j renders as
/// `vdep_buf_a[vdep_res[vdep_m * K + j]]`: no index array is read. Affine
/// references index their buffers through the declared-bounds macros.
/// Body arithmetic is checked (__builtin_{add,sub,mul}_overflow): on
/// overflow the kernel returns -1 before storing that statement; otherwise
/// it returns m_hi - m_lo. Subscripts are not checked — every access must
/// already be in range and every offset resolved against the same index
/// contents, which inspect::inspect() and DynamicPartition::prove()
/// establish. Arrays arrive as raw row-major int64 buffers in
/// nest.arrays() declaration order.
std::string emit_c_row_kernel(const loopir::LoopNest& nest,
                              const std::string& entry_name);

}  // namespace vdep::codegen
