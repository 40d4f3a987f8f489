// JIT compilation through the system C toolchain.
//
// The pipeline per kernel: prove subscript ranges (exec/kernel.h), emit the
// range-kernel TU (codegen/emit_c.h) — or, for an indirect nest, emit the
// row-kernel TU the inspector's leaves run — write it to a private mkdtemp
// directory, invoke `cc -O2 -fPIC -shared`, dlopen the product and resolve
// the entry point into a jit::NativeKernel. Everything is Expected-based:
// a missing toolchain, a failed range proof or a compiler error all come
// back as inspectable ApiError values so callers (api/compiled_loop.cpp,
// the streaming runtime's Jit backend) can fall back to the interpreter
// scan path instead of crashing.
//
// Toolchain discovery never shells out: $VDEP_CC is honoured first (path
// or driver name), then cc/gcc/clang are searched on $PATH with an
// executable-bit check. A scrubbed PATH therefore yields a clean
// "unavailable" result, which the no-toolchain tests pin down.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "jit/native_kernel.h"
#include "support/expected.h"
#include "trans/planner.h"

namespace vdep::jit {

struct JitOptions {
  /// Compiler driver; "" = discover ($VDEP_CC, then cc/gcc/clang on PATH).
  std::string compiler;
  /// Extra flags appended verbatim to the compile line (e.g. "-march=native").
  std::string extra_flags;
  /// Directory for the temp TU/.so; "" = the system temp directory.
  std::string work_dir;
  /// Keep the generated .c and .so on disk (debugging; default unlinks
  /// them as soon as the object is mapped).
  bool keep_artifacts = false;
  /// Attempt the steady-state partitioned kernel (analysis::LoopPartition
  /// + KernelVerifier); verified kernels compile at -O3, everything else
  /// keeps the clamped -O2 kernel. Off forces the clamped kernel.
  bool partition = true;
  /// Test-only: plant a clamp artifact in the emitted steady region so the
  /// verifier must reject it and the clamped fallback must load.
  bool inject_partition_fault = false;
  /// On-disk artifact cache root; "" = $VDEP_CACHE_DIR (unset = no disk
  /// cache). A hit skips emission, the verifier and the cc subprocess
  /// entirely — the cached .so is dlopen-ed in place.
  std::string cache_dir;
  /// Master switch for the disk cache (the in-memory memos stay on).
  bool disk_cache = true;

  /// Canonical memoization key of this option set (api plan-cache memo).
  /// cache_dir/disk_cache are deliberately excluded: where an artifact is
  /// cached does not change what it is.
  std::string memo_key() const;
};

/// Absolute path of a usable C compiler driver, or nullopt. A non-empty
/// `preferred` (a path or a driver name) is authoritative: it resolves or
/// discovery fails — an explicitly requested compiler is never silently
/// substituted. Only when `preferred` is empty does the default chain run:
/// $VDEP_CC, then cc, gcc, clang looked up on $PATH.
std::optional<std::string> discover_toolchain(const std::string& preferred = "");

/// Identity string of the toolchain at `cc_path`: the resolved path plus a
/// digest of its `--version` output. Part of every kernel disk-cache key,
/// so a compiler upgrade (new version text) or switch (new path) misses
/// instead of serving a stale .so. Memoized per (path, mtime, size): a
/// rewritten driver re-probes, an unchanged one costs one stat(2).
std::string toolchain_identity(const std::string& cc_path);

/// Removes leftover vdep-jit-XXXXXX work directories under `base` whose
/// owning process is gone — a process killed between mkdtemp and cleanup
/// leaks its directory, and /tmp fills up one crash at a time. Directories
/// are stamped with the creator's PID (owner.pid); a dead owner means the
/// directory is stale. Unstamped directories (older vdep builds, torn
/// creation) are removed only after 24h of mtime quiet. Runs once per
/// (process, base); returns the number of directories removed.
std::size_t sweep_stale_work_dirs(const std::string& base);

/// How ToolchainCompiler::compile_source builds and labels one TU.
struct CompileMeta {
  /// Optimization flags ("-O2" clamped, "-O3" for verified partitioned
  /// kernels); -fwrapv -fPIC -shared are always on, and
  /// JitOptions::extra_flags follow.
  std::string opt_flags = "-O2";
  /// Stamped onto the NativeKernel (partitioned() / partition_verdict()).
  bool partitioned = false;
  std::string partition_verdict;
  /// Disk-cache key this build publishes under when it finishes (set by
  /// compile() after a cache miss; empty = don't publish).
  std::string cache_key;
};

class ToolchainCompiler {
 public:
  explicit ToolchainCompiler(JitOptions opts = {});

  /// Whether a compiler driver was found at construction.
  bool available() const { return cc_.has_value(); }
  const std::optional<std::string>& compiler_path() const { return cc_; }

  /// Full pipeline: emit, compile, load. An affine nest gets a range
  /// kernel after the subscript range proof; an indirect nest
  /// (has_indirection()) gets a row kernel, whose safety rests on the
  /// inspection preceding each run instead (NativeKernel::execute_rows).
  /// The entry symbol is private to the library (RTLD_LOCAL), so kernels
  /// never collide.
  Expected<std::shared_ptr<const NativeKernel>> compile(
      const loopir::LoopNest& original,
      const trans::TransformPlan& plan) const;

  /// Lower level: compiles an arbitrary C TU and resolves `entry_name`.
  /// `array_order` is the declaration-order buffer binding of the entry's
  /// int64_t** argument.
  Expected<std::shared_ptr<const NativeKernel>> compile_source(
      const std::string& c_source, const std::string& entry_name,
      std::vector<std::string> array_order, CompileMeta meta = {}) const;

 private:
  JitOptions opts_;
  std::optional<std::string> cc_;
};

}  // namespace vdep::jit
