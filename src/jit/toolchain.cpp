#include "jit/toolchain.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <sstream>

#include "analysis/kernel_verifier.h"
#include "analysis/loop_partition.h"
#include "api/fingerprint.h"
#include "cache/disk_cache.h"
#include "codegen/emit_c.h"
#include "codegen/rewrite.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/error.h"
#include "support/keyenc.h"

#if defined(__unix__) || defined(__APPLE__)
#include <dlfcn.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>
#define VDEP_JIT_POSIX 1
#endif

namespace vdep::jit {

namespace fs = std::filesystem;

namespace {

constexpr const char* kEntryName = "vdep_range_kernel";
/// The row kernel's entry symbol; a library whose entry has this name
/// loads as a row kernel (NativeKernel::row_kernel()). Its third argument
/// is the resolved-subscript table (codegen::emit_c_row_kernel); the name
/// changes whenever that argument's meaning does, so a library built for
/// another meaning (the earlier "vdep_row_kernel" took slot-to-rank
/// members there) is never called with this one.
constexpr const char* kRowEntryName = "vdep_resolved_row_kernel";

/// True when `path` names an existing regular file this process may exec.
bool is_executable(const fs::path& path) {
  std::error_code ec;
  if (!fs::is_regular_file(path, ec)) return false;
#ifdef VDEP_JIT_POSIX
  return ::access(path.c_str(), X_OK) == 0;
#else
  return false;
#endif
}

/// Resolves a driver name against $PATH (no shell involved).
std::optional<std::string> find_on_path(const std::string& name) {
  if (name.find('/') != std::string::npos) {
    return is_executable(name) ? std::optional<std::string>(name)
                               : std::nullopt;
  }
  const char* path = std::getenv("PATH");
  if (!path) return std::nullopt;
  std::istringstream dirs(path);
  std::string dir;
  while (std::getline(dirs, dir, ':')) {
    // POSIX treats an empty PATH entry ("::", a leading/trailing ':') as
    // the current directory, and relative entries resolve against it too.
    // Executing a compiler picked up from the CWD is a classic planting
    // vector and never what a library user means — absolute entries only.
    if (dir.empty() || dir[0] != '/') continue;
    fs::path candidate = fs::path(dir) / name;
    if (is_executable(candidate)) return candidate.string();
  }
  return std::nullopt;
}

/// Single-quotes `s` for /bin/sh.
std::string shell_quote(const std::string& s) {
  std::string out = "'";
  for (char c : s) {
    if (c == '\'') out += "'\\''";
    else out += c;
  }
  out += "'";
  return out;
}

std::string read_file(const fs::path& p, std::size_t max_bytes) {
  std::ifstream in(p);
  std::ostringstream os;
  os << in.rdbuf();
  std::string s = os.str();
  if (s.size() > max_bytes) s.resize(max_bytes);
  return s;
}

/// A fresh private directory under `base` (mkdtemp when available).
Expected<std::string> make_work_dir(const std::string& base) {
  std::error_code ec;
  fs::path root = base.empty() ? fs::temp_directory_path(ec) : fs::path(base);
  if (ec) return ApiError{ErrorKind::kUnsupported,
                          "jit: no usable temp directory: " + ec.message()};
  fs::create_directories(root, ec);
#ifdef VDEP_JIT_POSIX
  std::string templ = (root / "vdep-jit-XXXXXX").string();
  std::vector<char> buf(templ.begin(), templ.end());
  buf.push_back('\0');
  if (!::mkdtemp(buf.data()))
    return ApiError{ErrorKind::kUnsupported,
                    "jit: mkdtemp failed under " + root.string()};
  // Stamp the owner so sweep_stale_work_dirs can tell a crashed process's
  // leftover from a live compile in another process.
  std::ofstream pid(fs::path(buf.data()) / "owner.pid");
  pid << ::getpid() << '\n';
  return std::string(buf.data());
#else
  return ApiError{ErrorKind::kUnsupported,
                  "jit: native kernels need a POSIX host"};
#endif
}

}  // namespace

std::string JitOptions::memo_key() const {
  // compiler and extra_flags are free-form caller text: length-prefixed
  // (support/keyenc.h) so {compiler:"x;flags=y"} and {compiler:"x",
  // extra_flags:"y;flags="} cannot collide onto one memo entry.
  std::string key = "cc=";
  keyenc::append_field(&key, compiler);
  key += ";flags=";
  keyenc::append_field(&key, extra_flags);
  key += ";keep=";
  key += keep_artifacts ? '1' : '0';
  key += ";part=";
  key += partition ? '1' : '0';
  key += ";fault=";
  key += inject_partition_fault ? '1' : '0';
  return key;
}

std::optional<std::string> discover_toolchain(const std::string& preferred) {
  if (!preferred.empty()) return find_on_path(preferred);
  if (const char* env = std::getenv("VDEP_CC"); env && *env)
    if (auto cc = find_on_path(env)) return cc;
  for (const char* name : {"cc", "gcc", "clang"})
    if (auto cc = find_on_path(name)) return cc;
  return std::nullopt;
}

std::string toolchain_identity(const std::string& cc_path) {
#ifdef VDEP_JIT_POSIX
  // Memoized per (path, mtime, size): the --version subprocess runs once
  // per distinct driver file, and a rewritten driver (upgrade, or a test
  // swapping a wrapper script) re-probes instead of reusing a stale digest.
  struct Identity {
    std::time_t mtime = 0;
    std::int64_t size = -1;
    std::string id;
  };
  static std::mutex mu;
  static std::map<std::string, Identity> memo;

  struct stat st{};
  std::time_t mtime = 0;
  std::int64_t size = -1;
  if (::stat(cc_path.c_str(), &st) == 0) {
    mtime = st.st_mtime;
    size = static_cast<std::int64_t>(st.st_size);
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    auto it = memo.find(cc_path);
    if (it != memo.end() && it->second.mtime == mtime &&
        it->second.size == size)
      return it->second.id;
  }

  std::string version;
  std::string cmd = shell_quote(cc_path) + " --version 2>/dev/null";
  if (FILE* p = ::popen(cmd.c_str(), "r")) {
    char buf[512];
    std::size_t n;
    while ((n = ::fread(buf, 1, sizeof(buf), p)) > 0) version.append(buf, n);
    ::pclose(p);
  }
  std::string id;
  keyenc::append_field(&id, cc_path);
  char hex[24];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(cache::fnv1a64(version)));
  id += hex;

  std::lock_guard<std::mutex> lock(mu);
  memo[cc_path] = Identity{mtime, size, id};
  return id;
#else
  return cc_path;
#endif
}

std::size_t sweep_stale_work_dirs(const std::string& base) {
#ifndef VDEP_JIT_POSIX
  (void)base;
  return 0;
#else
  std::error_code ec;
  fs::path root = base.empty() ? fs::temp_directory_path(ec) : fs::path(base);
  if (ec) return 0;

  // Once per (process, root): the sweep is recovery work, not something
  // every ToolchainCompiler construction should re-pay.
  {
    static std::mutex mu;
    static std::set<std::string> swept;
    std::lock_guard<std::mutex> lock(mu);
    if (!swept.insert(root.string()).second) return 0;
  }

  std::size_t removed = 0;
  for (const auto& de : fs::directory_iterator(root, ec)) {
    if (!de.is_directory(ec)) continue;
    std::string name = de.path().filename().string();
    if (name.rfind("vdep-jit-", 0) != 0) continue;

    long pid = 0;
    {
      std::ifstream in(de.path() / "owner.pid");
      in >> pid;
      if (!in) pid = 0;
    }
    bool stale;
    if (pid > 0 && pid != static_cast<long>(::getpid())) {
      // kill(pid, 0) probes liveness without signalling; only ESRCH — no
      // such process — proves the owner is gone. EPERM means alive but
      // not ours: leave it.
      stale = ::kill(static_cast<pid_t>(pid), 0) == -1 && errno == ESRCH;
    } else if (pid > 0) {
      stale = false;  // our own live compile in another thread
    } else {
      // No/unreadable stamp (torn creation, an older vdep): fall back to
      // an age heuristic long past any plausible cc runtime.
      auto mtime = fs::last_write_time(de.path(), ec);
      if (ec) continue;
      stale = decltype(mtime)::clock::now() - mtime > std::chrono::hours(24);
    }
    if (stale) {
      std::error_code rm_ec;
      fs::remove_all(de.path(), rm_ec);
      if (!rm_ec) ++removed;
    }
  }
  return removed;
#endif
}

ToolchainCompiler::ToolchainCompiler(JitOptions opts)
    : opts_(std::move(opts)), cc_(discover_toolchain(opts_.compiler)) {
  // Reclaim directories leaked by processes that died mid-compile; doing
  // it at construction keeps the sweep off every compile() call while
  // still running before this compiler adds its own directories.
  sweep_stale_work_dirs(opts_.work_dir);
}

namespace {

/// The option fields that change the emitted TU or its compile line — the
/// disk-cache key's option component. compiler is covered by the toolchain
/// identity; keep_artifacts/work_dir/cache_dir only steer local lifecycle.
std::string cache_options_render(const JitOptions& o) {
  std::string r;
  keyenc::append_field(&r, o.extra_flags);
  r += o.partition ? '1' : '0';
  r += o.inject_partition_fault ? '1' : '0';
  return r;
}

/// The range-kernel TU of an affine nest: the subscript range proof, then
/// the verified steady-state partitioned kernel when JitOptions::partition
/// allows and the verifier admits it, else the clamped kernel. Records the
/// optimization flags and the partition verdict in `meta`.
Expected<std::string> emit_range_kernel(const loopir::LoopNest& original,
                                        const trans::TransformPlan& plan,
                                        const JitOptions& opts,
                                        CompileMeta& meta) {
  // The emitted kernel indexes raw buffers unchecked; refuse nests whose
  // subscripts the box proof cannot certify (they interpret instead).
  std::string source;
  try {
    exec::prove_subscript_ranges(original);
  } catch (const Error& e) {
    return ApiError{ErrorKind::kUnsupported,
                    std::string("jit: range proof failed: ") + e.what()};
  }

  // Steady-state partitioning: derive the partition, emit the split TU,
  // and let the kernel verifier decide whether it may load. Any refusal
  // — analysis overflow, a failed obligation, an injected fault — keeps
  // the clamped kernel, never blocks compilation.
  if (opts.partition && plan.num_doall > 0) {
    try {
      codegen::TransformedNest tn = codegen::rewrite_nest(original, plan);
      std::optional<analysis::LoopPartition> part;
      {
        obs::ScopedSpan span(obs::EventKind::kPartitionAnalyze,
                             /*layer_enabled=*/true, obs::Phase::kCodegen);
        part = analysis::analyze_partition(tn.nest, plan.num_doall);
        if (span.tracing() && part) {
          span.set_arg(0, part->axis);
          span.set_arg(1, static_cast<i64>(part->constraints.size()));
        }
      }
      if (part) {
        std::string psource = codegen::emit_c_partitioned_range_kernel(
            original, plan, *part, kEntryName,
            opts.inject_partition_fault);
        analysis::VerifierReport rep;
        {
          obs::ScopedSpan span(obs::EventKind::kPartitionVerify,
                               /*layer_enabled=*/true, obs::Phase::kCodegen);
          rep = analysis::verify_partitioned_kernel(
              original, tn.nest, plan.num_doall, *part, psource);
          if (span.tracing()) {
            span.set_arg(0, rep.ok ? 1 : 0);
            span.set_arg(1, static_cast<i64>(rep.failures.size()));
          }
        }
        if (rep.ok) {
          source = std::move(psource);
          meta.partitioned = true;
          meta.partition_verdict = rep.summary();
          meta.opt_flags = "-O3";
        } else {
          meta.partition_verdict = rep.summary();
        }
      } else {
        meta.partition_verdict = "rejected: partition analysis refused";
      }
    } catch (const Error& e) {
      meta.partition_verdict =
          std::string("rejected: partition pipeline error: ") + e.what();
    }
    if (!meta.partitioned && obs::MetricsRegistry::enabled())
      obs::MetricsRegistry::instance()
          .counter("vdep_partition_fallbacks_total",
                   "partitioned kernels refused (clamped fallback)")
          .inc();
  }

  if (source.empty()) {
    try {
      source = codegen::emit_c_range_kernel(original, plan, kEntryName);
    } catch (const Error& e) {
      return ApiError{ErrorKind::kUnsupported,
                      std::string("jit: emission failed: ") + e.what()};
    }
  }
  return source;
}

}  // namespace

Expected<std::shared_ptr<const NativeKernel>> ToolchainCompiler::compile(
    const loopir::LoopNest& original, const trans::TransformPlan& plan) const {
  const bool row_kernel = original.has_indirection();
  const char* entry = row_kernel ? kRowEntryName : kEntryName;
  std::string cache_key;
  std::shared_ptr<cache::DiskCache> disk =
      cache::DiskCache::resolve(opts_.cache_dir, opts_.disk_cache);
  if (disk && cc_) {
    cache_key = cache::kernel_cache_key(
        cache::build_id(), vdep::structural_fingerprint(original).key,
        vdep::bounds_render(original), cache_options_render(opts_),
        toolchain_identity(*cc_));
    std::optional<cache::KernelHit> hit;
    {
      obs::ScopedSpan span(obs::EventKind::kDiskCacheProbe,
                           /*layer_enabled=*/true, obs::Phase::kJitCompile);
      hit = disk->load_kernel(cache_key);
      if (span.tracing()) span.set_arg(0, hit ? 1 : 0);
    }
    // A library whose entry is not the one this nest kind runs was built
    // for another kernel ABI (an older row kernel under a build id that
    // did not change, such as an out-of-git "dev" build): a miss, rebuilt
    // below, and the store overwrites it.
    if (hit && hit->meta.ok && hit->meta.entry != entry) hit.reset();
    if (hit) {
      if (!hit->meta.ok)
        // A cached deterministic failure: same TU + flags + toolchain will
        // fail the same way — degrade now without paying the cc run.
        return ApiError{static_cast<ErrorKind>(hit->meta.error_kind),
                        hit->meta.error_message};
      // dlopen straight off the published .so: the mapping outlives any
      // later eviction's unlink, exactly like the default temp-dir flow.
      obs::ScopedSpan dl(obs::EventKind::kDlopen, /*layer_enabled=*/true,
                         obs::Phase::kJitCompile);
      void* handle = dlopen(hit->so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
      auto fn = handle ? reinterpret_cast<NativeKernel::EntryFn>(
                             dlsym(handle, hit->meta.entry.c_str()))
                       : nullptr;
      if (fn) {
        return std::shared_ptr<const NativeKernel>(new NativeKernel(
            handle, fn, row_kernel, std::move(hit->meta.arrays),
            std::move(hit->meta.source),
            // Cache hits honour the keep_artifacts contract: default
            // lifecycle reports no on-disk path (the cache file is an
            // internal detail), keep points at the cached object.
            opts_.keep_artifacts ? hit->so_path : std::string(),
            hit->meta.partitioned, std::move(hit->meta.verdict)));
      }
      if (handle) dlclose(handle);
      // Undlopenable artifact (e.g. cross-host copy): fall through and
      // rebuild; the store below overwrites the bad entry.
    }
  }

  std::string source;
  CompileMeta meta;
  meta.cache_key = std::move(cache_key);
  {
    obs::ScopedSpan emit_span(obs::EventKind::kCodegen, /*layer_enabled=*/true,
                              obs::Phase::kCodegen);
    if (row_kernel) {
      // An indirect nest's row kernel has no build-time range proof: its
      // subscripts depend on index-array contents, and inspect::inspect()
      // checks every access of every row before a row kernel may run them.
      try {
        source = codegen::emit_c_row_kernel(original, kRowEntryName);
      } catch (const Error& e) {
        return ApiError{ErrorKind::kUnsupported,
                        std::string("jit: emission failed: ") + e.what()};
      }
    } else {
      Expected<std::string> range = emit_range_kernel(original, plan, opts_, meta);
      if (!range) return range.error();
      source = std::move(*range);
    }
  }
  std::vector<std::string> order;
  for (const loopir::ArrayDecl& a : original.arrays()) order.push_back(a.name);
  return compile_source(source, entry, std::move(order), std::move(meta));
}

Expected<std::shared_ptr<const NativeKernel>> ToolchainCompiler::compile_source(
    const std::string& c_source, const std::string& entry_name,
    std::vector<std::string> array_order, CompileMeta meta) const {
#ifndef VDEP_JIT_POSIX
  (void)c_source; (void)entry_name; (void)array_order; (void)meta;
  return ApiError{ErrorKind::kUnsupported,
                  "jit: native kernels need a POSIX host (dlopen)"};
#else
  if (!cc_)
    return ApiError{ErrorKind::kUnsupported,
                    "jit: no C toolchain found (set $VDEP_CC or put cc/gcc/"
                    "clang on PATH)"};

  Expected<std::string> dir = make_work_dir(opts_.work_dir);
  if (!dir) return dir.error();
  fs::path work(*dir);
  fs::path c_path = work / "kernel.c";
  fs::path so_path = work / "kernel.so";
  fs::path log_path = work / "cc.log";
  {
    std::ofstream out(c_path);
    out << c_source;
    if (!out) {
      return ApiError{ErrorKind::kUnsupported,
                      "jit: cannot write " + c_path.string()};
    }
  }

  // -fwrapv: suite kernels (e.g. uniform_wavefront) overflow i64 at large
  // sizes, and the C optimizer must not exploit that UB, so the affine
  // range kernels wrap in two's complement. They are the only wrapping
  // backend: the interpreter, the postfix CompiledKernel and the row
  // kernels (checked arithmetic, -1 on overflow) all fail kOverflow on the
  // same inputs.
  std::string cmd = shell_quote(*cc_) + " " + meta.opt_flags +
                    " -fwrapv -fPIC -shared -x c " +
                    shell_quote(c_path.string()) + " -o " +
                    shell_quote(so_path.string());
  if (!opts_.extra_flags.empty()) cmd += " " + opts_.extra_flags;
  cmd += " 2> " + shell_quote(log_path.string());

  int rc;
  {
    obs::ScopedSpan cc_span(obs::EventKind::kCcSubprocess,
                            /*layer_enabled=*/true, obs::Phase::kJitCompile);
    rc = std::system(cmd.c_str());
  }
  if (obs::MetricsRegistry::enabled()) {
    obs::MetricsRegistry::instance()
        .counter("vdep_jit_builds_total", "toolchain cc invocations")
        .inc();
    if (meta.partitioned)
      obs::MetricsRegistry::instance()
          .counter("vdep_partition_kernels_total",
                   "verified steady-state partitioned kernels built")
          .inc();
  }
  bool ok = rc != -1 && WIFEXITED(rc) && WEXITSTATUS(rc) == 0;
  if (!ok) {
    std::string log = read_file(log_path, 2000);
    std::error_code ec;
    if (!opts_.keep_artifacts) fs::remove_all(work, ec);
    ApiError err{ErrorKind::kUnsupported,
                 "jit: toolchain '" + *cc_ + "' failed: " + log};
    // A clean nonzero exit is deterministic for this (TU, flags, driver)
    // key — publish it so cold processes fail fast instead of re-running
    // a doomed cc. A launch failure or a signal (OOM kill, ^C) is not.
    if (!meta.cache_key.empty() && rc != -1 && WIFEXITED(rc)) {
      if (auto disk = cache::DiskCache::resolve(opts_.cache_dir,
                                                opts_.disk_cache))
        disk->store_kernel_failure(meta.cache_key,
                                   static_cast<int>(err.kind), err.message);
    }
    return err;
  }

  obs::ScopedSpan dlopen_span(obs::EventKind::kDlopen, /*layer_enabled=*/true,
                              obs::Phase::kJitCompile);
  void* handle = dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!handle) {
    const char* err = dlerror();
    std::error_code ec;
    if (!opts_.keep_artifacts) fs::remove_all(work, ec);
    return ApiError{ErrorKind::kUnsupported,
                    std::string("jit: dlopen failed: ") + (err ? err : "")};
  }
  auto fn = reinterpret_cast<NativeKernel::EntryFn>(
      dlsym(handle, entry_name.c_str()));
  if (!fn) {
    dlclose(handle);
    std::error_code ec;
    if (!opts_.keep_artifacts) fs::remove_all(work, ec);
    return ApiError{ErrorKind::kInternal,
                    "jit: entry symbol '" + entry_name + "' not found"};
  }

  // Publish into the disk cache before the workdir goes away — the next
  // process (or the next session in this one) skips cc entirely.
  if (!meta.cache_key.empty()) {
    if (auto disk =
            cache::DiskCache::resolve(opts_.cache_dir, opts_.disk_cache)) {
      cache::KernelMeta km;
      km.entry = entry_name;
      km.arrays = array_order;
      km.partitioned = meta.partitioned;
      km.verdict = meta.partition_verdict;
      km.source = c_source;
      disk->store_kernel(meta.cache_key, std::move(km), so_path.string());
    }
  }

  std::string kept_path;
  if (opts_.keep_artifacts) {
    kept_path = so_path.string();
  } else {
    // The mapping survives the unlink (POSIX); nothing is left on disk.
    std::error_code ec;
    fs::remove_all(work, ec);
  }
  return std::shared_ptr<const NativeKernel>(new NativeKernel(
      handle, fn, entry_name == kRowEntryName, std::move(array_order),
      c_source, kept_path,
      meta.partitioned, std::move(meta.partition_verdict)));
#endif
}

}  // namespace vdep::jit
