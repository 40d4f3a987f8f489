// vdep::Compiler — the staged, cacheable entry point of the library.
//
//   vdep::Compiler compiler;                       // one session, any thread
//   auto loop = compiler.compile(nest);            // Expected<CompiledLoop>
//   if (!loop) { /* loop.error().kind / .message */ }
//   loop->analysis();                              // PDM + rank  (cached)
//   loop->plan();                                  // transform + legality
//   loop->codegen(vdep::CodegenOptions{});         // lazy, memoized C
//   loop->check(vdep::ExecPolicy{}.threads(8));    // run + verify, any bounds
//
// compile() fingerprints the nest's structure (bounds excluded) and serves
// the analysis + plan from a thread-safe sharded LRU cache: the paper's
// pipeline is a function of subscript matrices only, so one cold compile
// amortizes over every request size of the same kernel. The second
// overload compiles DSL text, surfacing dsl::ParseError as an inspectable
// Expected error with line and column instead of an exception.
#pragma once

#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "api/compiled_loop.h"
#include "api/plan_cache.h"

namespace vdep {

/// Builder-style session options (replaces scattered constructor flags).
class CompileOptions {
 public:
  CompileOptions& cache_capacity(std::size_t n) { cache_capacity_ = n; return *this; }
  CompileOptions& cache_shards(std::size_t n) { cache_shards_ = n; return *this; }
  CompileOptions& validate(bool v) { validate_ = v; return *this; }
  CompileOptions& pool_threads(std::size_t n) { pool_threads_ = n; return *this; }
  /// Allow compile-side spans (parse, fingerprint, cache probe, analysis,
  /// planning) into the global obs::TraceRecorder when it is enabled.
  CompileOptions& trace(bool v) { trace_ = v; return *this; }
  /// Same gate for compile-side counters (cache hits/misses, compiles).
  CompileOptions& metrics(bool v) { metrics_ = v; return *this; }
  /// On-disk artifact cache root for plans (and, through ExecPolicy's
  /// JitOptions, kernels); "" = $VDEP_CACHE_DIR. Plans loaded from disk
  /// re-prove their Theorem-1 legality certificate before use.
  CompileOptions& disk_cache(std::string dir) { disk_cache_dir_ = std::move(dir); return *this; }
  /// Master switch for the disk cache (default on; only engages when a
  /// directory is configured here or via $VDEP_CACHE_DIR).
  CompileOptions& disk_cache_enabled(bool v) { disk_cache_enabled_ = v; return *this; }

  std::size_t cache_capacity() const { return cache_capacity_; }
  std::size_t cache_shards() const { return cache_shards_; }
  bool validate() const { return validate_; }
  /// 0 = default_worker_count().
  std::size_t pool_threads() const { return pool_threads_; }
  bool trace() const { return trace_; }
  bool metrics() const { return metrics_; }
  const std::string& disk_cache() const { return disk_cache_dir_; }
  bool disk_cache_enabled() const { return disk_cache_enabled_; }

 private:
  std::size_t cache_capacity_ = 256;
  std::size_t cache_shards_ = 8;
  bool validate_ = true;  ///< run LoopNest::validate() before analysis
  std::size_t pool_threads_ = 0;  ///< session pool size; 0 = default
  bool trace_ = true;
  bool metrics_ = true;
  std::string disk_cache_dir_;
  bool disk_cache_enabled_ = true;
};

class Compiler {
 public:
  explicit Compiler(CompileOptions opts = {});

  /// Analyzes the nest (or serves the plan from cache) and returns a
  /// shareable staged handle. Thread-safe; const because a session is
  /// meant to be shared across request threads.
  Expected<CompiledLoop> compile(const loopir::LoopNest& nest) const;

  /// Parses mini-DSL source, then compiles. Parse failures come back as
  /// ErrorKind::kParse with 1-based line/column set.
  Expected<CompiledLoop> compile(const std::string& dsl_source) const;

  /// Batch compile: fingerprints every nest first and runs the analysis
  /// pipeline once per *unique structure* — N requests sharing a structure
  /// cost one Algorithm 1 and one cache probe, not N. On failure the error
  /// carries the 0-based index of the first failing nest (ApiError::index);
  /// every other nest is still compiled and cached, so retrying without
  /// the bad entry is all hits.
  Expected<std::vector<CompiledLoop>> compile_all(
      std::span<const loopir::LoopNest> nests) const;

  /// The session's lazily created ThreadPool (CompileOptions::pool_threads
  /// workers), shared by every execute_batch/execute call that passes it:
  /// one long-lived worker set serving all requests of the session instead
  /// of a fork/join per call. Thread-safe.
  ThreadPool& pool() const;

  CacheStats cache_stats() const { return cache_->stats(); }
  void clear_cache() { cache_->clear(); }
  const CompileOptions& options() const { return opts_; }

 private:
  std::shared_ptr<const PlanArtifact> analyze_and_insert(
      const loopir::LoopNest& nest, Fingerprint fp) const;

  CompileOptions opts_;
  std::unique_ptr<PlanCache> cache_;
  mutable std::once_flag pool_once_;
  mutable std::unique_ptr<ThreadPool> pool_;
};

}  // namespace vdep
