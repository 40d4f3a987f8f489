#include "api/compiler.h"

#include <map>

#include "cache/disk_cache.h"
#include "dsl/parser.h"
#include "intlin/mat.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/error.h"
#include "support/thread_pool.h"
#include "trans/legality.h"

namespace vdep {

namespace {

void count_compile(const char* name) {
  if (!obs::MetricsRegistry::enabled()) return;
  obs::MetricsRegistry::instance().counter(name).inc();
}

}  // namespace

Compiler::Compiler(CompileOptions opts)
    : opts_(opts),
      cache_(std::make_unique<PlanCache>(opts.cache_capacity(),
                                         opts.cache_shards())) {}

std::shared_ptr<const PlanArtifact> Compiler::analyze_and_insert(
    const loopir::LoopNest& nest, Fingerprint fp) const {
  // Before the full pipeline: another process may have analyzed this
  // structure already. The stored legality bit is never trusted — the
  // Theorem-1 certificate is re-proved on the loaded PDM + T, so a disk
  // hit gives exactly the guarantee a fresh analysis would.
  std::shared_ptr<cache::DiskCache> disk = cache::DiskCache::resolve(
      opts_.disk_cache(), opts_.disk_cache_enabled());
  std::string disk_key;
  if (disk) {
    disk_key = cache::plan_cache_key(cache::build_id(), fp.key);
    std::optional<cache::PlanPayload> hit;
    {
      obs::ScopedSpan span(obs::EventKind::kDiskCacheProbe, opts_.trace());
      hit = disk->load_plan(disk_key);
      span.set_arg(0, hit ? 1 : 0);
    }
    if (hit &&
        (!hit->plan.legal ||
         trans::is_legal_transform(hit->analysis.pdm.matrix(),
                                   hit->plan.transform.t))) {
      count_compile("vdep_plan_disk_hits_total");
      return cache_->insert(std::make_shared<PlanArtifact>(
          std::move(fp), std::move(hit->analysis), std::move(hit->plan)));
    }
  }

  // Cold path: the full pipeline. Everything below depends on the
  // structure only, so the artifact is valid for this fingerprint at any
  // bounds.
  count_compile("vdep_compiles_total");
  if (nest.has_indirection()) {
    // Non-affine nest: the PDM is undefined (subscripts depend on runtime
    // array contents), so there is no static plan to derive. Record an
    // identity "plan" carrying zero DOALL loops and one class; execution
    // routes through the runtime inspector, which partitions per-execute
    // from the actual index-array contents.
    obs::ScopedSpan span(obs::EventKind::kAnalyze, opts_.trace(),
                         obs::Phase::kAnalyze);
    LoopAnalysis analysis;
    analysis.affine = false;
    analysis.rank = 0;
    analysis.all_uniform = false;
    LoopPlan plan;
    plan.transform.depth = nest.depth();
    plan.transform.t = intlin::Mat::identity(nest.depth());
    plan.transform.transformed_pdm = intlin::Mat(0, nest.depth());
    plan.transform.num_doall = 0;
    plan.transform.partition_classes = 1;
    plan.doall_loops = 0;
    plan.partition_classes = 1;
    plan.legal = true;
    if (disk) disk->store_plan(disk_key, analysis, plan);
    return cache_->insert(std::make_shared<PlanArtifact>(
        std::move(fp), std::move(analysis), std::move(plan)));
  }
  LoopAnalysis analysis;
  {
    obs::ScopedSpan span(obs::EventKind::kAnalyze, opts_.trace(),
                         obs::Phase::kAnalyze);
    analysis.pdm = dep::compute_pdm(nest);
    analysis.rank = analysis.pdm.rank();
    analysis.all_uniform = analysis.pdm.all_uniform();
  }

  LoopPlan plan;
  {
    obs::ScopedSpan span(obs::EventKind::kPlan, opts_.trace(),
                         obs::Phase::kPlan);
    plan.transform = trans::plan_transform(analysis.pdm);
    plan.doall_loops = plan.transform.num_doall;
    plan.partition_classes = plan.transform.partition_classes;
    // The certificate is re-derived from Theorem 1, not trusted from plan
    // construction: a cached plan is either certified or never exists.
    plan.legal =
        trans::is_legal_transform(analysis.pdm.matrix(), plan.transform.t);
  }
  if (!plan.legal)
    throw InternalError(
        "plan_transform produced a transformation that fails the "
        "Theorem 1 legality check");

  if (disk) disk->store_plan(disk_key, analysis, plan);
  return cache_->insert(std::make_shared<PlanArtifact>(
      std::move(fp), std::move(analysis), std::move(plan)));
}

Expected<CompiledLoop> Compiler::compile(const loopir::LoopNest& nest) const {
  return try_invoke([&]() -> CompiledLoop {
    if (opts_.validate()) nest.validate();

    Fingerprint fp;
    {
      obs::ScopedSpan span(obs::EventKind::kFingerprint, opts_.trace());
      fp = structural_fingerprint(nest);
    }
    std::shared_ptr<const PlanArtifact> art;
    {
      obs::ScopedSpan span(obs::EventKind::kCacheProbe, opts_.trace());
      art = cache_->find(fp);
      span.set_arg(0, art ? 1 : 0);
    }
    if (art) {
      count_compile("vdep_plan_cache_hits_total");
      return CompiledLoop(std::move(art), nest);
    }
    count_compile("vdep_plan_cache_misses_total");
    return CompiledLoop(analyze_and_insert(nest, std::move(fp)), nest);
  });
}

Expected<std::vector<CompiledLoop>> Compiler::compile_all(
    std::span<const loopir::LoopNest> nests) const {
  // Batch-local dedup by canonical fingerprint key: one cache probe and at
  // most one analysis per unique structure, no matter how many requests
  // share it. The map holds the batch's working set only; the session
  // cache stays the durable store.
  std::map<std::string, std::shared_ptr<const PlanArtifact>> local;
  std::vector<CompiledLoop> out;
  out.reserve(nests.size());
  ApiError first_err;
  bool failed = false;

  for (std::size_t k = 0; k < nests.size(); ++k) {
    const loopir::LoopNest& nest = nests[k];
    Expected<CompiledLoop> one = try_invoke([&]() -> CompiledLoop {
      if (opts_.validate()) nest.validate();
      Fingerprint fp = structural_fingerprint(nest);
      auto it = local.find(fp.key);
      if (it != local.end()) return CompiledLoop(it->second, nest);
      std::shared_ptr<const PlanArtifact> art = cache_->find(fp);
      if (!art) art = analyze_and_insert(nest, fp);
      local.emplace(std::move(fp.key), art);
      return CompiledLoop(std::move(art), nest);
    });
    if (one) {
      out.push_back(std::move(*one));
    } else if (!failed) {
      // Keep compiling the rest: they land in the cache, so a retry
      // without the bad entry is all hits.
      failed = true;
      first_err = one.error();
      first_err.index = static_cast<int>(k);
      first_err.message =
          "compile_all: nest " + std::to_string(k) + ": " + first_err.message;
    }
  }
  if (failed) return first_err;
  return out;
}

ThreadPool& Compiler::pool() const {
  std::call_once(pool_once_, [&] {
    std::size_t n = opts_.pool_threads()
                        ? opts_.pool_threads()
                        : default_worker_count();
    pool_ = std::make_unique<ThreadPool>(n);
  });
  return *pool_;
}

Expected<CompiledLoop> Compiler::compile(const std::string& dsl_source) const {
  Expected<loopir::LoopNest> nest = [&] {
    obs::ScopedSpan span(obs::EventKind::kParse, opts_.trace(),
                         obs::Phase::kParse);
    return dsl::try_parse_loop_nest(dsl_source);
  }();
  return nest.and_then(
      [&](const loopir::LoopNest& n) { return compile(n); });
}

}  // namespace vdep
