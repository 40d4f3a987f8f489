#include "api/batch.h"

#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "exec/compiled.h"
#include "runtime/stream_executor.h"
#include "support/error.h"

namespace vdep {

namespace {

/// Shared per-(structure, bounds) state of a batch: requests of one group
/// run the same transformed nest, so they share one StreamExecutor (one
/// rewrite + Fourier–Motzkin) and one scan-path CompiledKernel prototype
/// (one range proof), rebound per request store.
struct Group {
  std::unique_ptr<runtime::StreamExecutor> executor;
  std::unique_ptr<const exec::CompiledKernel> prototype;
  /// kJit: the group's native kernel, resolved once through the artifact
  /// memo (same structure + bounds + options -> same .so) instead of
  /// per request — the memo lookup renders the bounds key, which is
  /// worth skipping 63 times out of 64.
  std::shared_ptr<const jit::NativeKernel> native;
};

Expected<std::vector<ExecReport>> execute_batch_impl(
    std::span<const BatchRequest> requests, const ExecPolicy& policy,
    vdep::ThreadPool* pool) {
  try {
    if (policy.mode() != ExecMode::kStreaming)
      throw PreconditionError(
          "execute_batch: only ExecMode::kStreaming is supported (the batch "
          "scheduler is the streaming runtime)");
    if (policy.backend() == ExecBackend::kInspector)
      throw UnsupportedError(
          "execute_batch: the inspector backend partitions per store "
          "(classes depend on index-array contents), which the shared batch "
          "scheduler cannot express; execute each request individually");

    const std::size_t threads =
        policy.threads() ? policy.threads() : (pool ? pool->size() : 0);

    // Per-request preparation: resolve the store (caller's or an internal
    // pattern fill), the group (shared executor + scan prototype) and —
    // for the kJit backend — the native kernel out of the artifact memo,
    // where same-bounds requests share one loaded .so. Jit failures
    // degrade that request to the scan path, exactly like single
    // execute().
    std::map<std::string, Group> groups;
    // Pointer fast path over the rendered key: handles copied from one
    // CompiledLoop (the common serving shape) share the artifact and the
    // nest object, so their group resolves without rendering the bounds.
    std::map<std::pair<const void*, const void*>, Group*> by_identity;
    std::vector<std::unique_ptr<exec::ArrayStore>> owned_stores;
    std::vector<std::shared_ptr<const jit::NativeKernel>> kernels(
        requests.size());
    std::vector<exec::ArrayStore*> stores;
    stores.reserve(requests.size());
    std::vector<runtime::DriveSource> sources;
    sources.reserve(requests.size());

    for (std::size_t k = 0; k < requests.size(); ++k) {
      const BatchRequest& req = requests[k];

      if (req.loop.nest().has_indirection()) {
        ApiError err{ErrorKind::kUnsupported,
                     "execute_batch: request " + std::to_string(k) +
                         ": indirect subscripts need the runtime inspector "
                         "(single execute with ExecBackend::kInspector)"};
        err.index = static_cast<int>(k);
        return err;
      }

      exec::ArrayStore* store = req.store;
      if (!store) {
        owned_stores.push_back(std::make_unique<exec::ArrayStore>(
            req.loop.nest(), policy.placement(), threads));
        owned_stores.back()->fill_pattern();
        store = owned_stores.back().get();
      }

      std::pair<const void*, const void*> identity{&req.loop.fingerprint(),
                                                   &req.loop.nest()};
      auto [id_it, id_fresh] = by_identity.try_emplace(identity, nullptr);
      if (id_fresh) {
        std::string key = req.loop.fingerprint().key;
        key += '\n';
        key += bounds_render(req.loop.nest());
        id_it->second = &groups.try_emplace(std::move(key)).first->second;
      }
      Group& group = *id_it->second;
      bool fresh = group.executor == nullptr;
      if (fresh) {
        runtime::StreamOptions so;
        so.num_threads = threads;
        so.grain = policy.grain();
        so.split_dims = policy.split_dims();
        so.force_interpreter = policy.interpreter_only();
        so.locality_splits = policy.locality_splits();
        group.executor = std::make_unique<runtime::StreamExecutor>(
            req.loop.nest(), req.loop.plan().transform, so);
        if (policy.backend() == ExecBackend::kJit) {
          // Jit failure (no toolchain, range proof, cc error) degrades the
          // group to the scan path, exactly like single execute().
          Expected<std::shared_ptr<const jit::NativeKernel>> nk =
              req.loop.jit(policy.jit_options());
          if (nk) group.native = *nk;
        }
        if (!group.native && !policy.interpreter_only()) {
          try {
            // Scan-path prototype, only when no native kernel runs the
            // group's leaves. Compiled against the group's first store;
            // every member — this one included — rebinds it onto its own
            // buffers. Lifetime: the prototype holds a reference to this
            // request's nest, which `requests` keeps alive past the run.
            group.prototype = std::make_unique<const exec::CompiledKernel>(
                req.loop.nest(), *store);
          } catch (const Error&) {
            // Range proof failed: the whole group scans interpreted.
          }
        }
      }

      kernels[k] = group.native;
      stores.push_back(store);
      sources.push_back(group.executor->source(*store, group.native.get(),
                                               group.prototype.get()));
    }

    // Every request's descriptors share one worker set: the same driver
    // loop a single execute() runs, with one source per request.
    runtime::DriveOptions d{
        threads ? threads : std::max(1u, std::thread::hardware_concurrency()),
        policy.trace(), policy.metrics(), policy.pin_workers()};
    runtime::RuntimeStats bs = runtime::drive_descriptors(sources, d, pool);
    if (bs.error) {
      try {
        std::rethrow_exception(bs.error);
      } catch (const Error& e) {
        ApiError err = detail::classify(e);
        err.index = static_cast<int>(bs.error_source);
        err.message = "execute_batch: request " +
                      std::to_string(bs.error_source) + ": " + err.message;
        return err;
      }
      // Non-library exceptions (bad_alloc, ...) propagate to the caller.
    }

    std::vector<ExecReport> reports(requests.size());
    for (std::size_t k = 0; k < requests.size(); ++k) {
      const runtime::SourceStats& s = bs.sources[k];
      ExecReport& rep = reports[k];
      rep.iterations = s.iterations;
      rep.tasks = s.tasks;
      rep.steals = s.steals;
      rep.inner_splits = s.inner_splits;
      rep.wall_ns = s.done_ns;
      rep.queue_ns = s.queue_ns;
      // This request's in-flight time: completion minus the wait behind
      // the rest of the batch.
      rep.exec_ns = s.done_ns > s.queue_ns ? s.done_ns - s.queue_ns : 0;
      if (policy.digest()) rep.checksum = stores[k]->checksum();
      rep.jit = kernels[k] != nullptr;
    }
    return reports;
  } catch (const Error& e) {
    return detail::classify(e);
  }
}

}  // namespace

Expected<std::vector<ExecReport>> execute_batch(
    std::span<const BatchRequest> requests, const ExecPolicy& policy) {
  return execute_batch_impl(requests, policy, nullptr);
}

Expected<std::vector<ExecReport>> execute_batch(
    std::span<const BatchRequest> requests, const ExecPolicy& policy,
    vdep::ThreadPool& pool) {
  return execute_batch_impl(requests, policy, &pool);
}

// ------------------------------------------- CompiledLoop batch members

namespace {

/// Rebinds `loop` at every bounds (at() checks the structure); errors
/// carry the failing entry's index.
Expected<std::vector<BatchRequest>> rebind_requests(
    const CompiledLoop& loop, std::span<const loopir::LoopNest> bounds) {
  std::vector<BatchRequest> reqs;
  reqs.reserve(bounds.size());
  for (std::size_t k = 0; k < bounds.size(); ++k) {
    Expected<CompiledLoop> h = loop.at(bounds[k]);
    if (!h) {
      ApiError err = h.error();
      err.index = static_cast<int>(k);
      err.message = "execute_batch: bounds " + std::to_string(k) + ": " +
                    err.message;
      return err;
    }
    reqs.push_back(BatchRequest{std::move(*h), nullptr});
  }
  return reqs;
}

std::vector<BatchRequest> store_requests(
    const CompiledLoop& loop, std::span<exec::ArrayStore* const> stores) {
  std::vector<BatchRequest> reqs;
  reqs.reserve(stores.size());
  for (exec::ArrayStore* store : stores)
    reqs.push_back(BatchRequest{loop, store});
  return reqs;
}

}  // namespace

Expected<std::vector<ExecReport>> CompiledLoop::execute_batch(
    std::span<const loopir::LoopNest> bounds, const ExecPolicy& policy) const {
  return rebind_requests(*this, bounds).and_then([&](const auto& reqs) {
    return execute_batch_impl(reqs, policy, nullptr);
  });
}

Expected<std::vector<ExecReport>> CompiledLoop::execute_batch(
    std::span<const loopir::LoopNest> bounds, const ExecPolicy& policy,
    vdep::ThreadPool& pool) const {
  return rebind_requests(*this, bounds).and_then([&](const auto& reqs) {
    return execute_batch_impl(reqs, policy, &pool);
  });
}

Expected<std::vector<ExecReport>> CompiledLoop::execute_batch(
    std::span<exec::ArrayStore* const> stores, const ExecPolicy& policy) const {
  return execute_batch_impl(store_requests(*this, stores), policy, nullptr);
}

Expected<std::vector<ExecReport>> CompiledLoop::execute_batch(
    std::span<exec::ArrayStore* const> stores, const ExecPolicy& policy,
    vdep::ThreadPool& pool) const {
  return execute_batch_impl(store_requests(*this, stores), policy, &pool);
}

}  // namespace vdep
