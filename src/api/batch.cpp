#include "api/batch.h"

#include <memory>
#include <string>
#include <utility>

#include "api/executable.h"
#include "support/error.h"

namespace vdep {

Expected<std::vector<ExecReport>> detail::execute_batch_impl(
    std::span<const BatchRequest> requests, const ExecPolicy& policy,
    vdep::ThreadPool* pool) {
  try {
    if (policy.backend() == ExecBackend::kInspector)
      throw UnsupportedError(
          "execute_batch: the inspector backend partitions per store "
          "(classes depend on index-array contents), which the shared batch "
          "scheduler cannot express; execute each request individually");

    const std::size_t threads = worker_count(policy, pool);

    // Per-request preparation: resolve the store (caller's or an internal
    // pattern fill) and bind it through the artifact's executable memo —
    // the lookup single execute() makes — so requests at one key share one
    // executor, one scan prototype (rebound per store) and, under kJit, one
    // loaded .so, within this batch and across batches. Jit failures
    // degrade that request to the scan path, exactly like single execute().
    std::vector<std::unique_ptr<exec::ArrayStore>> owned_stores;
    std::vector<BoundSource> bound;
    bound.reserve(requests.size());
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
      bound.push_back(req.loop.bind(policy, threads, *store));
      sources.push_back(std::move(bound.back().source));
      stores.push_back(store);
    }

    // Every request's descriptors share one worker set: the same driver
    // loop a single execute() runs, with one source per request.
    runtime::RuntimeStats bs = runtime::drive_descriptors(
        sources, {threads, run_switches(policy)}, pool);
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
      rep.workers_used = bs.workers_used;
      rep.wall_ns = s.done_ns;
      rep.queue_ns = s.queue_ns;
      // This request's in-flight time: completion minus the wait behind
      // the rest of the batch.
      rep.exec_ns = s.done_ns > s.queue_ns ? s.done_ns - s.queue_ns : 0;
      if (policy.digest()) rep.checksum = stores[k]->checksum();
      if (const auto& native = bound[k].native) {
        rep.jit = true;
        rep.jit_partitioned = native->partitioned();
      }
    }
    return reports;
  } catch (const Error& e) {
    return detail::classify(e);
  }
}

Expected<std::vector<ExecReport>> execute_batch(
    std::span<const BatchRequest> requests, const ExecPolicy& policy) {
  return detail::execute_batch_impl(requests, policy, nullptr);
}

Expected<std::vector<ExecReport>> execute_batch(
    std::span<const BatchRequest> requests, const ExecPolicy& policy,
    vdep::ThreadPool& pool) {
  return detail::execute_batch_impl(requests, policy, &pool);
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
    return detail::execute_batch_impl(reqs, policy, nullptr);
  });
}

Expected<std::vector<ExecReport>> CompiledLoop::execute_batch(
    std::span<const loopir::LoopNest> bounds, const ExecPolicy& policy,
    vdep::ThreadPool& pool) const {
  return rebind_requests(*this, bounds).and_then([&](const auto& reqs) {
    return detail::execute_batch_impl(reqs, policy, &pool);
  });
}

Expected<std::vector<ExecReport>> CompiledLoop::execute_batch(
    std::span<exec::ArrayStore* const> stores, const ExecPolicy& policy) const {
  return detail::execute_batch_impl(store_requests(*this, stores), policy,
                                    nullptr);
}

Expected<std::vector<ExecReport>> CompiledLoop::execute_batch(
    std::span<exec::ArrayStore* const> stores, const ExecPolicy& policy,
    vdep::ThreadPool& pool) const {
  return detail::execute_batch_impl(store_requests(*this, stores), policy,
                                    &pool);
}

}  // namespace vdep
