#include "api/batch.h"

#include <exception>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>

#include "api/executable.h"
#include "obs/phase.h"
#include "support/error.h"

namespace vdep {

Expected<std::vector<ExecReport>> detail::run_requests(
    std::span<const BatchRequest> requests, const ExecPolicy& policy,
    vdep::ThreadPool* pool) {
  auto request_error = [](const Error& e, std::size_t k) {
    ApiError err = classify(e);
    err.index = static_cast<int>(k);
    return err;
  };
  try {
    // Two requests on one store would be two unsynchronized writers, and
    // an inspected request's index arrays must stay as inspection saw them.
    std::unordered_set<const exec::ArrayStore*> named;
    for (std::size_t k = 0; k < requests.size(); ++k)
      if (requests[k].store && !named.insert(requests[k].store).second)
        return request_error(
            PreconditionError("store already used by an earlier request"), k);

    const std::size_t threads = worker_count(policy, pool);

    // Bind every request, in order, before any leaf runs: resolve its store
    // (caller's or an internal pattern fill), then CompiledLoop::bind —
    // affine requests at one key share the memoized executor (with its
    // compiled body) and .so; inspected requests reuse the memoized partition
    // when their index arrays equal its own and inspect their store
    // otherwise, so a hostile index array fails here.
    std::vector<std::unique_ptr<exec::ArrayStore>> owned_stores;
    std::vector<BoundSource> bound;
    bound.reserve(requests.size());
    std::vector<exec::ArrayStore*> stores;
    stores.reserve(requests.size());
    std::vector<runtime::DriveSource> sources;
    sources.reserve(requests.size());
    for (std::size_t k = 0; k < requests.size(); ++k) {
      const BatchRequest& req = requests[k];
      exec::ArrayStore* store = req.store;
      if (!store) {
        owned_stores.push_back(
            std::make_unique<exec::ArrayStore>(req.loop.nest()));
        owned_stores.back()->fill_pattern();
        store = owned_stores.back().get();
      }
      try {
        bound.push_back(req.loop.bind(policy, threads, *store, pool));
      } catch (const Error& e) {
        return request_error(e, k);
      }
      sources.push_back(std::move(bound.back().source));
      stores.push_back(store);
    }

    // One worker set for every request: one source each, whether Theorem-2
    // classes or inspected components partition it.
    runtime::RuntimeStats bs;
    {
      obs::PhaseTimer run_timer(obs::Phase::kExec);
      bs = runtime::drive_descriptors(sources, {threads, run_switches(policy)},
                                      pool);
    }
    if (bs.error) {
      try {
        std::rethrow_exception(bs.error);
      } catch (const Error& e) {
        return request_error(e, static_cast<std::size_t>(bs.error_source));
      }
      // Non-library exceptions (bad_alloc, ...) propagate to the caller.
    }

    std::vector<ExecReport> reports(requests.size());
    for (std::size_t k = 0; k < requests.size(); ++k) {
      const runtime::SourceStats& s = bs.sources[k];
      const BoundSource& b = bound[k];
      ExecReport& rep = reports[k];
      rep.iterations = s.iterations;
      rep.column_iterations = s.column_iterations;
      rep.tasks = s.tasks;
      rep.steals = s.steals;
      rep.inner_splits = s.inner_splits;
      rep.failed_steals = bs.total_failed_steals();
      rep.idle_ns = bs.total_idle_ns();
      rep.workers_used = bs.workers_used;
      rep.wall_ns = s.done_ns;
      rep.queue_ns = s.queue_ns;
      // This request's in-flight time: completion minus the wait behind
      // the rest of the batch.
      rep.exec_ns = s.done_ns > s.queue_ns ? s.done_ns - s.queue_ns : 0;
      if (b.inspection != Inspection::kNone) {
        const inspect::InspectStats& st = b.executable->partition().stats();
        rep.inspector = true;
        rep.inspection = b.inspection;
        rep.inspect_ns = b.inspect_ns;
        rep.inspector_classes = st.classes;
        rep.inspector_chains = st.chains;
        rep.inspector_max_component = st.max_component;
        rep.inspector_dependent = st.dependent_iterations;
      }
      rep.jit = b.native != nullptr;
      rep.jit_partitioned = b.native && b.native->partitioned();
      if (policy.digest()) rep.checksum = stores[k]->checksum();
    }
    return reports;
  } catch (const Error& e) {
    return classify(e);
  }
}

namespace {

/// execute_batch's errors name the failing request in the message too.
Expected<std::vector<ExecReport>> execute_batch_impl(
    std::span<const BatchRequest> requests, const ExecPolicy& policy,
    vdep::ThreadPool* pool) {
  Expected<std::vector<ExecReport>> reports =
      detail::run_requests(requests, policy, pool);
  if (reports || reports.error().index < 0) return reports;
  ApiError err = reports.error();
  err.message = "execute_batch: request " + std::to_string(err.index) + ": " +
                err.message;
  return err;
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

/// `loop` at every bounds (at() checks the structure); errors carry the
/// failing entry's index.
Expected<std::vector<BatchRequest>> requests_at(
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
  return requests_at(*this, bounds).and_then([&](const auto& reqs) {
    return execute_batch_impl(reqs, policy, nullptr);
  });
}

Expected<std::vector<ExecReport>> CompiledLoop::execute_batch(
    std::span<const loopir::LoopNest> bounds, const ExecPolicy& policy,
    vdep::ThreadPool& pool) const {
  return requests_at(*this, bounds).and_then([&](const auto& reqs) {
    return execute_batch_impl(reqs, policy, &pool);
  });
}

Expected<std::vector<ExecReport>> CompiledLoop::execute_batch(
    std::span<exec::ArrayStore* const> stores, const ExecPolicy& policy) const {
  return execute_batch_impl(store_requests(*this, stores), policy,
                                    nullptr);
}

Expected<std::vector<ExecReport>> CompiledLoop::execute_batch(
    std::span<exec::ArrayStore* const> stores, const ExecPolicy& policy,
    vdep::ThreadPool& pool) const {
  return execute_batch_impl(store_requests(*this, stores), policy,
                                    &pool);
}

}  // namespace vdep
