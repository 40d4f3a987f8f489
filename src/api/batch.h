// Batch serving entry points: many compiled requests, one worker set.
//
// The serving scenario the plan cache and the JIT were built for: one
// structure analyzed once, executed at thousands of bounds by many
// concurrent requests. compile_all (api/compiler.h) amortizes the analysis
// across a batch; execute_batch amortizes the *execution* — every request
// is one source of a single descriptor-driver run (runtime/driver.h), so
// small requests' descriptors interleave in one shared set of
// work-stealing deques instead of running serially, each with a full
// fork/join of its own. This is the library's one request runner: a single
// execute() is a batch of one. Every request binds before any runs — an
// affine one through its artifact's per-bounds executable memo
// (PlanArtifact::executable), so a warm request builds no executor and
// proves no kernel; an inspected one (indirect nest, kInspector) by
// inspecting its own store into a class-range source.
//
//   vdep::Compiler compiler;
//   auto loops = compiler.compile_all(nests);          // 1 analysis/structure
//   std::vector<vdep::BatchRequest> reqs;
//   for (auto& l : *loops) reqs.push_back({l, &store_for(l)});
//   auto reports = vdep::execute_batch(reqs, policy, compiler.pool());
//
// Per-request ExecReports come back in request order; report.wall_ns is the
// request's completion time (batch start -> its last descriptor retired).
#pragma once

#include <span>
#include <vector>

#include "api/compiled_loop.h"

namespace vdep {

/// One request of a batch run: a staged handle (structure + bounds) plus
/// the request's data. `store` must have been built for `loop.nest()`;
/// when null, execute_batch allocates a pattern-filled store internally
/// (the request's report still carries its checksum).
struct BatchRequest {
  CompiledLoop loop;
  exec::ArrayStore* store = nullptr;
};

/// Executes every request over one shared worker set (policy.threads()
/// contexts, 0 = default_worker_count()); backends follow the policy, and
/// indirect requests run through the inspector as in execute(). Requests at one
/// (structure, bounds, options) key share the memoized executor, its
/// compiled body (bound once per request's store) and, with
/// ExecBackend::kJit, one loaded .so. On a request failure — a hostile index array fails at
/// bind time, before any request runs — the batch aborts and the error
/// carries the request's index (ApiError::index); so does kPrecondition
/// when two requests name one store.
Expected<std::vector<ExecReport>> execute_batch(
    std::span<const BatchRequest> requests, const ExecPolicy& policy = {});

/// Same, with the workers drawn from a long-lived pool (e.g. the session
/// pool, Compiler::pool()) instead of spawned per batch.
Expected<std::vector<ExecReport>> execute_batch(
    std::span<const BatchRequest> requests, const ExecPolicy& policy,
    vdep::ThreadPool& pool);

}  // namespace vdep
