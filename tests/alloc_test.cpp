// Heap allocations per request: a warm CompiledLoop::execute makes a fixed
// number of them, whatever the number of leaves, columns or block points
// it runs. This binary replaces the global operator new with a counting
// one and compares one warm threads(1) request at two bounds whose leaf
// counts differ, so a per-leaf, per-column or per-point allocation shows
// as a difference — no timer involved. A warm batch on spawned workers
// or on a pool makes a fixed number too, whichever worker ran which
// request.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "api/vdep.h"
#include "core/suite.h"
#include "inspect/inspector.h"
#include "loopir/builder.h"
#include "support/thread_pool.h"

#include "indirect_inputs.h"

namespace {
std::atomic<long> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t& t) noexcept {
  return ::operator new(size, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace vdep {
namespace {

using intlin::i64;

struct Warm {
  CompiledLoop loop;
  exec::ArrayStore init;
};

/// Heap allocations and the report of one warm execute() of `w` under
/// `policy`: two untimed runs first build the executor, its scan state and
/// any native kernel, and touch every memo.
std::pair<long, ExecReport> count_one(const Warm& w, const ExecPolicy& policy) {
  for (int k = 0; k < 2; ++k) {
    exec::ArrayStore s = w.init;
    (void)w.loop.execute(policy, s).value();
  }
  exec::ArrayStore s = w.init;
  const long before = g_allocations.load();
  ExecReport r = w.loop.execute(policy, s).value();
  return {g_allocations.load() - before, r};
}

/// `small` and `large` must differ in leaves, unless the plan keeps one
/// piece at any bound (`one_piece`: then they differ in iterations).
void expect_flat(const loopir::LoopNest& small, const loopir::LoopNest& large,
                 ExecBackend backend, const std::string& name,
                 bool expect_columns, bool one_piece = false) {
  Compiler compiler;
  ExecPolicy policy;
  policy.threads(1).backend(backend).digest(false);
  const Warm a{compiler.compile(small).value(), exec::ArrayStore(small)};
  const Warm b{compiler.compile(large).value(), exec::ArrayStore(large)};
  const auto [na, ra] = count_one(a, policy);
  const auto [nb, rb] = count_one(b, policy);
  EXPECT_NE(ra.iterations, rb.iterations) << name;
  if (one_piece)
    EXPECT_EQ(ra.tasks, 1) << name;
  else
    EXPECT_NE(ra.tasks, rb.tasks) << name << ": the bounds must differ in "
                                  << "leaves, both ran " << ra.tasks;
  EXPECT_EQ(na, nb) << name << ": " << ra.tasks << " vs " << rb.tasks
                    << " leaves";
  if (backend == ExecBackend::kCompiled) {
    EXPECT_EQ(ra.column_iterations, expect_columns ? ra.iterations : 0)
        << name;
    EXPECT_EQ(rb.column_iterations, expect_columns ? rb.iterations : 0)
        << name;
  }
}

TEST(Allocations, CompiledRequestIsFlatInLeavesColumnsAndPoints) {
  // Two DOALL levels (columns, unpermuted), one permuted DOALL level over
  // a two-class partition, and per-point partition classes, which share
  // cache lines and so run as one piece at any bound.
  expect_flat(core::matmul_reduction(12), core::matmul_reduction(40),
              ExecBackend::kCompiled, "matmul_reduction", true);
  expect_flat(core::example41(12), core::example41(40),
              ExecBackend::kCompiled, "example_4_1", true);
  expect_flat(core::example42(12), core::example42(40),
              ExecBackend::kCompiled, "example_4_2", false, true);
}

TEST(Allocations, JitRequestIsFlatInLeaves) {
  // Native leaves when a toolchain is present; the scan fallback (columns)
  // otherwise. Either way the count must not follow the leaf count.
  expect_flat(core::matmul_reduction(12), core::matmul_reduction(40),
              ExecBackend::kJit, "matmul_reduction", true);
}

/// Heap allocations of one reused inspected threads(1) request over
/// permutation_input(n) (an index image of n elements) under `backend`,
/// after two untimed requests have inspected, built the executor and any
/// row kernel, and proved the memoized partition.
long reused_request_allocations(i64 n, ExecBackend backend) {
  const test_inputs::IndirectInput in = test_inputs::permutation_input(n);
  const exec::ArrayStore init = test_inputs::initial_store(in);
  Compiler compiler;
  const CompiledLoop loop = compiler.compile(in.nest).value();
  ExecPolicy policy;
  policy.threads(1).backend(backend).digest(false);
  for (int k = 0; k < 2; ++k) {
    exec::ArrayStore s = init;
    (void)loop.execute(policy, s).value();
  }
  exec::ArrayStore s = init;
  const long before = g_allocations.load();
  const ExecReport r = loop.execute(policy, s).value();
  const long count = g_allocations.load() - before;
  EXPECT_EQ(r.inspection, Inspection::kReused);
  EXPECT_EQ(r.iterations, n);
  return count;
}

TEST(Allocations, ReusedInspectedRequestIsFlatInIndexLength) {
  // A reused request at index images of 2^16 and 2^17 elements makes the
  // same allocations. kJit runs the native row kernel where a toolchain
  // exists, compiled leaves otherwise. The sliced proof's hand-off to a
  // pool is held below.
  for (ExecBackend backend : {ExecBackend::kCompiled, ExecBackend::kJit})
    EXPECT_EQ(reused_request_allocations(i64{1} << 16, backend),
              reused_request_allocations(i64{1} << 17, backend))
        << (backend == ExecBackend::kJit ? "kJit" : "kCompiled");
}

TEST(Allocations, SlicedProofIsFlatInIndexLength) {
  // The proof of a reused 4-worker request, every thread counted: one
  // hand-off of four slices to a pool, whatever the image length.
  auto count = [](i64 n) {
    const test_inputs::IndirectInput in = test_inputs::permutation_input(n);
    const exec::ArrayStore init = test_inputs::initial_store(in);
    const inspect::DynamicPartition part = inspect::inspect(in.nest, init);
    exec::ArrayStore store = init;
    ThreadPool pool(3);
    EXPECT_TRUE(part.prove(store, &pool, 4));  // warm the pool's threads
    const long before = g_allocations.load();
    EXPECT_TRUE(part.prove(store, &pool, 4));
    return g_allocations.load() - before;
  };
  const long short_image = count(i64{1} << 10);
  EXPECT_GT(short_image, 0) << "the proof ran serially, with no hand-off";
  EXPECT_EQ(short_image, count(i64{1} << 17));
}

/// `count` kCompiled requests over the paper suite, kernel r % 11 at bound
/// 10 + r / 11, each with a pattern-filled store of its own.
struct SuiteBatch {
  std::vector<CompiledLoop> loops;
  std::vector<exec::ArrayStore> init;
};

SuiteBatch suite_batch(const Compiler& compiler, int count) {
  SuiteBatch b;
  for (int r = 0; r < count; ++r) {
    const std::vector<core::NamedNest> suite = core::paper_suite(10 + r / 11);
    const loopir::LoopNest& nest =
        suite[static_cast<std::size_t>(r) % suite.size()].nest;
    b.loops.push_back(compiler.compile(nest).value());
    b.init.emplace_back(nest).fill_pattern();
  }
  return b;
}

/// Heap allocations of `runs` consecutive warm execute_batch calls of `b`
/// on `threads` workers, spawned or on `pool`, digest off, every thread
/// counted, after two untimed batches built every executor and its scan
/// state.
std::vector<long> batch_allocations(const SuiteBatch& b, std::size_t threads,
                                    int runs, ThreadPool* pool = nullptr) {
  ExecPolicy policy;
  policy.threads(threads).digest(false);
  std::vector<long> counts;
  for (int k = 0; k < runs + 2; ++k) {
    std::vector<exec::ArrayStore> stores = b.init;
    std::vector<BatchRequest> reqs;
    for (std::size_t r = 0; r < stores.size(); ++r)
      reqs.push_back({b.loops[r], &stores[r]});
    const long before = g_allocations.load();
    const std::vector<ExecReport> reports =
        (pool ? execute_batch(reqs, policy, *pool)
              : execute_batch(reqs, policy))
            .value();
    const long count = g_allocations.load() - before;
    EXPECT_EQ(reports.front().workers_used, static_cast<i64>(threads));
    if (k >= 2) counts.push_back(count);
  }
  return counts;
}

TEST(Allocations, BatchWorkersCostTheSameWhateverSourcesTheyRun) {
  // Steals decide which worker context runs which request, and they
  // differ run to run; the allocation count must not follow them. And a
  // worker's cost must not depend on how many sources it ran: adding
  // three workers costs a batch of 16 what it costs a batch of 8.
  Compiler compiler;
  const SuiteBatch eight = suite_batch(compiler, 8);
  const SuiteBatch sixteen = suite_batch(compiler, 16);
  const std::vector<long> at4 = batch_allocations(sixteen, 4, 10);
  for (std::size_t k = 1; k < at4.size(); ++k)
    EXPECT_EQ(at4[k], at4[0]) << "run " << k;
  const long per_workers_8 = batch_allocations(eight, 4, 1)[0] -
                             batch_allocations(eight, 1, 1)[0];
  const long per_workers_16 =
      at4[0] - batch_allocations(sixteen, 1, 1)[0];
  EXPECT_GT(per_workers_8, 0);
  EXPECT_EQ(per_workers_8, per_workers_16);
}

TEST(Allocations, PooledBatchesCostTheSameEveryRun) {
  // The pool's helpers are queued without a join and may still be on
  // their way out when the next batch starts counting: neither the
  // hand-off nor a helper may allocate, or the count moves run to run.
  Compiler compiler;
  const SuiteBatch sixteen = suite_batch(compiler, 16);
  ThreadPool pool(4);
  const std::vector<long> counts = batch_allocations(sixteen, 4, 10, &pool);
  for (std::size_t k = 1; k < counts.size(); ++k)
    EXPECT_EQ(counts[k], counts[0]) << "run " << k;
}

}  // namespace
}  // namespace vdep
