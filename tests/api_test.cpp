// Tests for the staged compilation API: structural fingerprints, the
// sharded LRU plan cache (including a multi-threaded hammer — this binary
// runs under TSan in CI), Expected error propagation, and the
// bounds-parametric acceptance property: a plan compiled at n=10 executes
// bit-identically at n=100 and n=1000 without re-analysis.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <thread>
#include <vector>

#include "api/vdep.h"
#include "core/suite.h"
#include "exec/interpreter.h"
#include "inspect/inspector.h"
#include "jit/toolchain.h"
#include "loopir/builder.h"
#include "obs/metrics.h"

#include "indirect_inputs.h"

// Detect ThreadSanitizer so the heavyweight sizes scale down (the hammer
// still runs at full thread count).
#if defined(__SANITIZE_THREAD__)
#define VDEP_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define VDEP_TSAN 1
#endif
#endif

namespace vdep {
namespace {

using core::example41;
using core::example42;
using loopir::Expr;
using loopir::LoopNest;
using loopir::LoopNestBuilder;

// A[i+k] = A[i] + c over i in [0, n]: structure varies with k, bounds with n.
LoopNest shifted_chain(i64 k, i64 n) {
  LoopNestBuilder b;
  b.loop("i", 0, n);
  b.array("A", {{-16, n + 16}});
  b.assign(b.ref("A", {b.affine({1}, k)}),
           Expr::add(b.read("A", {b.idx(0)}), Expr::constant(1)));
  return b.build();
}

// ------------------------------------------------------------ fingerprint

TEST(Fingerprint, SameStructureDifferentBoundsCollide) {
  EXPECT_EQ(structural_fingerprint(example41(4)),
            structural_fingerprint(example41(77)));
  EXPECT_EQ(structural_fingerprint(core::triangular_uniform(4)),
            structural_fingerprint(core::triangular_uniform(9)));
  EXPECT_EQ(structural_fingerprint(shifted_chain(2, 5)),
            structural_fingerprint(shifted_chain(2, 5000)));
}

TEST(Fingerprint, DifferentSubscriptsMiss) {
  EXPECT_NE(structural_fingerprint(example41(6)),
            structural_fingerprint(example42(6)));
  // Differ only in uniform distance: (1,0)/(0,1) vs (2,0)/(0,2).
  EXPECT_NE(structural_fingerprint(core::uniform_wavefront(6)),
            structural_fingerprint(core::uniform_blocked(6)));
  // Differ only in one subscript constant.
  EXPECT_NE(structural_fingerprint(shifted_chain(1, 9)),
            structural_fingerprint(shifted_chain(2, 9)));
}

TEST(Fingerprint, ArrayNamesCanonicalized) {
  // Renaming every array consistently preserves the dependence structure,
  // so it preserves the fingerprint.
  LoopNestBuilder b1;
  b1.loop("i", 0, 9);
  b1.array("A", {{0, 32}});
  b1.array("B", {{0, 32}});
  b1.assign(b1.ref("A", {b1.affine({1}, 1)}), b1.read("B", {b1.idx(0)}));

  LoopNestBuilder b2;
  b2.loop("i", 0, 9);
  b2.array("X", {{0, 32}});
  b2.array("Y", {{0, 32}});
  b2.assign(b2.ref("X", {b2.affine({1}, 1)}), b2.read("Y", {b2.idx(0)}));
  EXPECT_EQ(structural_fingerprint(b1.build()),
            structural_fingerprint(b2.build()));
}

TEST(Fingerprint, ArrayIdentityStillMatters) {
  // A[i+1] = A[i] has a dependence; A[i+1] = B[i] does not — the
  // canonicalization must keep same-array equality, not erase identity.
  LoopNestBuilder b1;
  b1.loop("i", 0, 9);
  b1.array("A", {{0, 32}});
  b1.assign(b1.ref("A", {b1.affine({1}, 1)}), b1.read("A", {b1.idx(0)}));

  LoopNestBuilder b2;
  b2.loop("i", 0, 9);
  b2.array("A", {{0, 32}});
  b2.array("B", {{0, 32}});
  b2.assign(b2.ref("A", {b2.affine({1}, 1)}), b2.read("B", {b2.idx(0)}));
  EXPECT_NE(structural_fingerprint(b1.build()),
            structural_fingerprint(b2.build()));
}

// -------------------------------------------------------------- LRU cache

std::shared_ptr<const PlanArtifact> dummy_artifact(std::uint64_t hash,
                                                   std::string key) {
  return std::make_shared<PlanArtifact>(Fingerprint{hash, std::move(key)},
                                        LoopAnalysis{}, LoopPlan{});
}

TEST(PlanCache, LruEvictionAtCapacity) {
  PlanCache cache(3, /*shards=*/1);  // one shard: deterministic global LRU
  cache.insert(dummy_artifact(1, "a"));
  cache.insert(dummy_artifact(2, "b"));
  cache.insert(dummy_artifact(3, "c"));
  // Touch "a": "b" becomes the eviction victim.
  EXPECT_NE(cache.find(Fingerprint{1, "a"}), nullptr);
  cache.insert(dummy_artifact(4, "d"));

  EXPECT_EQ(cache.find(Fingerprint{2, "b"}), nullptr);
  EXPECT_NE(cache.find(Fingerprint{1, "a"}), nullptr);
  EXPECT_NE(cache.find(Fingerprint{3, "c"}), nullptr);
  EXPECT_NE(cache.find(Fingerprint{4, "d"}), nullptr);
  CacheStats s = cache.stats();
  EXPECT_EQ(s.evictions, 1);
  EXPECT_EQ(s.entries, 3u);
}

TEST(PlanCache, HashCollisionDoesNotConfuseKeys) {
  PlanCache cache(4, 1);
  cache.insert(dummy_artifact(7, "first"));
  cache.insert(dummy_artifact(7, "second"));  // same hash, different key
  auto a = cache.find(Fingerprint{7, "first"});
  auto b = cache.find(Fingerprint{7, "second"});
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->fingerprint().key, "first");
  EXPECT_EQ(b->fingerprint().key, "second");
}

TEST(PlanCache, InsertOfDuplicateKeepsResidentArtifact) {
  PlanCache cache(4, 1);
  auto first = cache.insert(dummy_artifact(9, "x"));
  auto second = cache.insert(dummy_artifact(9, "x"));
  EXPECT_EQ(first.get(), second.get());  // racing loser adopts the winner
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(Compiler, EvictedStructureRecompiles) {
  Compiler compiler(CompileOptions{}.cache_capacity(2).cache_shards(1));
  compiler.compile(shifted_chain(1, 9)).value();
  compiler.compile(shifted_chain(2, 9)).value();
  compiler.compile(shifted_chain(3, 9)).value();  // evicts shifted_chain(1)
  EXPECT_GE(compiler.cache_stats().evictions, 1);
  compiler.compile(shifted_chain(1, 9)).value();  // miss again, recompiled
  CacheStats s = compiler.cache_stats();
  EXPECT_EQ(s.hits, 0);
  EXPECT_EQ(s.misses, 4);
  EXPECT_LE(s.entries, 2u);
}

// ------------------------------------------------------------- staged API

TEST(Compiler, CacheHitSharesArtifactAndCodegenMemo) {
  Compiler compiler;
  CompiledLoop a = compiler.compile(example41(6)).value();
  CompiledLoop b = compiler.compile(example41(6)).value();
  EXPECT_EQ(&a.analysis(), &b.analysis());
  EXPECT_EQ(&a.plan(), &b.plan());
  // Same artifact + same bounds + same options => same emitted string.
  EXPECT_EQ(&a.codegen(), &b.codegen());
  CacheStats s = compiler.cache_stats();
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.misses, 1);
}

TEST(Compiler, CodegenRefusesIndirectNests) {
  // Both targets emit the affine range kernel, which has no rendering of
  // an indirect subscript: indirect nests run through the inspector.
  Compiler compiler;
  const test_inputs::IndirectInput in = test_inputs::permutation_input(16);
  CompiledLoop loop = compiler.compile(in.nest).value();
  EXPECT_THROW(loop.codegen(), PreconditionError);
  EXPECT_THROW(loop.codegen(CodegenOptions{}.target(CodegenTarget::kOriginal)),
               PreconditionError);
}

TEST(Compiler, RebindRejectsDifferentStructure) {
  Compiler compiler;
  CompiledLoop loop = compiler.compile(example41(6)).value();
  Expected<CompiledLoop> bad = loop.at(example42(6));
  ASSERT_FALSE(bad.has_value());
  EXPECT_EQ(bad.error().kind, ErrorKind::kPrecondition);
}

// Acceptance: a CompiledLoop compiled at n=10 executes bit-identically
// (vs the sequential reference) at n=100 and n=1000 via the streaming
// runtime without re-analysis.
TEST(Compiler, PlanCompiledAtTenServesLargeBounds) {
  Compiler compiler;
  CompiledLoop small = compiler.compile(example41(10)).value();
#ifdef VDEP_TSAN
  const std::vector<i64> sizes = {100, 300};  // TSan: same property, ~10x cheaper
#else
  const std::vector<i64> sizes = {100, 1000};
#endif
  for (i64 n : sizes) {
    CompiledLoop big = small.at(example41(n)).value();
    EXPECT_EQ(&big.analysis(), &small.analysis());  // no re-analysis
    ExecReport r =
        big.check(ExecPolicy{}.threads(4)).value();
    EXPECT_TRUE(r.verified) << "n=" << n;
    EXPECT_EQ(r.iterations, (2 * n + 1) * (2 * n + 1)) << "n=" << n;
  }
  // at() rebinds without touching the cache: still exactly one cold compile.
  CacheStats s = compiler.cache_stats();
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.hits, 0);
}

TEST(Expected, ValueOrAndMonadicComposition) {
  Expected<int> ok = 3;
  Expected<int> err = ApiError{ErrorKind::kUnsupported, "nope"};
  EXPECT_EQ(ok.value_or(9), 3);
  EXPECT_EQ(err.value_or(9), 9);
  EXPECT_EQ(ok.map([](int v) { return v * 2; }).value(), 6);
  EXPECT_EQ(err.map([](int v) { return v * 2; }).error().kind,
            ErrorKind::kUnsupported);
  EXPECT_THROW(err.value(), UnsupportedError);  // raise() restores the type
}

// ------------------------------------------------------------ hammer test
//
// N threads x M compiles through one shared Compiler whose capacity is far
// below the working set, so lookups, inserts, evictions and racing
// same-structure compiles all interleave; a subset of iterations also
// executes + verifies the compiled plan. Runs under TSan in CI.
TEST(PlanCacheHammer, ConcurrentCompileExecuteEvict) {
  constexpr int kThreads = 8;
#ifdef VDEP_TSAN
  constexpr int kItersPerThread = 12;
#else
  constexpr int kItersPerThread = 48;
#endif

  // 30 nests over 10 distinct structures (3 sizes each).
  std::vector<loopir::LoopNest> nests;
  for (i64 n : {i64{3}, i64{4}, i64{5}})
    for (core::NamedNest& c : core::paper_suite(n))
      nests.push_back(std::move(c.nest));

  Compiler compiler(CompileOptions{}.cache_capacity(4).cache_shards(2));
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kItersPerThread; ++i) {
        const loopir::LoopNest& nest =
            nests[static_cast<std::size_t>(t * 7 + i) % nests.size()];
        Expected<CompiledLoop> loop = compiler.compile(nest);
        if (!loop) {
          ++failures;
          continue;
        }
        if (!loop->plan().legal) ++failures;
        if (loop->analysis().pdm.depth() != nest.depth()) ++failures;
        if (i % 8 == t % 8) {
          Expected<ExecReport> r =
              loop->check(ExecPolicy{}.threads(2).grain(1));
          if (!r || !r->verified) ++failures;
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(failures.load(), 0);
  CacheStats s = compiler.cache_stats();
  // Every compile is exactly one find(): hit or miss, nothing lost.
  EXPECT_EQ(s.hits + s.misses, kThreads * kItersPerThread);
  EXPECT_LE(s.entries, compiler.options().cache_capacity());
  EXPECT_GT(s.evictions, 0);
}

// ------------------------------------------------------------ compile_all

TEST(CompileAll, SameStructureAnalyzedOnce) {
  Compiler compiler;
  std::vector<loopir::LoopNest> nests;
  for (i64 n : {i64{4}, i64{9}, i64{16}, i64{25}, i64{36}, i64{49}, i64{64},
                i64{81}})
    nests.push_back(example41(n));
  std::vector<CompiledLoop> loops = compiler.compile_all(nests).value();
  ASSERT_EQ(loops.size(), nests.size());
  // One shared artifact: every handle's stage pointers are identical.
  for (const CompiledLoop& l : loops)
    EXPECT_EQ(&l.analysis(), &loops[0].analysis());
  // Batch-local dedup means one cache probe total: 1 miss, 0 hits (a
  // naive compile() loop would have produced 1 miss + 7 hits).
  CacheStats s = compiler.cache_stats();
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.hits, 0);
}

TEST(CompileAll, MixedStructuresOneAnalysisEach) {
  Compiler compiler;
  std::vector<loopir::LoopNest> nests;
  // 3 structures x 3 sizes, interleaved.
  for (i64 n : {i64{4}, i64{6}, i64{8}}) {
    nests.push_back(example41(n));
    nests.push_back(example42(n));
    nests.push_back(core::zero_column(n));
  }
  std::vector<CompiledLoop> loops = compiler.compile_all(nests).value();
  ASSERT_EQ(loops.size(), 9u);
  CacheStats s = compiler.cache_stats();
  EXPECT_EQ(s.misses, 3);
  EXPECT_EQ(s.hits, 0);
  // Same-structure entries share artifacts across the interleaving.
  EXPECT_EQ(&loops[0].analysis(), &loops[3].analysis());
  EXPECT_EQ(&loops[1].analysis(), &loops[4].analysis());
  EXPECT_EQ(&loops[2].analysis(), &loops[8].analysis());
  EXPECT_NE(&loops[0].analysis(), &loops[1].analysis());
}

// An invalid nest: the validating LoopNest constructor rejects anything
// structurally broken at construction, so the only invalid value that can
// reach compile() is the default-constructed empty nest (depth 0).
loopir::LoopNest broken_nest() { return loopir::LoopNest{}; }

TEST(CompileAll, FailingNestSurfacesIndexRestStillCompiles) {
  Compiler compiler;
  std::vector<loopir::LoopNest> nests;
  nests.push_back(example41(6));
  nests.push_back(broken_nest());
  nests.push_back(example42(6));

  Expected<std::vector<CompiledLoop>> r = compiler.compile_all(nests);
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().kind, ErrorKind::kPrecondition);
  EXPECT_EQ(r.error().index, 1);
  EXPECT_NE(r.error().message.find("nest 1"), std::string::npos);

  // The healthy entries still landed in the cache: retrying without the
  // bad nest is pure hits.
  CacheStats before = compiler.cache_stats();
  EXPECT_EQ(before.misses, 2);
  std::vector<loopir::LoopNest> good = {example41(6), example42(6)};
  ASSERT_TRUE(compiler.compile_all(good).has_value());
  CacheStats after = compiler.cache_stats();
  EXPECT_EQ(after.misses, 2);
  EXPECT_EQ(after.hits, before.hits + 2);
}

// ---------------------------------------------------------- execute_batch

TEST(ExecuteBatch, MatchesIndividualExecution) {
  Compiler compiler;
  CompiledLoop loop = compiler.compile(example41(5)).value();
  std::vector<loopir::LoopNest> bounds;
  for (i64 n : {i64{5}, i64{7}, i64{9}, i64{11}, i64{5}, i64{13}})
    bounds.push_back(example41(n));

  ExecPolicy policy = ExecPolicy{}.threads(2);
  std::vector<ExecReport> reports =
      loop.execute_batch(bounds, policy).value();
  ASSERT_EQ(reports.size(), bounds.size());

  for (std::size_t k = 0; k < bounds.size(); ++k) {
    CompiledLoop h = loop.at(bounds[k]).value();
    exec::ArrayStore store(h.nest());
    store.fill_pattern();
    ExecReport single = h.execute(policy, store).value();
    EXPECT_EQ(reports[k].checksum, single.checksum) << "request " << k;
    EXPECT_EQ(reports[k].iterations, single.iterations) << "request " << k;
  }

  // At one worker every report field but the timings is deterministic, so
  // a batched request must report exactly what it reports alone — an
  // inspected (indirect) request beside affine ones included.
  const test_inputs::IndirectInput in = test_inputs::indirect_inputs().front();
  CompiledLoop indirect = compiler.compile(in.nest).value();
  for (ExecBackend backend : {ExecBackend::kCompiled, ExecBackend::kJit}) {
    const ExecPolicy one = ExecPolicy{}.threads(1).backend(backend);
    std::vector<exec::ArrayStore> stores = {test_inputs::initial_store(in),
                                            test_inputs::initial_store(in)};
    std::vector<BatchRequest> requests = {{loop.at(bounds[1]).value(), nullptr},
                                          {indirect, &stores[0]},
                                          {loop.at(bounds[3]).value(), nullptr},
                                          {indirect, &stores[1]}};
    std::vector<ExecReport> batch = execute_batch(requests, one).value();
    ASSERT_EQ(batch.size(), requests.size());
    for (std::size_t k = 0; k < requests.size(); ++k) {
      exec::ArrayStore store = requests[k].store
                                   ? test_inputs::initial_store(in)
                                   : exec::ArrayStore(requests[k].loop.nest());
      if (!requests[k].store) store.fill_pattern();
      const ExecReport single = requests[k].loop.execute(one, store).value();
      const ExecReport& got = batch[k];
      const std::string where = "backend " +
                                std::to_string(static_cast<int>(backend)) +
                                " request " + std::to_string(k);
      EXPECT_EQ(got.iterations, single.iterations) << where;
      EXPECT_EQ(got.tasks, single.tasks) << where;
      EXPECT_EQ(got.workers_used, single.workers_used) << where;
      EXPECT_EQ(got.inspector, single.inspector) << where;
      EXPECT_EQ(got.inspector_classes, single.inspector_classes) << where;
      EXPECT_EQ(got.inspector_chains, single.inspector_chains) << where;
      EXPECT_EQ(got.inspector_max_component, single.inspector_max_component)
          << where;
      EXPECT_EQ(got.inspector_dependent, single.inspector_dependent) << where;
      EXPECT_EQ(got.jit, single.jit) << where;
      EXPECT_EQ(got.jit_partitioned, single.jit_partitioned) << where;
      EXPECT_EQ(got.checksum, single.checksum) << where;
      EXPECT_EQ(got.inspector, requests[k].store != nullptr) << where;
    }
  }
}

TEST(ExecuteBatch, AllBackendsAgreeThroughTheBatchPath) {
  // The batch path has its own kernel plumbing (one compiled body per
  // executor bound to each request's store, one native kernel per group):
  // cross-check it against the sequential reference per backend, like the
  // differential harness does for single execute().
  Compiler compiler;
  CompiledLoop loop = compiler.compile(example42(7)).value();
  exec::ArrayStore ref(loop.nest());
  ref.fill_pattern();
  exec::ArrayStore init = ref;
  exec::run_sequential(loop.nest(), ref);

  for (ExecBackend b : {ExecBackend::kInterpreter, ExecBackend::kCompiled,
                        ExecBackend::kJit, ExecBackend::kInspector}) {
    std::vector<exec::ArrayStore> stores(4, init);
    std::vector<exec::ArrayStore*> ptrs;
    for (auto& s : stores) ptrs.push_back(&s);
    std::vector<ExecReport> reports =
        loop.execute_batch(ptrs, ExecPolicy{}.threads(3).backend(b)).value();
    ASSERT_EQ(reports.size(), 4u);
    for (std::size_t k = 0; k < stores.size(); ++k)
      EXPECT_TRUE(stores[k] == ref)
          << "backend " << static_cast<int>(b) << " request " << k;
  }
}

TEST(ExecuteBatch, MixedStructureFreeFunction) {
  Compiler compiler;
  std::vector<loopir::LoopNest> nests = {example41(6), example42(6),
                                         core::zero_column(12), example41(9)};
  std::vector<CompiledLoop> loops = compiler.compile_all(nests).value();

  std::vector<BatchRequest> requests;
  for (const CompiledLoop& l : loops) requests.push_back({l, nullptr});
  std::vector<ExecReport> reports =
      execute_batch(requests, ExecPolicy{}.threads(2), compiler.pool())
          .value();
  ASSERT_EQ(reports.size(), loops.size());

  for (std::size_t k = 0; k < loops.size(); ++k) {
    exec::ArrayStore store(loops[k].nest());
    store.fill_pattern();
    ExecReport single =
        loops[k].execute(ExecPolicy{}.threads(2), store).value();
    EXPECT_EQ(reports[k].checksum, single.checksum) << "request " << k;
  }
}

TEST(ExecuteBatch, WrongStructureBoundsSurfaceIndex) {
  Compiler compiler;
  CompiledLoop loop = compiler.compile(example41(5)).value();
  std::vector<loopir::LoopNest> bounds = {example41(6), example41(7),
                                          example42(6)};
  Expected<std::vector<ExecReport>> r = loop.execute_batch(bounds);
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().kind, ErrorKind::kPrecondition);
  EXPECT_EQ(r.error().index, 2);
}

// Two requests naming one store would be two unsynchronized writers: the
// batch refuses them typed, at the second request, before anything runs.
TEST(ExecuteBatch, AliasedStoresFailTypedBeforeAnyRequestRuns) {
  Compiler compiler;
  CompiledLoop loop = compiler.compile(example42(7)).value();
  exec::ArrayStore a(loop.nest());
  a.fill_pattern();
  exec::ArrayStore b = a;
  const exec::ArrayStore init = a;
  std::vector<exec::ArrayStore*> stores = {&a, &b, &a};
  for (ExecBackend backend :
       {ExecBackend::kInterpreter, ExecBackend::kCompiled, ExecBackend::kJit,
        ExecBackend::kInspector}) {
    Expected<std::vector<ExecReport>> r =
        loop.execute_batch(stores, ExecPolicy{}.threads(2).backend(backend));
    ASSERT_FALSE(r.has_value()) << static_cast<int>(backend);
    EXPECT_EQ(r.error().kind, ErrorKind::kPrecondition);
    EXPECT_EQ(r.error().index, 2);
    EXPECT_TRUE(a == init && b == init) << static_cast<int>(backend);
  }
}

i64 counter_value(const char* name) {
  return obs::MetricsRegistry::instance().counter(name).value();
}

/// Enables metrics for the test body and restores the prior state.
class ScopedMetrics {
 public:
  ScopedMetrics() : was_(obs::MetricsRegistry::enabled()) {
    obs::MetricsRegistry::instance().enable();
  }
  ~ScopedMetrics() {
    if (!was_) obs::MetricsRegistry::instance().disable();
  }

 private:
  bool was_;
};

// A batch binds every request before any of them runs, so a hostile index
// array fails the whole batch kPrecondition at its request's index: every
// store unchanged (no request's leaves ran) and no cc started (the hostile
// request's row kernel is fetched only after its inspection succeeds).
// Repaired, the same batch runs bit-identically.
TEST(ExecuteBatch, HostileIndexArrayFailsBeforeAnyRequestRuns) {
  constexpr i64 n = 256;
  ScopedMetrics metrics;
  const test_inputs::IndirectInput benign =
      test_inputs::indirect_inputs().front();
  for (bool bad_position : {false, true}) {
    // indirect_nest(n, n): its own bounds, so its row kernel has its own
    // memo key. B holds a value far past A's declared [0, n], or is cut to
    // half the trip count for a position outside B.
    LoopNest hostile = test_inputs::indirect_nest(n, n);
    if (bad_position) {
      std::vector<loopir::ArrayDecl> arrays = hostile.arrays();
      for (loopir::ArrayDecl& a : arrays)
        if (a.name == "B") a.dims = {{0, n / 2 - 1}};
      hostile = LoopNest(hostile.levels(), arrays, hostile.body());
    }
    exec::ArrayStore hostile_init(hostile);
    hostile_init.fill_pattern();
    const i64 b_len = hostile.array("B").dims.front().second + 1;
    for (i64 i = 0; i < b_len; ++i)
      hostile_init.write("B", intlin::Vec{i}, i % 8);
    if (!bad_position) hostile_init.write("B", intlin::Vec{n / 2}, i64{1} << 40);

    for (ExecBackend backend : {ExecBackend::kCompiled, ExecBackend::kJit}) {
      for (std::size_t k : {1u, 3u}) {
        Compiler compiler;  // fresh memos: the hostile kernel would need cc
        jit::JitOptions jo;
        jo.disk_cache = false;
        // Slot k is hostile; the other indirect slot is benign.
        std::vector<CompiledLoop> order = {
            compiler.compile(example41(8)).value(),
            compiler.compile(benign.nest).value(),
            compiler.compile(example42(7)).value(),
            compiler.compile(hostile).value()};
        if (k == 1) std::swap(order[1], order[3]);
        // Warm every benign kernel: only the hostile request's may need cc.
        if (backend == ExecBackend::kJit)
          for (std::size_t j = 0; j < order.size(); ++j)
            if (j != k) (void)order[j].jit(jo);
        std::vector<exec::ArrayStore> stores;
        for (std::size_t j = 0; j < order.size(); ++j) {
          if (j == k) {
            stores.push_back(hostile_init);
          } else if (order[j].analysis().affine) {
            stores.emplace_back(order[j].nest());
            stores.back().fill_pattern();
          } else {
            stores.push_back(test_inputs::initial_store(benign));
          }
        }
        std::vector<BatchRequest> requests;
        for (std::size_t j = 0; j < order.size(); ++j)
          requests.push_back({order[j], &stores[j]});
        const std::vector<exec::ArrayStore> before = stores;

        for (std::size_t threads : {1u, 8u}) {
          const std::string where =
              std::string(bad_position ? "position" : "value") + " backend " +
              std::to_string(static_cast<int>(backend)) + " k=" +
              std::to_string(k) + " @" + std::to_string(threads);
          const i64 builds = counter_value("vdep_jit_builds_total");
          Expected<std::vector<ExecReport>> r = execute_batch(
              requests,
              ExecPolicy{}.threads(threads).backend(backend).jit_options(jo));
          ASSERT_FALSE(r.has_value()) << where;
          EXPECT_EQ(r.error().kind, ErrorKind::kPrecondition) << where;
          EXPECT_EQ(r.error().index, static_cast<int>(k)) << where;
          for (std::size_t j = 0; j < stores.size(); ++j)
            EXPECT_TRUE(stores[j] == before[j])
                << where << ": request " << j << " ran";
          EXPECT_EQ(counter_value("vdep_jit_builds_total"), builds)
              << where << ": a failed inspection started cc";
        }

        // Not vacuous: repaired, the same batch runs, bit-identical.
        if (bad_position) continue;
        stores[k].write("B", intlin::Vec{n / 2}, 0);
        std::vector<exec::ArrayStore> refs = stores;
        for (std::size_t j = 0; j < refs.size(); ++j)
          exec::run_sequential(order[j].nest(), refs[j]);
        Expected<std::vector<ExecReport>> r = execute_batch(
            requests, ExecPolicy{}.threads(8).backend(backend).jit_options(jo));
        ASSERT_TRUE(r.has_value()) << r.error().to_string();
        for (std::size_t j = 0; j < stores.size(); ++j)
          EXPECT_TRUE(stores[j] == refs[j]) << "repaired request " << j;
        EXPECT_EQ((*r)[k].jit, backend == ExecBackend::kJit &&
                                   jit::discover_toolchain().has_value());
      }
    }
  }
}

TEST(ExecuteBatch, EmptyBatchIsEmptySuccess) {
  Compiler compiler;
  CompiledLoop loop = compiler.compile(example41(5)).value();
  EXPECT_TRUE(
      loop.execute_batch(std::span<const loopir::LoopNest>{}).value().empty());
}

// A leaf that throws mid-batch (exact arithmetic overflowing inside request
// 2's descriptors) aborts every worker; the error must still name the
// request it came from, at one worker and at several.
TEST(ExecuteBatch, LeafOverflowSurfacesRequestIndex) {
  Compiler compiler;
  CompiledLoop loop = compiler.compile(core::uniform_wavefront(20)).value();
  std::vector<loopir::LoopNest> bounds = {
      core::uniform_wavefront(20), core::uniform_wavefront(20),
      core::uniform_wavefront(60), core::uniform_wavefront(20)};
  for (std::size_t threads : {1u, 4u}) {
    Expected<std::vector<ExecReport>> r = loop.execute_batch(
        bounds,
        ExecPolicy{}.threads(threads).backend(ExecBackend::kInterpreter));
    ASSERT_FALSE(r.has_value()) << "threads=" << threads;
    EXPECT_EQ(r.error().kind, ErrorKind::kOverflow) << "threads=" << threads;
    EXPECT_EQ(r.error().index, 2) << "threads=" << threads;
  }
}

// N threads x M batches through one shared session and its pool: the
// batch scheduler, the plan-cache memos and ThreadPool::parallel_for all
// interleave. Runs under TSan in CI.
TEST(ExecuteBatchHammer, ConcurrentBatchesOnSharedSessionPool) {
  constexpr int kThreads = 4;
#ifdef VDEP_TSAN
  constexpr int kBatchesPerThread = 3;
#else
  constexpr int kBatchesPerThread = 8;
#endif
  Compiler compiler(CompileOptions{}.pool_threads(3));
  CompiledLoop loop = compiler.compile(example41(6)).value();

  // Expected per-size checksums, computed once serially.
  std::vector<loopir::LoopNest> bounds;
  for (i64 n : {i64{6}, i64{8}, i64{10}, i64{12}}) bounds.push_back(example41(n));
  std::vector<i64> expected;
  for (const loopir::LoopNest& b : bounds) {
    CompiledLoop h = loop.at(b).value();
    exec::ArrayStore store(h.nest());
    store.fill_pattern();
    expected.push_back(h.execute(ExecPolicy{}.threads(1), store)->checksum);
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kBatchesPerThread; ++i) {
        Expected<std::vector<ExecReport>> r = loop.execute_batch(
            bounds, ExecPolicy{}.threads(3), compiler.pool());
        if (!r || r->size() != bounds.size()) {
          ++failures;
          continue;
        }
        for (std::size_t k = 0; k < bounds.size(); ++k)
          if ((*r)[k].checksum != expected[k]) ++failures;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

// ------------------------------------------------------- executable memo

/// `nest`'s pattern-filled store with every element shifted by `salt`, so
/// stores at one bounds differ in content.
/// `init` with `salt` added to every cell of every array outside `keep`.
exec::ArrayStore salted_store(const exec::ArrayStore& init,
                              const LoopNest& nest, i64 salt,
                              const std::vector<std::string>& keep) {
  exec::ArrayStore s = init;
  for (const loopir::ArrayDecl& a : nest.arrays())
    if (std::find(keep.begin(), keep.end(), a.name) == keep.end())
      for (i64& v : s.raw_mutable(a.name)) v += salt;
  return s;
}

// Warm requests at one key share one executor and its one compiled body
// (or, under kJit, one native kernel), each bound to the request's own
// store; an inspected key shares its partition and body too while the
// index arrays stay unchanged. Every result must stay bit-identical to
// the sequential reference whatever the data arrays hold, through
// execute() and execute_batch() alike.
TEST(ExecutableMemo, HitsAreBitIdenticalAcrossStoresAndPaths) {
  struct Input {
    std::string name;
    LoopNest nest;
    ExecBackend backend;
    exec::ArrayStore init;
    std::vector<std::string> index;  ///< arrays the salt leaves alone
  };
  std::vector<Input> inputs;
  auto pattern = [](const LoopNest& nest) {
    exec::ArrayStore s(nest);
    s.fill_pattern();
    return s;
  };
  inputs.push_back({"example_4_2 compiled", example42(9),
                    ExecBackend::kCompiled, pattern(example42(9)), {}});
  const test_inputs::IndirectInput scatter =
      test_inputs::indirect_inputs().front();
  inputs.push_back({"scatter inspector", scatter.nest, ExecBackend::kInspector,
                    test_inputs::initial_store(scatter), {"B"}});
  const bool native = jit::discover_toolchain().has_value();
  if (native)
    inputs.push_back({"example_4_2 jit", example42(9), ExecBackend::kJit,
                      pattern(example42(9)), {}});
  for (const Input& in : inputs) {
    Compiler compiler;
    CompiledLoop loop = compiler.compile(in.nest).value();
    auto store_at = [&](i64 salt) {
      return salted_store(in.init, in.nest, salt, in.index);
    };
    auto reference = [&](i64 salt) {
      exec::ArrayStore ref = store_at(salt);
      exec::run_sequential(in.nest, ref);
      return ref;
    };
    const bool jit = in.backend == ExecBackend::kJit;
    for (std::size_t threads : {1u, 2u, 8u}) {
      const ExecPolicy policy =
          ExecPolicy{}.threads(threads).backend(in.backend);
      for (i64 salt : {0, 7, -3}) {
        exec::ArrayStore store = store_at(salt);
        Expected<ExecReport> rep = loop.execute(policy, store);
        ASSERT_TRUE(rep) << in.name << ": " << rep.error().to_string();
        EXPECT_EQ(rep->jit, jit) << in.name;
        EXPECT_TRUE(store == reference(salt))
            << in.name << " execute threads=" << threads << " salt=" << salt;
      }
      std::vector<exec::ArrayStore> stores;
      for (i64 salt : {1, 2, 3, 4}) stores.push_back(store_at(salt));
      std::vector<exec::ArrayStore*> ptrs;
      for (exec::ArrayStore& st : stores) ptrs.push_back(&st);
      Expected<std::vector<ExecReport>> reps = loop.execute_batch(ptrs, policy);
      ASSERT_TRUE(reps) << in.name << ": " << reps.error().to_string();
      for (std::size_t k = 0; k < stores.size(); ++k) {
        EXPECT_EQ((*reps)[k].jit, jit) << in.name;
        EXPECT_TRUE(stores[k] == reference(static_cast<i64>(k) + 1))
            << in.name << " execute_batch threads=" << threads << " request "
            << k;
      }
    }
  }
}

// The grain follows the worker count, so the count is part of the memo
// key: the same bounds at 1 and 8 workers must split differently, and the
// 1-worker entry must survive the 8-worker request.
TEST(ExecutableMemo, WorkerCountIsPartOfTheKey) {
  Compiler compiler;
  CompiledLoop loop = compiler.compile(example41(64)).value();
  auto tasks = [&](std::size_t threads) {
    exec::ArrayStore store(loop.nest());
    store.fill_pattern();
    return loop.execute(ExecPolicy{}.threads(threads), store).value().tasks;
  };
  const i64 one = tasks(1);
  const i64 eight = tasks(8);
  EXPECT_NE(one, eight);
  EXPECT_EQ(tasks(1), one);
  EXPECT_EQ(tasks(8), eight);
}

// example_4_2's four classes write cells a few elements apart, so its class
// range never splits and the lone root piece runs on the calling thread; a
// nest whose classes are whole rows apart still spreads them over workers.
TEST(ExecReportWorkers, SharedLineClassesRunOnOneWorker) {
  Compiler compiler;
  CompiledLoop loop = compiler.compile(example42(16)).value();
  for (ExecBackend b : {ExecBackend::kJit, ExecBackend::kCompiled}) {
    ExecReport rep =
        loop.check(ExecPolicy{}.threads(4).backend(b)).value();
    EXPECT_TRUE(rep.verified);
    EXPECT_EQ(rep.workers_used, 1) << "backend " << static_cast<int>(b);
    EXPECT_EQ(rep.tasks, 1) << "backend " << static_cast<int>(b);
    EXPECT_EQ(rep.steals, 0) << "backend " << static_cast<int>(b);
  }
  EXPECT_NE(loop.summary().find("class range kept on one worker"),
            std::string::npos);

  // A[i1, i2] = A[i1 - 2, i2] + A[i1, i2 - 1] + 1: the classes are row
  // parity, 17 cells apart at n = 16.
  LoopNestBuilder rb;
  rb.loop("i1", 0, 16).loop("i2", 0, 16);
  rb.array("A", {{-2, 16}, {-1, 16}});
  rb.assign(rb.ref("A", {rb.idx(0), rb.idx(1)}),
            Expr::add(Expr::add(rb.read("A", {rb.affine({1, 0}, -2), rb.idx(1)}),
                                rb.read("A", {rb.idx(0), rb.affine({0, 1}, -1)})),
                      Expr::constant(1)));
  CompiledLoop rows = compiler.compile(rb.build()).value();
  for (ExecBackend b : {ExecBackend::kJit, ExecBackend::kCompiled}) {
    ExecReport rep = rows.check(ExecPolicy{}.threads(4).backend(b)).value();
    EXPECT_TRUE(rep.verified);
    EXPECT_GT(rep.workers_used, 1) << "backend " << static_cast<int>(b);
  }
  EXPECT_NE(rows.summary().find("class range may split"), std::string::npos);
}

// Indirect nests are never memoized (their proof covers index-array
// contents): a handle that ran once on a benign index array must still
// refuse a hostile one on its next run, typed and before any write.
TEST(ExecutableMemo, IndirectHandleRechecksEveryRun) {
  constexpr i64 n = 16;
  LoopNestBuilder b;
  b.loop("i", 0, n - 1);
  b.array("A", {{0, 7}});
  b.array("B", {{0, n - 1}});
  loopir::ArrayRef a;
  a.array = "A";
  a.subscripts = {b.cst(0)};
  a.indirect = {loopir::IndirectSubscript{"B", b.idx(0)}};
  b.assign(a, Expr::add(Expr::read(a), Expr::constant(1)));
  LoopNest nest = b.build();
  Compiler compiler;
  CompiledLoop loop = compiler.compile(nest).value();

  for (std::size_t threads : {1u, 8u}) {
    exec::ArrayStore store(nest);
    store.fill_pattern();
    for (i64 i = 0; i < n; ++i) store.write("B", intlin::Vec{i}, i % 8);
    exec::ArrayStore ref = store;
    exec::run_sequential(nest, ref);
    ASSERT_TRUE(loop.execute(ExecPolicy{}.threads(threads), store));
    EXPECT_TRUE(store == ref) << "threads=" << threads;

    // A value far past A's declared [0, 7], at the last iteration.
    store.write("B", intlin::Vec{n - 1}, i64{1} << 20);
    const exec::ArrayStore before = store;
    Expected<ExecReport> r = loop.execute(ExecPolicy{}.threads(threads), store);
    ASSERT_FALSE(r) << "threads=" << threads;
    EXPECT_EQ(r.error().kind, ErrorKind::kPrecondition) << "threads=" << threads;
    EXPECT_TRUE(store == before) << "threads=" << threads;
  }
}

// Single execute() and execute_batch() requests racing on one artifact:
// concurrent first builds of one key, and many runs sharing one executor's
// compiled body, each through its own store's binding. Runs under TSan in
// CI.
TEST(ExecutableMemoHammer, ConcurrentExecuteAndBatchOnOneArtifact) {
  constexpr int kThreads = 4;
#ifdef VDEP_TSAN
  constexpr int kRoundsPerThread = 3;
#else
  constexpr int kRoundsPerThread = 8;
#endif
  Compiler compiler(CompileOptions{}.pool_threads(3));
  CompiledLoop loop = compiler.compile(example42(6)).value();

  std::vector<loopir::LoopNest> bounds;
  std::vector<i64> expected;
  for (i64 n : {i64{6}, i64{8}, i64{10}}) {
    bounds.push_back(example42(n));
    exec::ArrayStore ref(bounds.back());
    ref.fill_pattern();
    exec::run_sequential(bounds.back(), ref);
    expected.push_back(ref.checksum());
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Two worker counts, so two keys per bounds race as well.
      const ExecPolicy policy = ExecPolicy{}.threads(t % 2 ? 3 : 2);
      for (int i = 0; i < kRoundsPerThread; ++i) {
        if ((t + i) % 2) {
          Expected<std::vector<ExecReport>> r =
              loop.execute_batch(bounds, policy, compiler.pool());
          if (!r || r->size() != bounds.size()) {
            ++failures;
            continue;
          }
          for (std::size_t k = 0; k < bounds.size(); ++k)
            if ((*r)[k].checksum != expected[k]) ++failures;
        } else {
          for (std::size_t k = 0; k < bounds.size(); ++k) {
            CompiledLoop h = loop.at(bounds[k]).value();
            exec::ArrayStore store(h.nest());
            store.fill_pattern();
            Expected<ExecReport> r =
                i % 4 == 0 ? h.execute(policy, store, compiler.pool())
                           : h.execute(policy, store);
            if (!r || r->checksum != expected[k]) ++failures;
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

// ------------------------------------------------------- inspection memo

/// An indirect nest routes to the inspector whatever the backend says;
/// these are the three whose leaves differ (CompiledKernel, CompiledKernel,
/// native row kernel).
constexpr ExecBackend kInspectedBackends[] = {
    ExecBackend::kInspector, ExecBackend::kCompiled, ExecBackend::kJit};

std::vector<test_inputs::IndirectInput> memo_inputs() {
  std::vector<test_inputs::IndirectInput> inputs =
      test_inputs::indirect_inputs();
  inputs.push_back(test_inputs::permutation_input(48));
  return inputs;
}

std::string memo_case(const std::string& name, ExecBackend backend,
                      std::size_t threads) {
  return name + " backend " + std::to_string(static_cast<int>(backend)) +
         " @" + std::to_string(threads);
}

exec::ArrayStore sequential_result(const LoopNest& nest,
                                   const exec::ArrayStore& init) {
  exec::ArrayStore ref = init;
  exec::run_sequential(nest, ref);
  return ref;
}

TEST(InspectionMemo, ReuseIsBitIdenticalToFreshInspection) {
  // The second request at one key proves the memoized partition for its
  // equal store (here a different object) and runs it without inspecting:
  // the same store and the same report shape as the fresh first request.
  // The key holds no worker count, so only the first worker count's first
  // request inspects: the later worker counts reuse its partition too.
  for (const test_inputs::IndirectInput& in : memo_inputs()) {
    const exec::ArrayStore init = test_inputs::initial_store(in);
    const exec::ArrayStore ref = sequential_result(in.nest, init);
    Compiler compiler;
    CompiledLoop loop = compiler.compile(in.nest).value();
    for (ExecBackend backend : kInspectedBackends) {
      std::optional<ExecReport> fresh;
      for (std::size_t threads : {1u, 2u, 8u}) {
        const std::string where = memo_case(in.name, backend, threads);
        const ExecPolicy policy =
            ExecPolicy{}.threads(threads).backend(backend);
        exec::ArrayStore first = init, second = init;
        Expected<ExecReport> r1 = loop.execute(policy, first);
        Expected<ExecReport> r2 = loop.execute(policy, second);
        ASSERT_TRUE(r1 && r2) << where;
        EXPECT_EQ(r1->inspection,
                  fresh ? Inspection::kReused : Inspection::kFresh)
            << where;
        EXPECT_EQ(r2->inspection, Inspection::kReused) << where;
        if (!fresh) fresh = *r1;
        EXPECT_EQ(r1->inspector_classes, fresh->inspector_classes) << where;
        EXPECT_EQ(r1->checksum, fresh->checksum) << where;
        EXPECT_TRUE(r2->inspector) << where;
        EXPECT_TRUE(first == ref) << where;
        EXPECT_TRUE(second == ref) << where;
        EXPECT_EQ(r2->iterations, r1->iterations) << where;
        EXPECT_EQ(r2->inspector_classes, r1->inspector_classes) << where;
        EXPECT_EQ(r2->inspector_chains, r1->inspector_chains) << where;
        EXPECT_EQ(r2->inspector_max_component, r1->inspector_max_component)
            << where;
        EXPECT_EQ(r2->inspector_dependent, r1->inspector_dependent) << where;
        EXPECT_EQ(r2->jit, r1->jit) << where;
        EXPECT_EQ(r2->checksum, r1->checksum) << where;
      }
    }
  }
}

TEST(InspectionMemo, OneChangedIndexEntryReinspects) {
  for (const test_inputs::IndirectInput& in : memo_inputs()) {
    const exec::ArrayStore init = test_inputs::initial_store(in);
    const exec::ArrayStore changed =
        test_inputs::with_one_index_entry_changed(in, init);
    ASSERT_FALSE(changed == init) << in.name;
    const exec::ArrayStore ref = sequential_result(in.nest, init);
    const exec::ArrayStore changed_ref = sequential_result(in.nest, changed);
    Compiler compiler;
    CompiledLoop loop = compiler.compile(in.nest).value();
    for (ExecBackend backend : kInspectedBackends) {
      for (std::size_t threads : {1u, 2u, 8u}) {
        const std::string where = memo_case(in.name, backend, threads);
        const ExecPolicy policy =
            ExecPolicy{}.threads(threads).backend(backend);
        // init (fresh at the first worker count; later ones reuse the
        // entry the previous worker count's last step left), changed, init
        // again (each a mismatch with the entry the one before published),
        // then init once more (reused).
        const std::pair<const exec::ArrayStore*, Inspection> steps[] = {
            {&init, threads == 1 ? Inspection::kFresh : Inspection::kReused},
            {&changed, Inspection::kReinspected},
            {&init, Inspection::kReinspected},
            {&init, Inspection::kReused}};
        for (const auto& [from, expect] : steps) {
          exec::ArrayStore store = *from;
          Expected<ExecReport> r = loop.execute(policy, store);
          ASSERT_TRUE(r) << where << ": " << r.error().to_string();
          EXPECT_EQ(r->inspection, expect) << where;
          EXPECT_TRUE(store == (from == &init ? ref : changed_ref)) << where;
        }
      }
    }
  }
}

TEST(InspectionMemo, HostileEntryFailsBeforeAnyWriteAndAnyCc) {
  // One index entry set far outside every target, on a fresh key and on a
  // key whose memoized partition the benign store proves for: kPrecondition
  // before any write and any cc run, and the memo stays as it was.
  ScopedMetrics metrics;
  jit::JitOptions jo;
  jo.disk_cache = false;
  for (const test_inputs::IndirectInput& in : memo_inputs()) {
    const exec::ArrayStore init = test_inputs::initial_store(in);
    const exec::ArrayStore ref = sequential_result(in.nest, init);
    exec::ArrayStore hostile = init;
    const auto& [array, vals] = *in.index.begin();
    hostile.write(array, intlin::Vec{in.nest.array(array).dims.front().first},
                  i64{1} << 40);
    for (ExecBackend backend : kInspectedBackends) {
      for (std::size_t threads : {1u, 2u, 8u}) {
        const std::string where = memo_case(in.name, backend, threads);
        Compiler compiler;  // fresh memos: the row kernel would need cc
        CompiledLoop loop = compiler.compile(in.nest).value();
        const ExecPolicy policy =
            ExecPolicy{}.threads(threads).backend(backend).jit_options(jo);
        auto refused = [&](const char* when) {
          exec::ArrayStore store = hostile;
          const i64 builds = counter_value("vdep_jit_builds_total");
          Expected<ExecReport> r = loop.execute(policy, store);
          ASSERT_FALSE(r) << where << " " << when;
          EXPECT_EQ(r.error().kind, ErrorKind::kPrecondition) << where;
          EXPECT_TRUE(store == hostile) << where << " " << when;
          EXPECT_EQ(counter_value("vdep_jit_builds_total"), builds)
              << where << " " << when << ": a failed inspection started cc";
        };
        auto benign = [&](Inspection expect) {
          exec::ArrayStore store = init;
          Expected<ExecReport> r = loop.execute(policy, store);
          ASSERT_TRUE(r) << where << ": " << r.error().to_string();
          EXPECT_EQ(r->inspection, expect) << where;
          EXPECT_TRUE(store == ref) << where;
        };
        refused("first");
        benign(Inspection::kFresh);  // the failure published nothing
        refused("after a benign request");
        benign(Inspection::kReused);  // nor replaced the benign entry
      }
    }
  }
}

TEST(InspectionMemo, BatchOfTwoIndexContentsRunsBoth) {
  // Two stores at one key with different B, in one batch: each request
  // binds its own partition (the second re-inspects and replaces the
  // first's entry while the first request still holds it).
  for (const test_inputs::IndirectInput& in : memo_inputs()) {
    const exec::ArrayStore init = test_inputs::initial_store(in);
    const exec::ArrayStore changed =
        test_inputs::with_one_index_entry_changed(in, init);
    const exec::ArrayStore ref = sequential_result(in.nest, init);
    const exec::ArrayStore changed_ref = sequential_result(in.nest, changed);
    Compiler compiler;
    CompiledLoop loop = compiler.compile(in.nest).value();
    for (ExecBackend backend : kInspectedBackends) {
      for (std::size_t threads : {1u, 2u, 8u}) {
        const std::string where = memo_case(in.name, backend, threads);
        const ExecPolicy policy =
            ExecPolicy{}.threads(threads).backend(backend);
        exec::ArrayStore a = init, b = changed;
        exec::ArrayStore* stores[] = {&a, &b};
        Expected<std::vector<ExecReport>> r = loop.execute_batch(
            std::span<exec::ArrayStore* const>(stores), policy);
        ASSERT_TRUE(r) << where << ": " << r.error().to_string();
        // Fresh at the first worker count; later ones find the entry the
        // previous worker count's last batch left for `init`.
        EXPECT_EQ((*r)[0].inspection,
                  threads == 1 ? Inspection::kFresh : Inspection::kReused)
            << where;
        EXPECT_EQ((*r)[1].inspection, Inspection::kReinspected) << where;
        EXPECT_TRUE(a == ref) << where;
        EXPECT_TRUE(b == changed_ref) << where;

        // Two equal stores: the first replaces `changed`'s entry, the
        // second proves for it.
        exec::ArrayStore c = init, d = init;
        exec::ArrayStore* same[] = {&c, &d};
        r = loop.execute_batch(std::span<exec::ArrayStore* const>(same),
                               policy);
        ASSERT_TRUE(r) << where << ": " << r.error().to_string();
        EXPECT_EQ((*r)[0].inspection, Inspection::kReinspected) << where;
        EXPECT_EQ((*r)[1].inspection, Inspection::kReused) << where;
        EXPECT_TRUE(c == ref) << where;
        EXPECT_TRUE(d == ref) << where;
      }
    }
  }
}

TEST(InspectionMemo, AffineNestUnderInspectorReusesFromSecondRequest) {
  // An affine nest has no index arrays: under explicit kInspector its
  // partition proves for every store of its shape, at every worker count
  // (the key holds none).
  for (const LoopNest& nest : {example41(12), example42(7)}) {
    Compiler compiler;
    CompiledLoop loop = compiler.compile(nest).value();
    exec::ArrayStore init(nest);
    init.fill_pattern();
    const exec::ArrayStore ref = sequential_result(nest, init);
    for (std::size_t threads : {1u, 2u, 8u}) {
      const ExecPolicy policy =
          ExecPolicy{}.threads(threads).backend(ExecBackend::kInspector);
      for (Inspection expect :
           {threads == 1 ? Inspection::kFresh : Inspection::kReused,
            Inspection::kReused, Inspection::kReused}) {
        exec::ArrayStore store = init;
        Expected<ExecReport> r = loop.execute(policy, store);
        ASSERT_TRUE(r) << r.error().to_string();
        EXPECT_EQ(r->inspection, expect) << "@" << threads;
        EXPECT_TRUE(store == ref) << "@" << threads;
      }
      exec::ArrayStore store = init;
      Expected<ExecReport> r =
          loop.execute(ExecPolicy{}.threads(threads), store);
      ASSERT_TRUE(r) << r.error().to_string();
      EXPECT_FALSE(r->inspector);
      EXPECT_EQ(r->inspection, Inspection::kNone);
    }
  }
}

TEST(InspectionMemo, ReusedReportCarriesItsOwnCompareTime) {
  // A reused request reports the time it spent proving the memoized
  // partition, not the inspection that built it, in execute() and in a
  // batch alike; the inspector histograms count inspections only.
  ScopedMetrics metrics;
  // A[B[i], j] over i < 64, j < 4096: the compare reads B's 64 entries,
  // the inspection all 2^18 iterations, so the two times are orders of
  // magnitude apart.
  constexpr i64 rows = 64, cols = 4096;
  LoopNestBuilder nb;
  nb.loop("i", 0, rows - 1);
  nb.loop("j", 0, cols - 1);
  nb.array("A", {{0, 15}, {0, cols - 1}});
  nb.array("B", {{0, rows - 1}});
  loopir::ArrayRef ref;
  ref.array = "A";
  ref.subscripts = {nb.cst(0), nb.idx(1)};
  ref.indirect = {loopir::IndirectSubscript{"B", nb.idx(0)}, std::nullopt};
  nb.assign(ref, Expr::add(Expr::read(ref), Expr::constant(1)));
  const LoopNest nest = nb.build();
  exec::ArrayStore init(nest);
  init.fill_pattern();
  for (i64 i = 0; i < rows; ++i) init.write("B", intlin::Vec{i}, i % 16);
  Compiler compiler;
  CompiledLoop loop = compiler.compile(nest).value();
  const ExecPolicy policy = ExecPolicy{}.threads(2);
  obs::Histogram& classes = obs::MetricsRegistry::instance().histogram(
      "vdep_inspector_classes", obs::exp_buckets(1, 4.0, 16));
  obs::Counter& reused = obs::MetricsRegistry::instance().counter(
      "vdep_inspector_runs_total", "", {"inspection", "reused"});

  exec::ArrayStore fresh_store = init;
  const i64 observed = classes.count();
  Expected<ExecReport> fresh = loop.execute(policy, fresh_store);
  ASSERT_TRUE(fresh) << fresh.error().to_string();
  ASSERT_EQ(fresh->inspection, Inspection::kFresh);
  EXPECT_EQ(classes.count(), observed + 1);
  const i64 reused_before = reused.value();

  exec::ArrayStore a = init, b = init;
  Expected<ExecReport> single = loop.execute(policy, a);
  exec::ArrayStore* one[] = {&b};
  Expected<std::vector<ExecReport>> batch =
      loop.execute_batch(std::span<exec::ArrayStore* const>(one), policy);
  ASSERT_TRUE(single && batch);
  for (const ExecReport& rep : {*single, batch->front()}) {
    EXPECT_EQ(rep.inspection, Inspection::kReused);
    EXPECT_GT(rep.inspect_ns, 0);
    EXPECT_LT(rep.inspect_ns * 10, fresh->inspect_ns);
  }
  EXPECT_EQ(classes.count(), observed + 1);
  EXPECT_EQ(reused.value(), reused_before + 2);
  EXPECT_TRUE(a == fresh_store);
  EXPECT_TRUE(b == fresh_store);
}

TEST(InspectionMemo, ReusedSlotLayoutMatchesInterpreterSingleAndBatched) {
  // A reused partition runs its slot-order rows (and, under kJit, its
  // resolved-subscript table) on every inspected backend at 1, 2 and 8
  // workers on the session pool: single requests (fresh, then reused) and
  // a batch of two equal stores must all equal the kInterpreter result.
  // The inputs include 2d-indirect-first (two resolved references) and
  // read-only-array (an untracked gather through B).
  for (const test_inputs::IndirectInput& in : memo_inputs()) {
    const exec::ArrayStore init = test_inputs::initial_store(in);
    Compiler compiler(CompileOptions{}.pool_threads(4));
    CompiledLoop loop = compiler.compile(in.nest).value();
    exec::ArrayStore ref = init;
    ASSERT_TRUE(loop.execute(ExecPolicy{}.backend(ExecBackend::kInterpreter),
                             ref));
    for (ExecBackend backend : kInspectedBackends) {
      for (std::size_t threads : {1u, 2u, 8u}) {
        const std::string where = memo_case(in.name, backend, threads);
        const ExecPolicy policy =
            ExecPolicy{}.threads(threads).backend(backend);
        for (int k = 0; k < 2; ++k) {
          exec::ArrayStore store = init;
          Expected<ExecReport> r =
              loop.execute(policy, store, compiler.pool());
          ASSERT_TRUE(r) << where << ": " << r.error().to_string();
          if (k == 1) EXPECT_EQ(r->inspection, Inspection::kReused) << where;
          EXPECT_TRUE(store == ref) << where << " single #" << k;
        }
        exec::ArrayStore a = init, b = init;
        exec::ArrayStore* stores[] = {&a, &b};
        Expected<std::vector<ExecReport>> r = loop.execute_batch(
            std::span<exec::ArrayStore* const>(stores), policy,
            compiler.pool());
        ASSERT_TRUE(r) << where << ": " << r.error().to_string();
        for (const ExecReport& rep : *r)
          EXPECT_EQ(rep.inspection, Inspection::kReused) << where;
        EXPECT_TRUE(a == ref && b == ref) << where << " batched";
      }
    }
  }
}

TEST(InspectionMemo, ParallelProofOnTheSessionPoolAtEightWorkers) {
  // The sliced proof at 8 workers on the session pool (this binary runs
  // under TSan in CI): an equal store reuses the partition, a store
  // differing in the last index entry re-inspects, and each matches its
  // kInterpreter result.
  constexpr i64 n = 1 << 16;
  const test_inputs::IndirectInput in = test_inputs::permutation_input(n);
  const exec::ArrayStore init = test_inputs::initial_store(in);
  exec::ArrayStore changed = init;
  const i64 last = changed.read("B", intlin::Vec{n - 1});
  changed.write("B", intlin::Vec{n - 1}, changed.read("B", intlin::Vec{n - 2}));
  changed.write("B", intlin::Vec{n - 2}, last);
  Compiler compiler(CompileOptions{}.pool_threads(4));
  CompiledLoop loop = compiler.compile(in.nest).value();
  const ExecPolicy interpret = ExecPolicy{}.backend(ExecBackend::kInterpreter);
  exec::ArrayStore ref = init, changed_ref = changed;
  ASSERT_TRUE(loop.execute(interpret, ref));
  ASSERT_TRUE(loop.execute(interpret, changed_ref));
  for (ExecBackend backend : {ExecBackend::kCompiled, ExecBackend::kJit}) {
    const ExecPolicy policy = ExecPolicy{}.threads(8).backend(backend);
    const std::pair<const exec::ArrayStore*, Inspection> steps[] = {
        {&init, Inspection::kFresh},
        {&init, Inspection::kReused},
        {&changed, Inspection::kReinspected},
        {&init, Inspection::kReinspected}};
    bool first = true;
    for (const auto& [from, expect] : steps) {
      exec::ArrayStore store = *from;
      Expected<ExecReport> r = loop.execute(policy, store, compiler.pool());
      ASSERT_TRUE(r) << r.error().to_string();
      // The kJit key is its own: its first request inspects afresh.
      EXPECT_EQ(r->inspection, first ? Inspection::kFresh : expect)
          << static_cast<int>(backend);
      first = false;
      EXPECT_TRUE(store == (from == &init ? ref : changed_ref))
          << static_cast<int>(backend);
    }
  }
}

// Several threads run one CompiledLoop at one key while alternating
// between two index-array contents, so the memoized partition is proved,
// refused and replaced under them. Runs under TSan in CI.
TEST(InspectionMemoHammer, ConcurrentExecuteAlternatingIndexContents) {
  constexpr int kThreads = 4;
#ifdef VDEP_TSAN
  constexpr int kRoundsPerThread = 6;
#else
  constexpr int kRoundsPerThread = 24;
#endif
  constexpr i64 n = 512;
  const LoopNest nest = test_inputs::indirect_nest(n, 127);
  exec::ArrayStore inits[2] = {exec::ArrayStore(nest), exec::ArrayStore(nest)};
  for (int k = 0; k < 2; ++k) {
    inits[k].fill_pattern();
    for (i64 i = 0; i < n; ++i)
      inits[k].write("B", intlin::Vec{i},
                     k == 0 ? (i * 5 + 2) % 128 : (i * 7 + 3) % 128);
  }
  const exec::ArrayStore refs[2] = {sequential_result(nest, inits[0]),
                                    sequential_result(nest, inits[1])};

  Compiler compiler(CompileOptions{}.pool_threads(3));
  CompiledLoop loop = compiler.compile(nest).value();
  const ExecPolicy policy = ExecPolicy{}.threads(2);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kRoundsPerThread; ++i) {
        const int k = (t + i / 2) % 2;  // two requests per content in a row
        exec::ArrayStore store = inits[k];
        Expected<ExecReport> r =
            i % 3 == 0 ? loop.execute(policy, store, compiler.pool())
                       : loop.execute(policy, store);
        if (!r || !r->inspector || !(store == refs[k])) ++failures;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

// The structural fingerprint deliberately ignores body constants and
// operators (the analysis is a function of the access sequence only), so
// `A[i+1]=A[i]+1` and `A[i+1]=A[i]+2` share one PlanArtifact — but their
// emitted C, native kernels and memoized executables must NOT be
// shared: the bounds-level memo key (bounds_render) carries the body.
TEST(BoundsRender, SameFingerprintDifferentBodySeparatesMemosAndBatches) {
  loopir::LoopNest plus1 = [] {
    LoopNestBuilder b;
    b.loop("i", 0, 9);
    b.array("A", {{-16, 32}});
    b.assign(b.ref("A", {b.affine({1}, 1)}),
             Expr::add(b.read("A", {b.idx(0)}), Expr::constant(1)));
    return b.build();
  }();
  loopir::LoopNest plus2 = [] {
    LoopNestBuilder b;
    b.loop("i", 0, 9);
    b.array("A", {{-16, 32}});
    b.assign(b.ref("A", {b.affine({1}, 1)}),
             Expr::add(b.read("A", {b.idx(0)}), Expr::constant(2)));
    return b.build();
  }();
  ASSERT_EQ(structural_fingerprint(plus1), structural_fingerprint(plus2));
  EXPECT_NE(bounds_render(plus1), bounds_render(plus2));

  Compiler compiler;
  CompiledLoop l1 = compiler.compile(plus1).value();
  CompiledLoop l2 = compiler.compile(plus2).value();
  EXPECT_EQ(&l1.analysis(), &l2.analysis());  // one artifact by design
  // Distinct emitted C despite the shared artifact and identical bounds.
  EXPECT_NE(l1.codegen(), l2.codegen());

  // And distinct batch execution: each request must run ITS body.
  std::vector<BatchRequest> requests;
  exec::ArrayStore s1(plus1), s2(plus2);
  s1.fill_pattern();
  s2.fill_pattern();
  requests.push_back({l1, &s1});
  requests.push_back({l2, &s2});
  ASSERT_TRUE(execute_batch(requests, ExecPolicy{}.threads(2)).has_value());
  exec::ArrayStore r1(plus1), r2(plus2);
  r1.fill_pattern();
  r2.fill_pattern();
  exec::run_sequential(plus1, r1);
  exec::run_sequential(plus2, r2);
  EXPECT_TRUE(s1 == r1);
  EXPECT_TRUE(s2 == r2);
}

// -------------------------------------------------- overflow diagnostics
//
// uniform_wavefront's values are binomial in n (A[i][j] sums two
// neighbors), so exact arithmetic must refuse large sizes instead of
// wrapping. PR 2 reported-and-skipped this in the example sweep; the
// contract is now a first-class typed diagnostic: any API-level execution
// of an overflowing nest returns ErrorKind::kOverflow.
TEST(OverflowDiagnostic, WavefrontOverflowIsTypedNotSilent) {
  Compiler compiler;
  CompiledLoop big = compiler.compile(core::uniform_wavefront(60)).value();
  Expected<ExecReport> r = big.check(ExecPolicy{}.threads(2));
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().kind, ErrorKind::kOverflow);
  EXPECT_NE(r.error().message.find("overflow"), std::string::npos);

  // The same structure at a safe size executes and verifies cleanly (the
  // diagnostic is about the bounds, not the structure).
  CompiledLoop small = big.at(core::uniform_wavefront(20)).value();
  EXPECT_TRUE(small.check(ExecPolicy{}.threads(2))->verified);
}

// The compiled (postfix) backend keeps the same contract: its body
// arithmetic throws instead of wrapping, whatever the worker count.
TEST(OverflowDiagnostic, CompiledBackendOverflowIsTyped) {
  Compiler compiler;
  CompiledLoop big = compiler.compile(core::uniform_wavefront(60)).value();
  for (std::size_t threads : {1u, 4u}) {
    exec::ArrayStore store(big.nest());
    store.fill_pattern();
    Expected<ExecReport> r = big.execute(
        ExecPolicy{}.threads(threads).backend(ExecBackend::kCompiled), store);
    ASSERT_FALSE(r.has_value()) << "threads=" << threads;
    EXPECT_EQ(r.error().kind, ErrorKind::kOverflow) << "threads=" << threads;
  }
}

// Indirect nests run through the inspector with the compiled body, the
// tree walker under kInterpreter, and the native row kernel under kJit;
// all three must report the overflow. A[B[i]] = A[B[i]] * C[i] with every
// C = 2^40 and four iterations per cell leaves int64 on a cell's second
// multiply.
TEST(OverflowDiagnostic, IndirectOverflowIsTypedOnEveryBackend) {
  constexpr i64 n = 64;
  LoopNestBuilder b;
  b.loop("i", 0, n - 1);
  b.array("A", {{0, n / 4 - 1}});
  b.array("B", {{0, n - 1}});
  b.array("C", {{0, n - 1}});
  loopir::ArrayRef a;
  a.array = "A";
  a.subscripts = {b.cst(0)};
  a.indirect = {loopir::IndirectSubscript{"B", b.idx(0)}};
  b.assign(a, Expr::mul(Expr::read(a), b.read("C", {b.idx(0)})));
  LoopNest nest = b.build();
  exec::ArrayStore init(nest);
  for (i64 i = 0; i < n; ++i) {
    init.write("B", intlin::Vec{i}, i % (n / 4));
    init.write("C", intlin::Vec{i}, i64{1} << 40);
  }
  for (i64 k = 0; k < n / 4; ++k) init.write("A", intlin::Vec{k}, 3);

  Compiler compiler;
  CompiledLoop loop = compiler.compile(nest).value();
  for (ExecBackend backend : {ExecBackend::kCompiled, ExecBackend::kInterpreter,
                              ExecBackend::kJit}) {
    for (std::size_t threads : {1u, 4u}) {
      exec::ArrayStore store = init;
      Expected<ExecReport> r =
          loop.execute(ExecPolicy{}.threads(threads).backend(backend), store);
      ASSERT_FALSE(r.has_value())
          << "backend=" << static_cast<int>(backend) << " threads=" << threads;
      EXPECT_EQ(r.error().kind, ErrorKind::kOverflow)
          << "backend=" << static_cast<int>(backend) << " threads=" << threads;
    }
  }
  // The kJit overflow came from the native leaves: the row kernel exists
  // (memoized by the runs above), so no run fell back to the postfix body.
  if (jit::discover_toolchain()) {
    Expected<std::shared_ptr<const jit::NativeKernel>> k = loop.jit();
    ASSERT_TRUE(k) << k.error().to_string();
    EXPECT_TRUE((*k)->row_kernel());
  }
}

}  // namespace
}  // namespace vdep
