// Inspector–executor tests: the dense first-toucher inspector
// (src/inspect/) against the brute-force ISDG ground truth, the static
// partitioner as a correctness oracle on the affine paper suite, and the
// end-to-end API path for indirect subscripts (A[B[i]]).
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "api/vdep.h"
#include "core/suite.h"
#include "dep/pdm.h"
#include "dsl/parser.h"
#include "exec/compiled.h"
#include "exec/interpreter.h"
#include "exec/isdg.h"
#include "exec/runner.h"
#include "inspect/executor.h"
#include "inspect/inspector.h"
#include "jit/toolchain.h"
#include "loopir/builder.h"
#include "obs/trace.h"
#include "support/thread_pool.h"
#include "trans/planner.h"

#include "indirect_inputs.h"

namespace vdep {
namespace {

using intlin::Vec;
using loopir::AffineExpr;
using loopir::ArrayRef;
using loopir::Expr;
using loopir::IndirectSubscript;
using loopir::LoopNest;
using loopir::LoopNestBuilder;
using test_inputs::IndirectInput;
using test_inputs::indirect_inputs;
using test_inputs::indirect_nest;
using test_inputs::initial_store;
using test_inputs::with_one_index_entry_changed;

// ------------------------------------------------------------- helpers

/// Weakly connected components of an ISDG, as a canonical partition:
/// sorted members per component, components sorted by first member.
/// Singletons (independent iterations) included — the same universe the
/// inspector partitions.
std::set<std::vector<Vec>> isdg_components(const exec::Isdg& g) {
  std::map<Vec, int> rank;
  for (std::size_t k = 0; k < g.nodes().size(); ++k)
    rank[g.nodes()[k]] = static_cast<int>(k);
  std::vector<int> parent(g.nodes().size());
  for (std::size_t k = 0; k < parent.size(); ++k)
    parent[k] = static_cast<int>(k);
  auto find = [&](int x) {
    while (parent[static_cast<std::size_t>(x)] != x) {
      parent[static_cast<std::size_t>(x)] =
          parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(x)])];
      x = parent[static_cast<std::size_t>(x)];
    }
    return x;
  };
  for (const exec::IsdgEdge& e : g.edges()) {
    int a = find(rank.at(e.src)), b = find(rank.at(e.dst));
    if (a != b) parent[static_cast<std::size_t>(std::max(a, b))] = std::min(a, b);
  }
  std::map<int, std::vector<Vec>> comps;
  for (std::size_t k = 0; k < g.nodes().size(); ++k)
    comps[find(static_cast<int>(k))].push_back(g.nodes()[k]);
  std::set<std::vector<Vec>> out;
  for (auto& [root, members] : comps) out.insert(std::move(members));
  return out;
}

/// Coordinates of every member of classes [lo, hi), in member-slot order.
std::vector<Vec> member_rows(const inspect::DynamicPartition& part, i64 lo,
                             i64 hi) {
  std::vector<Vec> out;
  part.for_each_row(lo, hi, [&](const i64* row) {
    out.emplace_back(row, row + part.depth());
  });
  return out;
}

/// The inspector's partition in the same canonical form. Members of a class
/// come out in lexicographic order already (the documented contract).
std::set<std::vector<Vec>> inspector_components(
    const inspect::DynamicPartition& part) {
  std::set<std::vector<Vec>> out;
  for (i64 c = 0; c < part.num_classes(); ++c)
    out.insert(member_rows(part, c, c + 1));
  return out;
}

/// The resolved-subscript table, slot by slot.
std::vector<i64> resolved_table(const inspect::DynamicPartition& part) {
  const i64* table = part.resolved();
  return std::vector<i64>(table, table + part.size() * part.resolved_width());
}

/// Asserts that two inspections of one space agree on everything but
/// their timing: class sizes, member order (the slot-order rows), the
/// resolved table and statistics.
void expect_same_partition(const inspect::DynamicPartition& want,
                           const inspect::DynamicPartition& got,
                           const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  ASSERT_EQ(got.num_classes(), want.num_classes()) << label;
  EXPECT_EQ(got.identity(), want.identity()) << label;
  EXPECT_EQ(member_rows(got, 0, got.num_classes()),
            member_rows(want, 0, want.num_classes()))
      << label << " member order";
  ASSERT_EQ(got.resolved_width(), want.resolved_width()) << label;
  EXPECT_EQ(resolved_table(got), resolved_table(want)) << label;
  for (i64 c = 0; c < want.num_classes(); ++c)
    EXPECT_EQ(got.class_size(c), want.class_size(c)) << label << " class " << c;
  const inspect::InspectStats& w = want.stats();
  const inspect::InspectStats& g = got.stats();
  EXPECT_EQ(g.iterations, w.iterations) << label;
  EXPECT_EQ(g.classes, w.classes) << label;
  EXPECT_EQ(g.chains, w.chains) << label;
  EXPECT_EQ(g.max_component, w.max_component) << label;
  EXPECT_EQ(g.dependent_iterations, w.dependent_iterations) << label;
  EXPECT_EQ(g.written_cells, w.written_cells) << label;
}

// --------------------------------------- inspector vs brute-force ISDG

TEST(Inspector, ComponentsMatchBruteForceIsdgAffine) {
  // Figure 2/3 structure (example 4.1), Figure 4/5 structure (example 4.2),
  // plus a uniform and a fully serial nest. The inspector must produce
  // exactly the weak components of the brute-force all-pairs ISDG.
  std::vector<LoopNest> nests = {
      core::example41(6), core::example42(6), core::uniform_blocked(6),
      core::sequential_chain(12), core::parity_independent(6)};
  for (const LoopNest& nest : nests) {
    exec::ArrayStore store(nest);
    inspect::DynamicPartition part = inspect::inspect(nest, store);
    exec::Isdg g = exec::build_isdg(nest);
    EXPECT_EQ(part.size(), g.node_count());
    EXPECT_EQ(inspector_components(part), isdg_components(g))
        << nest.to_string();
    EXPECT_EQ(part.stats().chains, g.chain_count());
    EXPECT_EQ(part.stats().dependent_iterations, g.dependent_node_count());
  }
}

/// Distinct cells written by the space, counted by brute force (every
/// write access at every iteration, indirect slots resolved in `store`).
i64 brute_force_written_cells(const LoopNest& nest,
                              const exec::ArrayStore& store) {
  std::set<std::pair<std::string, Vec>> cells;
  const std::vector<LoopNest::Access> accesses = nest.accesses();
  nest.for_each_iteration([&](const Vec& iter) {
    for (const LoopNest::Access& a : accesses)
      if (a.is_write)
        cells.emplace(a.ref.array, exec::element_coords(a.ref, iter, store));
  });
  return static_cast<i64>(cells.size());
}

TEST(Inspector, ComponentsMatchBruteForceIsdgIndirect) {
  // Indirect nests over duplicate-heavy index arrays, negative bounds,
  // several written arrays, 2-D targets and read-only arrays: the
  // store-resolving ISDG overload is the ground truth.
  for (const IndirectInput& in : indirect_inputs()) {
    exec::ArrayStore store = initial_store(in);
    inspect::DynamicPartition part = inspect::inspect(in.nest, store);
    exec::Isdg g = exec::build_isdg(in.nest, store);
    EXPECT_EQ(inspector_components(part), isdg_components(g)) << in.name;
    EXPECT_EQ(part.stats().chains, g.chain_count()) << in.name;
    EXPECT_EQ(part.stats().dependent_iterations, g.dependent_node_count())
        << in.name;
    EXPECT_EQ(part.stats().written_cells,
              brute_force_written_cells(in.nest, store))
        << in.name;
    EXPECT_GT(part.stats().chains, 0) << in.name << ": no dependence to find";
  }
}

TEST(Inspector, CompiledBodyMatchesInterpreterBody) {
  // The executor's compiled body (indirect slots read the index buffers
  // directly) against the forced interpreter body and the sequential
  // reference, on every indirect input at 1, 2 and 8 workers.
  for (const IndirectInput& in : indirect_inputs()) {
    const exec::ArrayStore init = initial_store(in);
    exec::ArrayStore probe = init;
    EXPECT_NO_THROW((void)exec::CompiledKernel(in.nest).bind(probe))
        << in.name;
    inspect::DynamicPartition part = inspect::inspect(in.nest, init);
    exec::ArrayStore ref = init;
    exec::run_sequential(in.nest, ref);
    for (std::size_t threads : {1u, 2u, 8u}) {
      exec::ArrayStore compiled = init, interpreted = init;
      inspect::InspectorExecOptions io;
      io.num_threads = threads;
      inspect::InspectorExecutor(in.nest, part, io).run(compiled);
      io.force_interpreter = true;
      inspect::InspectorExecutor(in.nest, part, io).run(interpreted);
      EXPECT_TRUE(compiled == interpreted) << in.name << " @" << threads;
      EXPECT_TRUE(compiled == ref) << in.name << " @" << threads;
    }
  }
}

TEST(Inspector, NativeLeavesRunOnlyOnTheInspectedStore) {
  // The executor's native body (the JIT row kernel) on every indirect input
  // and a conflict-free permutation, at 1, 2 and 8 workers, against the
  // sequential reference. Its accesses are unchecked, so it runs only on a
  // store the partition proves for: the inspected store and an equal copy
  // run native, bit-identically; a copy with one differing index entry is
  // refused before anything runs, and so is another partition's proof.
  if (!jit::discover_toolchain()) GTEST_SKIP() << "no C toolchain";
  std::vector<IndirectInput> inputs = indirect_inputs();
  inputs.push_back(test_inputs::permutation_input(64));
  Compiler compiler;
  for (const IndirectInput& in : inputs) {
    Expected<std::shared_ptr<const jit::NativeKernel>> kernel =
        compiler.compile(in.nest).value().jit();
    ASSERT_TRUE(kernel) << in.name << ": " << kernel.error().to_string();
    const exec::ArrayStore init = initial_store(in);
    exec::ArrayStore ref = init;
    exec::run_sequential(in.nest, ref);
    const exec::ArrayStore changed = with_one_index_entry_changed(in, init);
    ASSERT_FALSE(changed == init) << in.name;
    for (std::size_t threads : {1u, 2u, 8u}) {
      exec::ArrayStore got = init;
      const inspect::DynamicPartition part = inspect::inspect(in.nest, got);
      inspect::InspectorExecOptions io;
      io.num_threads = threads;
      const inspect::InspectorExecutor ex(in.nest, part, io);

      exec::ArrayStore differ = changed;
      EXPECT_FALSE(part.prove(differ)) << in.name;
      EXPECT_THROW(ex.run(differ), PreconditionError) << in.name;
      EXPECT_TRUE(differ == changed) << in.name;
      const inspect::DynamicPartition other_part =
          inspect::inspect(in.nest, changed);
      std::optional<inspect::ProvenStore> foreign = other_part.prove(differ);
      ASSERT_TRUE(foreign) << in.name;
      EXPECT_THROW((void)ex.source(*foreign, kernel->get()),
                   PreconditionError)
          << in.name;
      EXPECT_TRUE(differ == changed) << in.name;

      exec::ArrayStore copy = init;
      for (exec::ArrayStore* store : {&got, &copy}) {
        std::optional<inspect::ProvenStore> proven = part.prove(*store);
        ASSERT_TRUE(proven) << in.name;
        const runtime::DriveSource src = ex.source(*proven, kernel->get());
        const runtime::RuntimeStats rs =
            runtime::drive_descriptors({&src, 1}, {threads, {}});
        ASSERT_FALSE(rs.error) << in.name;
        EXPECT_EQ(rs.total_iterations(), part.size()) << in.name;
        EXPECT_TRUE(*store == ref)
            << in.name << " @" << threads
            << (store == &got ? " (inspected store)" : " (equal copy)");
      }
    }
  }
}

TEST(Inspector, InPlaceInspectionProvesItsOwnStore) {
  // The in-place inspect() builds the partition the by-value one does and
  // hands back the inspected store as proven for that partition where it
  // lies, so an executor takes it with no compare.
  for (const IndirectInput& in : indirect_inputs()) {
    exec::ArrayStore ref = initial_store(in);
    const inspect::DynamicPartition want = inspect::inspect(in.nest, ref);
    exec::run_sequential(in.nest, ref);
    exec::ArrayStore got = initial_store(in);
    inspect::DynamicPartition part;
    const inspect::ProvenStore proven = inspect::inspect(in.nest, got, part, 2);
    EXPECT_EQ(&proven.partition(), &part) << in.name;
    EXPECT_EQ(&proven.store(), &got) << in.name;
    expect_same_partition(want, part, in.name);
    const inspect::InspectorExecutor ex(in.nest, part);
    (void)runtime::drive(ex.source(proven), {2, {}});
    EXPECT_TRUE(got == ref) << in.name;
  }
}

TEST(Inspector, ProofComparesIndexContentsAndArraySizes) {
  // prove() accepts exactly the stores whose index arrays equal the
  // inspected ones byte for byte and whose arrays all have the inspected
  // sizes: a changed data array is fine, a changed index entry or a
  // differently sized array is not.
  const IndirectInput in = indirect_inputs().front();
  exec::ArrayStore init = initial_store(in);
  const inspect::DynamicPartition part = inspect::inspect(in.nest, init);

  exec::ArrayStore data_changed = init;
  data_changed.write("A", Vec{0}, 12345);
  data_changed.write("C", Vec{0}, -7);
  EXPECT_TRUE(part.prove(data_changed));

  exec::ArrayStore index_changed = with_one_index_entry_changed(in, init);
  ASSERT_FALSE(index_changed == init);
  EXPECT_FALSE(part.prove(index_changed));

  // Same arrays and the same first B entries, one more iteration: every
  // buffer but A's is one element longer.
  const LoopNest longer = test_inputs::indirect_nest(
      in.nest.iteration_count() + 1, in.nest.array("A").dims.front().second);
  exec::ArrayStore longer_store(longer);
  longer_store.fill_pattern();
  const std::vector<i64>& b = in.index.at("B");
  for (std::size_t k = 0; k < b.size(); ++k)
    longer_store.write("B", Vec{static_cast<i64>(k)}, b[k]);
  EXPECT_FALSE(part.prove(longer_store));
}

TEST(Inspector, SlotOrderRowsAndResolvedTable) {
  // Slot m's row is the m-th member's coordinates, class by class (classes
  // numbered by their first member) and each class in rank order; the
  // ground truth is the brute-force ISDG's components. Each resolved-table
  // entry is the row-major element offset, from the declared lower bounds,
  // of that slot's indirect_refs()[j] as the interpreter evaluates it.
  // The layout must not depend on pass 1's worker count.
  std::vector<IndirectInput> inputs = indirect_inputs();
  inputs.push_back(test_inputs::permutation_input(64));
  ThreadPool pool(4);
  for (const IndirectInput& in : inputs) {
    const exec::ArrayStore store = initial_store(in);
    const inspect::DynamicPartition part = inspect::inspect(in.nest, store);
    std::vector<Vec> want_rows;
    std::vector<i64> want_sizes;
    for (const std::vector<Vec>& comp :
         isdg_components(exec::build_isdg(in.nest, store))) {
      want_rows.insert(want_rows.end(), comp.begin(), comp.end());
      want_sizes.push_back(static_cast<i64>(comp.size()));
    }
    EXPECT_EQ(member_rows(part, 0, part.num_classes()), want_rows) << in.name;
    ASSERT_EQ(part.num_classes(), static_cast<i64>(want_sizes.size()))
        << in.name;
    for (i64 c = 0; c < part.num_classes(); ++c)
      EXPECT_EQ(part.class_size(c), want_sizes[static_cast<std::size_t>(c)])
          << in.name << " class " << c;

    const std::vector<ArrayRef> refs = in.nest.indirect_refs();
    ASSERT_EQ(part.resolved_width(), static_cast<int>(refs.size())) << in.name;
    ASSERT_FALSE(refs.empty()) << in.name;
    for (i64 m = 0; m < part.size(); ++m) {
      const Vec iter(part.rows() + m * part.depth(),
                     part.rows() + (m + 1) * part.depth());
      for (std::size_t j = 0; j < refs.size(); ++j) {
        const loopir::ArrayDecl& decl = in.nest.array(refs[j].array);
        const Vec cell = exec::element_coords(refs[j], iter, store);
        i64 flat = 0;
        for (std::size_t d = 0; d < cell.size(); ++d)
          flat = flat * (decl.dims[d].second - decl.dims[d].first + 1) +
                 (cell[d] - decl.dims[d].first);
        EXPECT_EQ(part.resolved()[m * part.resolved_width() +
                                  static_cast<i64>(j)],
                  flat)
            << in.name << " slot " << m << " ref " << j;
      }
    }
    for (std::size_t threads : {2u, 8u})
      expect_same_partition(part,
                            inspect::inspect(in.nest, store, threads, &pool),
                            in.name + " @" + std::to_string(threads));
  }
}

TEST(Inspector, ParallelProofRefusesAnyDifferingSlice) {
  // A store differing in one index entry of the first slice or of the
  // last, or in an array's size, is refused at 1, 2 and 8 threads, with and
  // without a pool, and the executor writes nothing to it; an equal copy is
  // accepted.
  constexpr i64 n = 1 << 16;
  const IndirectInput in = test_inputs::permutation_input(n);
  const exec::ArrayStore init = initial_store(in);
  const inspect::DynamicPartition part = inspect::inspect(in.nest, init);
  exec::ArrayStore first = init, last = init;
  // Swap two entries inside each end, so every value stays in range and
  // only the contents differ.
  for (auto [store, a, b] : {std::tuple{&first, i64{0}, i64{1}},
                             std::tuple{&last, n - 2, n - 1}}) {
    const i64 va = store->read("B", Vec{a});
    store->write("B", Vec{a}, store->read("B", Vec{b}));
    store->write("B", Vec{b}, va);
  }
  const LoopNest longer = test_inputs::indirect_nest(n + 1, n - 1);
  exec::ArrayStore resized(longer);
  resized.fill_pattern();
  for (i64 k = 0; k < n; ++k)
    resized.write("B", Vec{k}, init.read("B", Vec{k}));

  ThreadPool pool(4);
  for (std::size_t threads : {1u, 2u, 8u}) {
    inspect::InspectorExecOptions io;
    io.num_threads = threads;
    const inspect::InspectorExecutor ex(in.nest, part, io);
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      const std::string label = "@" + std::to_string(threads) +
                                (p ? " on the pool" : "");
      for (exec::ArrayStore* differ : {&first, &last, &resized}) {
        const exec::ArrayStore before = *differ;
        EXPECT_FALSE(part.prove(*differ, p, threads)) << label;
        if (p)
          EXPECT_THROW(ex.run(*differ, *p), PreconditionError) << label;
        else
          EXPECT_THROW(ex.run(*differ), PreconditionError) << label;
        EXPECT_TRUE(*differ == before) << label << ": the store was written";
      }
      exec::ArrayStore copy = init;
      EXPECT_TRUE(part.prove(copy, p, threads)) << label;
    }
  }
}

TEST(Inspector, KernelProofRefusalFallsBackToInterpreter) {
  // i in [0, 1], j in [0, n-2-i] reaches index positions i + j in
  // [0, n-2] only, but the kernel's box relaxation (i <= 1, j <= n-2)
  // reaches n-1. B[n-1] holds a value far outside A, so the kernel's index
  // scan refuses to bind the store while inspection, which resolves the
  // actual iterations, accepts it. The executor falls back to the
  // interpreter and must stay bit-identical to sequential execution.
  constexpr i64 n = 12;
  LoopNestBuilder b;
  b.loop("i", 0, 1);
  b.loop("j", loopir::Bound(AffineExpr::constant(2, 0)),
         loopir::Bound(AffineExpr(Vec{-1, 0}, n - 2)));
  b.array("A", {{0, 7}});
  b.array("B", {{0, n - 1}});
  b.array("C", {{0, 1}});
  ArrayRef a;
  a.array = "A";
  a.subscripts = {b.cst(0)};
  a.indirect = {IndirectSubscript{"B", b.idx(0) + b.idx(1)}};
  b.assign(a, Expr::add(Expr::read(a), Expr::read(b.ref("C", {b.idx(0)}))));
  LoopNest nest = b.build();

  exec::ArrayStore init(nest);
  init.fill_pattern();
  for (i64 p = 0; p < n - 1; ++p) init.write("B", Vec{p}, p % 8);
  init.write("B", Vec{n - 1}, i64{1} << 20);
  exec::ArrayStore probe = init;
  const exec::CompiledKernel kernel(nest);
  EXPECT_THROW((void)kernel.bind(probe), PreconditionError);

  inspect::DynamicPartition part = inspect::inspect(nest, init);
  EXPECT_GT(part.stats().chains, 0);
  exec::ArrayStore ref = init;
  exec::run_sequential(nest, ref);
  Compiler compiler;
  CompiledLoop loop = compiler.compile(nest).value();
  for (std::size_t threads : {1u, 8u}) {
    exec::ArrayStore direct = init, api = init;
    inspect::InspectorExecOptions io;
    io.num_threads = threads;
    inspect::InspectorExecutor(nest, part, io).run(direct);
    EXPECT_TRUE(direct == ref) << "executor @" << threads;
    Expected<ExecReport> rep = loop.execute(ExecPolicy{}.threads(threads), api);
    ASSERT_TRUE(rep) << rep.error().to_string();
    EXPECT_TRUE(rep->inspector);
    EXPECT_TRUE(api == ref) << "api @" << threads;
  }
}

TEST(Inspector, EmptyAndDegenerateSpaces) {
  {
    // Empty space: upper < lower. No iterations, no classes, and the
    // executor runs to completion without touching the store.
    LoopNestBuilder b;
    b.loop("i", 0, -1);
    b.array("A", {{0, 4}});
    b.assign(b.ref("A", {b.idx(0)}), Expr::constant(1));
    LoopNest nest = b.build();
    exec::ArrayStore store(nest);
    store.fill_pattern();
    inspect::DynamicPartition part = inspect::inspect(nest, store);
    EXPECT_EQ(part.size(), 0);
    EXPECT_EQ(part.num_classes(), 0);
    EXPECT_EQ(part.stats().written_cells, 0);
    exec::ArrayStore before = store;
    inspect::InspectorExecutor ex(nest, part);
    runtime::RuntimeStats rs = ex.run(store);
    EXPECT_EQ(rs.total_iterations(), 0);
    EXPECT_TRUE(store == before);
  }
  {
    // Single iteration: one singleton class, no chains.
    LoopNestBuilder b;
    b.loop("i", 3, 3);
    b.array("A", {{3, 3}});
    b.assign(b.ref("A", {b.idx(0)}), Expr::constant(7));
    LoopNest nest = b.build();
    exec::ArrayStore store(nest);
    inspect::DynamicPartition part = inspect::inspect(nest, store);
    EXPECT_EQ(part.size(), 1);
    EXPECT_EQ(part.num_classes(), 1);
    EXPECT_EQ(part.stats().chains, 0);
    EXPECT_EQ(part.stats().dependent_iterations, 0);
    EXPECT_EQ(part.stats().max_component, 1);
  }
}

TEST(Inspector, DuplicateIndexWritesSerializeIntoOneClass) {
  // Every iteration writes A[5]: one write conflict chains the whole space
  // into a single class, which must replay sequentially in one leaf.
  LoopNest nest = indirect_nest(16, 10);
  exec::ArrayStore store(nest);
  store.fill_pattern();
  for (i64 i = 0; i < 16; ++i) store.write("B", Vec{i}, 5);
  inspect::DynamicPartition part = inspect::inspect(nest, store);
  EXPECT_EQ(part.num_classes(), 1);
  EXPECT_EQ(part.stats().chains, 1);
  EXPECT_EQ(part.stats().max_component, 16);
  EXPECT_EQ(part.stats().dependent_iterations, 16);
  EXPECT_EQ(part.stats().written_cells, 1);

  exec::ArrayStore ref = store;
  exec::run_sequential(nest, ref);
  inspect::InspectorExecOptions io;
  io.num_threads = 8;
  inspect::InspectorExecutor ex(nest, part, io);
  ex.run(store);
  EXPECT_TRUE(store == ref);
}

TEST(Inspector, HostileIndexArraysFailTypedBeforeAnyWrite) {
  // The first-toucher table is indexed by the computed cell id, so the
  // inspector's range checks are all that keeps a hostile index array off
  // memory outside it. The cases: an index value outside the target's
  // declared range and an index position outside the index array, each on
  // a written scatter A[B[i]] and on a read-only gather D[i] = A[B[i]],
  // with the first bad rank mid-range or at the last rank. n is large
  // enough that parallel pass 1 splits, and each case runs on 1 and 8
  // spawned workers and on a caller pool. Each must fail typed, with the
  // store untouched (the sanitizer builds run this binary too).
  constexpr i64 n = 4096;
  ThreadPool pool(4);
  for (bool scatter : {true, false}) {
    for (bool bad_position : {false, true}) {
      for (bool at_last : {false, true}) {
        const std::string label =
            std::string(scatter ? "scatter" : "gather") +
            (bad_position ? " / index position" : " / index value") +
            (at_last ? " / last rank" : " / mid-range");
        LoopNestBuilder b;
        b.loop("i", 0, n - 1);
        b.array("A", {{0, 7}});
        // A bad position reads past B's end: B[i + 1] does so at the last
        // rank only; B[i] over a half-length B from rank n/2 on.
        b.array("B", {{0, bad_position && !at_last ? n / 2 - 1 : n - 1}});
        b.array("D", {{0, n - 1}});
        ArrayRef a;
        a.array = "A";
        a.subscripts = {b.cst(0)};
        a.indirect = {IndirectSubscript{
            "B", bad_position && at_last ? b.idx(0) + b.cst(1) : b.idx(0)}};
        if (scatter)
          b.assign(a, Expr::add(Expr::read(a), Expr::constant(1)));
        else
          b.assign(b.ref("D", {b.idx(0)}), Expr::read(a));
        LoopNest nest = b.build();
        Compiler compiler;
        Expected<CompiledLoop> loop = compiler.compile(nest);
        ASSERT_TRUE(loop) << label << ": " << loop.error().to_string();

        exec::ArrayStore store(nest);
        store.fill_pattern();
        const i64 b_len = nest.array("B").dims.front().second + 1;
        for (i64 i = 0; i < b_len; ++i) store.write("B", Vec{i}, i % 8);
        // A value far past A's declared [0, 7].
        if (!bad_position)
          store.write("B", Vec{at_last ? n - 1 : n / 2}, i64{1} << 20);
        const exec::ArrayStore before = store;
        for (std::size_t threads : {1u, 8u}) {
          for (bool on_pool : {false, true}) {
            const ExecPolicy policy = ExecPolicy{}.threads(threads);
            Expected<ExecReport> rep = on_pool
                                           ? loop->execute(policy, store, pool)
                                           : loop->execute(policy, store);
            const std::string where = label + " @" + std::to_string(threads) +
                                      (on_pool ? " on the pool" : "");
            ASSERT_FALSE(rep) << where << " ran";
            EXPECT_EQ(rep.error().kind, ErrorKind::kPrecondition)
                << where << ": " << rep.error().to_string();
            EXPECT_TRUE(store == before) << where << " wrote before failing";
          }
        }
      }
    }
  }
}

TEST(Inspector, ConflictFreeInspectionIsIdentity) {
  // A space in which no two iterations share a written cell inspects to the
  // identity partition (class c = iteration rank c, no class offsets): a
  // permutation scatter, an affine DOALL nest forced to kInspector and an
  // empty space. Each must agree with the brute-force ISDG and execute
  // bit-identically to sequential order.
  auto check = [](const std::string& label, const LoopNest& nest,
                  const exec::ArrayStore& init) {
    const inspect::DynamicPartition part = inspect::inspect(nest, init);
    const i64 n = nest.iteration_count();
    EXPECT_TRUE(part.identity()) << label;
    EXPECT_EQ(part.size(), n) << label;
    EXPECT_EQ(part.num_classes(), n) << label;
    for (i64 c = 0; c < n; ++c) EXPECT_EQ(part.class_size(c), 1) << label;
    // Member slot m holds iteration rank m: the rows come out in
    // enumeration order.
    std::vector<Vec> ranks;
    nest.for_each_iteration([&](const Vec& v) { ranks.push_back(v); });
    EXPECT_EQ(member_rows(part, 0, n), ranks) << label;
    const inspect::InspectStats& st = part.stats();
    EXPECT_EQ(st.classes, n) << label;
    EXPECT_EQ(st.chains, 0) << label;
    EXPECT_EQ(st.dependent_iterations, 0) << label;
    EXPECT_EQ(st.max_component, std::min<i64>(n, 1)) << label;  // 0 if empty
    EXPECT_EQ(inspector_components(part),
              isdg_components(exec::build_isdg(nest, init)))
        << label;
    exec::ArrayStore ref = init;
    exec::run_sequential(nest, ref);
    for (std::size_t threads : {1u, 2u, 8u}) {
      for (bool interpret : {false, true}) {
        exec::ArrayStore got = init;
        inspect::InspectorExecOptions io;
        io.num_threads = threads;
        io.force_interpreter = interpret;
        runtime::RuntimeStats rs =
            inspect::InspectorExecutor(nest, part, io).run(got);
        EXPECT_EQ(rs.total_iterations(), n) << label;
        EXPECT_TRUE(got == ref) << label << " @" << threads
                                << (interpret ? " interpreted" : "");
      }
    }
  };

  const IndirectInput perm = test_inputs::permutation_input(32);
  check(perm.name, perm.nest, initial_store(perm));

  // A[i, j] = A[i, j] + C[j]: every cell written by one iteration, C only
  // read. The API's forced inspector backend must see the same identity.
  LoopNestBuilder b;
  b.loop("i", 0, 7).loop("j", 0, 5);
  b.array("A", {{0, 7}, {0, 5}});
  b.array("C", {{0, 5}});
  b.assign(b.ref("A", {b.idx(0), b.idx(1)}),
           Expr::add(b.read("A", {b.idx(0), b.idx(1)}),
                     b.read("C", {b.idx(1)})));
  const LoopNest doall = b.build();
  exec::ArrayStore doall_init(doall);
  doall_init.fill_pattern();
  check("affine doall", doall, doall_init);
  Compiler compiler;
  CompiledLoop loop = compiler.compile(doall).value();
  exec::ArrayStore doall_ref = doall_init;
  exec::run_sequential(doall, doall_ref);
  for (std::size_t threads : {1u, 2u, 8u}) {
    exec::ArrayStore got = doall_init;
    Expected<ExecReport> rep = loop.execute(
        ExecPolicy{}.backend(ExecBackend::kInspector).threads(threads), got);
    ASSERT_TRUE(rep) << rep.error().to_string();
    EXPECT_TRUE(rep->inspector);
    EXPECT_EQ(rep->inspector_classes, 48);
    EXPECT_EQ(rep->inspector_chains, 0);
    EXPECT_EQ(rep->inspector_max_component, 1);
    EXPECT_TRUE(got == doall_ref) << "api @" << threads;
  }

  LoopNestBuilder e;
  e.loop("i", 0, -1);
  e.array("A", {{0, 4}});
  e.assign(e.ref("A", {e.idx(0)}), Expr::constant(1));
  const LoopNest empty = e.build();
  exec::ArrayStore empty_init(empty);
  empty_init.fill_pattern();
  check("empty", empty, empty_init);

  // One shared cell breaks the identity: iteration 1 now scatters into
  // iteration 0's cell, giving exactly one chain of two.
  exec::ArrayStore shared = initial_store(perm);
  shared.write("B", Vec{1}, shared.read("B", Vec{0}));
  const inspect::DynamicPartition part = inspect::inspect(perm.nest, shared);
  EXPECT_FALSE(part.identity());
  EXPECT_EQ(part.stats().chains, 1);
  EXPECT_EQ(part.stats().max_component, 2);
  EXPECT_EQ(part.stats().dependent_iterations, 2);
  EXPECT_EQ(part.num_classes(), 31);
  EXPECT_EQ(part.class_size(0), 2);
  EXPECT_EQ(member_rows(part, 0, 1), (std::vector<Vec>{Vec{0}, Vec{1}}));
  EXPECT_EQ(inspector_components(part),
            isdg_components(exec::build_isdg(perm.nest, shared)));
  exec::ArrayStore ref = shared;
  exec::run_sequential(perm.nest, ref);
  for (std::size_t threads : {1u, 2u, 8u}) {
    exec::ArrayStore got = shared;
    inspect::InspectorExecOptions io;
    io.num_threads = threads;
    inspect::InspectorExecutor(perm.nest, part, io).run(got);
    EXPECT_TRUE(got == ref) << "shared cell @" << threads;
  }
}

TEST(Inspector, ParallelPassOneMatchesSerial) {
  // Pass 1 on 1, 2 and 8 driver workers, spawned or on a caller pool, must
  // give the single-worker partition exactly. The 4096-iteration inputs
  // split pass 1 into many leaves (this binary runs under TSan in CI);
  // example 4.1 has tracked reads, so its leaves also race on marks.
  std::vector<IndirectInput> inputs = indirect_inputs();
  inputs.push_back({"example_4_1", core::example41(12), {}});
  inputs.push_back(test_inputs::permutation_input(32));
  inputs.push_back(test_inputs::permutation_input(4096));
  {
    constexpr i64 n = 4096;
    std::vector<i64> b;
    for (i64 i = 0; i < n; ++i) b.push_back((i * 2654435761ll) % (n / 4));
    inputs.push_back({"scatter-4096", indirect_nest(n, n / 4 - 1), {{"B", b}}});
  }
  ThreadPool pool(4);
  for (const IndirectInput& in : inputs) {
    const exec::ArrayStore store = initial_store(in);
    const inspect::DynamicPartition serial = inspect::inspect(in.nest, store);
    for (std::size_t threads : {1u, 2u, 8u}) {
      for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
        const std::string label = in.name + " @" + std::to_string(threads) +
                                  (p ? " on the pool" : "");
        expect_same_partition(
            serial, inspect::inspect(in.nest, store, threads, p), label);
      }
    }
  }
}

// ------------------------------------------- Figure 2 statistics pinned

TEST(Inspector, Figure2StatisticsAgreeAcrossRenderings) {
  // example 4.1 at n=10 — the Figure 2 space (21x21 box, variable
  // distances, even multiples of (1,-1)). These five numbers are the
  // figure's statistics; to_dot, to_ascii, dependent_node_count and the
  // inspector must all report the same dependent-node population.
  LoopNest nest = core::example41(10);
  exec::Isdg g = exec::build_isdg(nest);
  EXPECT_EQ(g.node_count(), 441);
  EXPECT_EQ(g.edge_count(), 136);
  EXPECT_EQ(g.dependent_node_count(), 232);
  EXPECT_EQ(g.chain_count(), 96);

  // DOT: exactly one style=filled node row per dependent iteration.
  std::string dot = g.to_dot();
  std::size_t filled = 0;
  for (std::size_t pos = dot.find("style=filled"); pos != std::string::npos;
       pos = dot.find("style=filled", pos + 1))
    ++filled;
  EXPECT_EQ(filled, 232u);

  // ASCII: dependent iterations render 'o', independent '.'.
  std::string ascii = g.to_ascii();
  std::size_t solid = 0, hollow = 0;
  for (char c : ascii) {
    if (c == 'o') ++solid;
    if (c == '.') ++hollow;
  }
  EXPECT_EQ(solid, 232u);
  EXPECT_EQ(hollow, 441u - 232u);

  // The inspector sees the same structure without building the graph.
  exec::ArrayStore store(nest);
  inspect::DynamicPartition part = inspect::inspect(nest, store);
  EXPECT_EQ(part.stats().iterations, 441);
  EXPECT_EQ(part.stats().dependent_iterations, 232);
  EXPECT_EQ(part.stats().chains, 96);
  EXPECT_EQ(part.stats().classes, 305);  // 96 chains + 209 singletons
  EXPECT_EQ(part.stats().max_component, 3);
}

// ------------------------------------ static partitioner as the oracle

TEST(Inspector, OracleAgainstStaticPartitioner) {
  // For every affine suite nest at several bounds: the inspector's
  // components must REFINE the static plan's work items on dependent
  // iterations (a dependence chain never crosses items of a legal plan, so
  // each component fits inside one item). For exact- and uniform-distance
  // nests the relations coincide; for the variable-distance nests the
  // static residue classes (Theorem 2) over-approximate at larger bounds —
  // one class holds several disjoint runtime chains — so the inspector is
  // strictly finer there, never coarser.
  const std::set<std::string> strictly_finer = {"example_4_1",
                                                "variable_3deep"};
  for (i64 n : {i64{4}, i64{7}, i64{10}}) {
    for (const core::NamedNest& c : core::paper_suite(n)) {
      const LoopNest& nest = c.nest;
      trans::TransformPlan plan = trans::plan_transform(dep::compute_pdm(nest));
      exec::Schedule sched = exec::build_schedule(nest, plan);
      exec::ArrayStore store(nest);
      inspect::DynamicPartition part = inspect::inspect(nest, store);

      std::map<Vec, i64> item_of;
      for (std::size_t k = 0; k < sched.items.size(); ++k)
        for (const Vec& v : sched.items[k])
          item_of[v] = static_cast<i64>(k);
      std::map<Vec, i64> cls_of;
      for (i64 cls = 0; cls < part.num_classes(); ++cls)
        for (const Vec& v : member_rows(part, cls, cls + 1)) cls_of[v] = cls;
      ASSERT_EQ(item_of.size(), cls_of.size()) << c.name << " n=" << n;

      std::set<Vec> dependent;
      exec::Isdg g = exec::build_isdg(nest);
      for (const exec::IsdgEdge& e : g.edges()) {
        dependent.insert(e.src);
        dependent.insert(e.dst);
      }

      std::map<i64, std::set<i64>> items_per_class, classes_per_item;
      for (const Vec& d : dependent) {
        items_per_class[cls_of.at(d)].insert(item_of.at(d));
        classes_per_item[item_of.at(d)].insert(cls_of.at(d));
      }
      for (const auto& [cls, items] : items_per_class)
        EXPECT_EQ(items.size(), 1u)
            << c.name << " n=" << n << ": inspector class " << cls
            << " spans " << items.size() << " static items (refinement broken)";
      if (!strictly_finer.count(c.name)) {
        for (const auto& [item, classes] : classes_per_item)
          EXPECT_EQ(classes.size(), 1u)
              << c.name << " n=" << n << ": static item " << item
              << " splits into " << classes.size() << " inspector classes";
      }
    }
  }
}

TEST(Inspector, OracleBitIdenticalExecutionAcrossBackends) {
  // Every suite nest, sequential reference vs kInterpreter / kJit /
  // kInspector at 1, 2 and 8 workers — the inspector backend must be a
  // drop-in on affine nests, not just on indirect ones.
  Compiler compiler;
  for (i64 n : {i64{5}, i64{9}}) {
    for (const core::NamedNest& c : core::paper_suite(n)) {
      Expected<CompiledLoop> loop = compiler.compile(c.nest);
      ASSERT_TRUE(loop) << c.name;
      exec::ArrayStore init(c.nest);
      init.fill_pattern();
      exec::ArrayStore ref = init;
      exec::run_sequential(c.nest, ref);
      for (ExecBackend bk : {ExecBackend::kInterpreter, ExecBackend::kJit,
                             ExecBackend::kInspector}) {
        for (std::size_t threads : {1u, 2u, 8u}) {
          exec::ArrayStore got = init;
          ExecPolicy policy;
          policy.backend(bk).threads(threads);
          Expected<ExecReport> rep = loop->execute(policy, got);
          ASSERT_TRUE(rep) << c.name << " n=" << n << " backend "
                           << static_cast<int>(bk) << " threads " << threads
                           << ": " << rep.error().to_string();
          EXPECT_TRUE(got == ref)
              << c.name << " n=" << n << " backend " << static_cast<int>(bk)
              << " at " << threads << " threads diverged";
          EXPECT_EQ(rep->inspector, bk == ExecBackend::kInspector);
        }
      }
    }
  }
}

// ------------------------------------------------- end-to-end API path

TEST(Inspector, IndirectNestRejectedByPdmRunsViaInspector) {
  // The acceptance path: a nest the PDM rejects compiles through the
  // non-affine artifact and executes bit-identically to sequential at 8
  // workers.
  const std::string src =
      "array A[0:63]\n"
      "array B[0:63]\n"
      "do i = 0, 63\n"
      "  A[B[i]] = A[B[i]] + 7\n"
      "enddo\n";
  Compiler compiler;
  Expected<CompiledLoop> loop = compiler.compile(src);
  ASSERT_TRUE(loop) << loop.error().to_string();
  EXPECT_FALSE(loop->analysis().affine);
  EXPECT_THROW(dep::compute_pdm(loop->nest()), UnsupportedError);

  exec::ArrayStore init(loop->nest());
  init.fill_pattern();
  for (i64 i = 0; i <= 63; ++i)
    init.write("B", Vec{i}, (i * 7 + 3) % 16);
  exec::ArrayStore ref = init;
  exec::run_sequential(loop->nest(), ref);

  exec::ArrayStore got = init;
  ExecPolicy policy;
  policy.threads(8);
  Expected<ExecReport> rep = loop->execute(policy, got);
  ASSERT_TRUE(rep) << rep.error().to_string();
  EXPECT_TRUE(got == ref);
  EXPECT_TRUE(rep->inspector);
  // 16 distinct write targets -> 16 chains, every iteration dependent.
  EXPECT_EQ(rep->inspector_classes, 16);
  EXPECT_EQ(rep->inspector_chains, 16);
  EXPECT_EQ(rep->inspector_dependent, 64);
  EXPECT_EQ(rep->iterations, 64);
  EXPECT_GT(rep->inspect_ns, 0);
  EXPECT_LE(rep->inspect_ns, rep->wall_ns);

  // A batch runs it too: each request is inspected against its own store
  // before the shared run, then runs as one source of it.
  std::vector<exec::ArrayStore> copies(3, init);
  std::vector<exec::ArrayStore*> stores;
  for (exec::ArrayStore& s : copies) stores.push_back(&s);
  Expected<std::vector<ExecReport>> batch = loop->execute_batch(
      std::span<exec::ArrayStore* const>(stores), policy);
  ASSERT_TRUE(batch) << batch.error().to_string();
  ASSERT_EQ(batch->size(), copies.size());
  for (std::size_t k = 0; k < copies.size(); ++k) {
    EXPECT_TRUE(copies[k] == ref) << "request " << k;
    EXPECT_TRUE((*batch)[k].inspector) << "request " << k;
    EXPECT_EQ((*batch)[k].inspector_classes, 16) << "request " << k;
    EXPECT_EQ((*batch)[k].iterations, 64) << "request " << k;
    EXPECT_EQ((*batch)[k].checksum, ref.checksum()) << "request " << k;
  }
}

TEST(Inspector, InspectSpanAndReportTiming) {
  // The kInspect trace span is emitted with the partition statistics as
  // args, and ExecReport::inspect_ns is populated from the same phase.
  LoopNest nest = indirect_nest(32, 48);
  Compiler compiler;
  Expected<CompiledLoop> loop = compiler.compile(nest);
  ASSERT_TRUE(loop);
  exec::ArrayStore store(nest);
  store.fill_pattern();
  for (i64 i = 0; i < 32; ++i) store.write("B", Vec{i}, (i * 3) % 48);

  obs::TraceRecorder::instance().enable();
  Expected<ExecReport> rep = loop->execute(ExecPolicy{}, store);
  obs::TraceRecorder::instance().disable();
  ASSERT_TRUE(rep) << rep.error().to_string();

  bool saw_inspect = false;
  obs::TraceRecorder::instance().for_each_event(
      [&](std::size_t, const obs::TraceEvent& ev) {
        if (ev.kind != obs::EventKind::kInspect) return;
        saw_inspect = true;
        EXPECT_EQ(ev.args[0], 32);                        // iterations
        EXPECT_EQ(ev.args[1], rep->inspector_classes);    // classes
        EXPECT_EQ(ev.args[2], rep->inspector_chains);     // chains
        EXPECT_EQ(ev.args[3], rep->inspector_max_component);
        EXPECT_EQ(ev.args[4], rep->inspector_dependent);
        EXPECT_GT(ev.dur_ns, 0);
      });
  EXPECT_TRUE(saw_inspect);
  EXPECT_GT(rep->inspect_ns, 0);
  obs::TraceRecorder::instance().clear();
}

TEST(Inspector, ParserEnforcesOneLevelAndDeclaredTargets) {
  // Nested indirection is one level only.
  Expected<LoopNest> nested = dsl::try_parse_loop_nest(
      "array A[0:9]\narray B[0:9]\narray C[0:9]\n"
      "do i = 0, 9\n  A[B[C[i]]] = 1\nenddo\n");
  ASSERT_FALSE(nested);
  EXPECT_EQ(nested.error().kind, ErrorKind::kParse);

  // An indirect target's extent cannot be inferred.
  Expected<LoopNest> undeclared = dsl::try_parse_loop_nest(
      "array B[0:9]\ndo i = 0, 9\n  A[B[i]] = 1\nenddo\n");
  ASSERT_FALSE(undeclared);
  EXPECT_EQ(undeclared.error().kind, ErrorKind::kParse);

  // Index arrays are read-only: writing one is a validation error.
  Expected<LoopNest> writes_index = dsl::try_parse_loop_nest(
      "array A[0:9]\narray B[0:9]\n"
      "do i = 0, 9\n  B[i] = 0\n  A[B[i]] = 1\nenddo\n");
  ASSERT_FALSE(writes_index);

  // The index array's own shape IS inferred from the pos range.
  Expected<LoopNest> inferred = dsl::try_parse_loop_nest(
      "array A[0:100]\ndo i = 2, 11\n  A[B[i - 1]] = A[B[i - 1]] + 1\nenddo\n");
  ASSERT_TRUE(inferred) << inferred.error().to_string();
  bool found = false;
  for (const loopir::ArrayDecl& a : inferred->arrays())
    if (a.name == "B") {
      found = true;
      ASSERT_EQ(a.dims.size(), 1u);
      EXPECT_EQ(a.dims[0].first, 1);
      EXPECT_EQ(a.dims[0].second, 10);
    }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace vdep
