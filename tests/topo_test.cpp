// Tests for the topology layer (sysfs parsing, worker assignment, steal
// rings, affinity helpers) and for the scheduling policies built on it:
// pinning, locality-preferring splits and first-touch placement must never
// change results, only placement.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "blocked_nests.h"
#include "core/suite.h"
#include "dep/pdm.h"
#include "exec/array_store.h"
#include "exec/interpreter.h"
#include "runtime/driver.h"
#include "runtime/stream_executor.h"
#include "support/thread_pool.h"
#include "topo/affinity.h"
#include "topo/topology.h"
#include "trans/planner.h"

namespace vdep::topo {
namespace {

using intlin::i64;

// -------------------------------------------------------- sysfs fixtures

/// Builds a sysfs-layout directory under the test temp dir. `cpus` rows are
/// {cpu, core, package, node}; nodes get node<K>/cpulist files, cpus get
/// topology/{core_id, physical_package_id}, and `online` is written as-is
/// (so offline holes and odd whitespace are expressible).
class FixtureSysfs {
 public:
  FixtureSysfs(const std::string& name, const std::string& online,
               const std::vector<CpuInfo>& cpus) {
    namespace fs = std::filesystem;
    root_ = fs::path(::testing::TempDir()) / name;
    fs::remove_all(root_);
    fs::create_directories(root_ / "cpu");
    write(root_ / "cpu" / "online", online);
    std::map<int, std::vector<int>> node_members;
    for (const CpuInfo& c : cpus) {
      fs::path topo =
          root_ / "cpu" / ("cpu" + std::to_string(c.cpu)) / "topology";
      fs::create_directories(topo);
      write(topo / "core_id", std::to_string(c.core));
      write(topo / "physical_package_id", std::to_string(c.package));
      node_members[c.node].push_back(c.cpu);
    }
    for (const auto& [node, members] : node_members) {
      fs::path dir = root_ / "node" / ("node" + std::to_string(node));
      fs::create_directories(dir);
      std::string list;
      for (int c : members) list += (list.empty() ? "" : ",") + std::to_string(c);
      write(dir / "cpulist", list);
    }
  }
  ~FixtureSysfs() { std::filesystem::remove_all(root_); }

  std::string path() const { return root_.string(); }

 private:
  static void write(const std::filesystem::path& p, const std::string& text) {
    std::ofstream out(p);
    out << text << "\n";
  }
  std::filesystem::path root_;
};

/// Two sockets, two NUMA nodes, two SMT threads per core, with cpus 4-5
/// offline: node 0 holds cores {0: cpus 0,8} {1: cpus 1,9}, node 1 holds
/// cores {0: cpus 2,10} {1: cpus 3,11} (core ids repeat across packages,
/// as on real hardware).
std::vector<CpuInfo> two_node_smt() {
  return {
      {0, 0, 0, 0}, {8, 0, 0, 0},   // node 0, core 0 + sibling
      {1, 1, 0, 0}, {9, 1, 0, 0},   // node 0, core 1 + sibling
      {2, 0, 1, 1}, {10, 0, 1, 1},  // node 1, core 0 + sibling
      {3, 1, 1, 1}, {11, 1, 1, 1},  // node 1, core 1 + sibling
  };
}

TEST(TopologySysfs, ParsesMultiNodeSmtWithOfflineHoles) {
  FixtureSysfs fx("vdep_topo_multinode", "0-3,8-11", two_node_smt());
  Topology t = Topology::from_sysfs(fx.path());
  ASSERT_FALSE(t.flat_fallback());
  EXPECT_EQ(t.num_cpus(), 8);
  EXPECT_EQ(t.sockets(), 2);
  EXPECT_EQ(t.numa_nodes(), 2);
  EXPECT_EQ(t.cores(), 4);
  EXPECT_TRUE(t.smt());

  // Slot lookup by kernel cpu id.
  auto slot = [&](int cpu) {
    for (int s = 0; s < t.num_cpus(); ++s)
      if (t.cpus()[static_cast<std::size_t>(s)].cpu == cpu) return s;
    return -1;
  };
  EXPECT_EQ(t.distance(slot(0), slot(0)), Topology::kSameCpu);
  EXPECT_EQ(t.distance(slot(0), slot(8)), Topology::kSmtSibling);
  EXPECT_EQ(t.distance(slot(0), slot(1)), Topology::kSameNode);
  EXPECT_EQ(t.distance(slot(0), slot(2)), Topology::kRemoteNode);
  // Same core id, different package: NOT siblings.
  EXPECT_EQ(t.distance(slot(0), slot(10)), Topology::kRemoteNode);
}

TEST(TopologySysfs, OfflineCpusAreExcluded) {
  // online says 0-2 although topology files exist for 0-3.
  std::vector<CpuInfo> cpus = {{0, 0, 0, 0}, {1, 1, 0, 0}, {2, 2, 0, 0},
                               {3, 3, 0, 0}};
  FixtureSysfs fx("vdep_topo_offline", "0-2", cpus);
  Topology t = Topology::from_sysfs(fx.path());
  EXPECT_EQ(t.num_cpus(), 3);
  for (const CpuInfo& c : t.cpus()) EXPECT_NE(c.cpu, 3);
}

TEST(TopologySysfs, MissingTopologyFilesDegradeToFlatPerCpuCores) {
  namespace fs = std::filesystem;
  fs::path root = fs::path(::testing::TempDir()) / "vdep_topo_bare";
  fs::remove_all(root);
  fs::create_directories(root / "cpu");
  {
    std::ofstream out(root / "cpu" / "online");
    out << "0-3\n";
  }
  Topology t = Topology::from_sysfs(root.string());
  fs::remove_all(root);
  ASSERT_FALSE(t.flat_fallback());
  EXPECT_EQ(t.num_cpus(), 4);
  EXPECT_EQ(t.cores(), 4);   // core defaults to the cpu id: all distinct
  EXPECT_EQ(t.numa_nodes(), 1);
  EXPECT_FALSE(t.smt());
}

TEST(TopologySysfs, UnreadableRootFallsBackFlat) {
  Topology t = Topology::from_sysfs("/nonexistent/vdep/sysfs");
  EXPECT_TRUE(t.flat_fallback());
  EXPECT_EQ(t.num_cpus(), 1);
  EXPECT_EQ(t.numa_nodes(), 1);
}

// ------------------------------------------- assignment and steal rings

TEST(TopologyAssign, SpreadsCoresAcrossNodesBeforeSmt) {
  FixtureSysfs fx("vdep_topo_assign", "0-3,8-11", two_node_smt());
  Topology t = Topology::from_sysfs(fx.path());

  // Two workers land on different NUMA nodes.
  std::vector<int> two = t.assign_workers(2);
  EXPECT_NE(t.cpus()[static_cast<std::size_t>(two[0])].node,
            t.cpus()[static_cast<std::size_t>(two[1])].node);

  // Four workers cover all four physical cores (no SMT doubling yet).
  std::vector<int> four = t.assign_workers(4);
  std::set<std::pair<int, int>> cores;
  for (int s : four) {
    const CpuInfo& c = t.cpus()[static_cast<std::size_t>(s)];
    cores.insert({c.package, c.core});
  }
  EXPECT_EQ(cores.size(), 4u);

  // Eight workers cover all eight hardware threads.
  std::vector<int> eight = t.assign_workers(8);
  EXPECT_EQ(std::set<int>(eight.begin(), eight.end()).size(), 8u);

  // Oversubscription wraps deterministically.
  std::vector<int> twelve = t.assign_workers(12);
  for (std::size_t w = 8; w < 12; ++w) EXPECT_EQ(twelve[w], twelve[w - 8]);
}

TEST(TopologyAssign, StealRingsPartitionOtherWorkersByDistance) {
  FixtureSysfs fx("vdep_topo_rings", "0-3,8-11", two_node_smt());
  Topology t = Topology::from_sysfs(fx.path());
  for (std::size_t n : {2u, 4u, 8u, 12u}) {
    std::vector<int> assignment = t.assign_workers(n);
    for (int self = 0; self < static_cast<int>(n); ++self) {
      std::vector<std::vector<int>> rings = t.steal_rings(assignment, self);
      ASSERT_EQ(rings.size(), static_cast<std::size_t>(Topology::kNumDistances));
      std::set<int> seen;
      for (int d = 0; d < Topology::kNumDistances; ++d) {
        for (int w : rings[static_cast<std::size_t>(d)]) {
          EXPECT_NE(w, self);
          EXPECT_TRUE(seen.insert(w).second) << "worker listed twice";
          EXPECT_EQ(t.distance(assignment[static_cast<std::size_t>(self)],
                               assignment[static_cast<std::size_t>(w)]),
                    d);
        }
      }
      EXPECT_EQ(seen.size(), n - 1) << "rings must cover every other worker";
    }
  }
}

TEST(TopologyAssign, FlatTopologyHasOnlySameNodeRing) {
  Topology t = Topology::flat(4);
  std::vector<int> assignment = t.assign_workers(4);
  std::vector<std::vector<int>> rings = t.steal_rings(assignment, 0);
  EXPECT_TRUE(rings[Topology::kSameCpu].empty());
  EXPECT_TRUE(rings[Topology::kSmtSibling].empty());
  EXPECT_EQ(rings[Topology::kSameNode].size(), 3u);
  EXPECT_TRUE(rings[Topology::kRemoteNode].empty());
}

// ----------------------------------------------------- affinity helpers

TEST(Affinity, SystemTopologyMatchesAllowedCpus) {
  const Topology& t = Topology::system();
  EXPECT_GE(t.num_cpus(), 1);
  if (!pin_supported()) return;
  std::vector<int> allowed = allowed_cpus();
  if (allowed.empty()) return;
  // Every cpu the runtime might pin to must be in the process's mask.
  for (const CpuInfo& c : t.cpus())
    EXPECT_NE(std::find(allowed.begin(), allowed.end(), c.cpu), allowed.end())
        << "cpu " << c.cpu << " not in the affinity mask";
}

TEST(Affinity, GuardPinsAndRestores) {
  if (!pin_supported()) GTEST_SKIP() << "no sched_setaffinity on this host";
  CpuSet before = CpuSet::current();
  ASSERT_FALSE(before.empty());
  const int target = before.cpus().front();
  {
    AffinityGuard guard(target);
    EXPECT_TRUE(guard.pinned());
    CpuSet during = CpuSet::current();
    EXPECT_EQ(during.count(), 1);
    EXPECT_TRUE(during.test(target));
  }
  CpuSet after = CpuSet::current();
  EXPECT_EQ(after.cpus(), before.cpus());
}

TEST(Affinity, VdepPinEnvDisablesPinning) {
  ASSERT_EQ(setenv("VDEP_PIN", "0", 1), 0);
  EXPECT_FALSE(pin_env_enabled());
  EXPECT_FALSE(runtime::detail::effective_pin(true, 8));
  ASSERT_EQ(unsetenv("VDEP_PIN"), 0);
  EXPECT_TRUE(pin_env_enabled());
  // One worker never pins (nothing to place), opt-out always wins.
  EXPECT_FALSE(runtime::detail::effective_pin(true, 1));
  EXPECT_FALSE(runtime::detail::effective_pin(false, 8));
}

// ------------------------------------- scheduling policies are identity-
// ------------------------------------- preserving (results never change)

trans::TransformPlan plan_for(const loopir::LoopNest& nest) {
  return trans::plan_transform(dep::compute_pdm(nest));
}

/// Sequential reference for `nest` from the deterministic pattern fill.
exec::ArrayStore reference(const loopir::LoopNest& nest) {
  exec::ArrayStore ref(nest);
  ref.fill_pattern();
  exec::run_sequential(nest, ref);
  return ref;
}

TEST(Affinity, DefaultWorkerCountIsTheAllowedCpuCount) {
  // A run that names no worker count takes one per cpu in the affinity
  // mask, not hardware_concurrency(): narrowed to one cpu (this thread's
  // mask only), the default and an executor built under it follow.
  if (!pin_supported()) GTEST_SKIP() << "no sched_setaffinity on this host";
  const std::vector<int> cpus = allowed_cpus();
  ASSERT_FALSE(cpus.empty());
  EXPECT_EQ(default_worker_count(), cpus.size());
  AffinityGuard guard(cpus.front());
  ASSERT_TRUE(guard.pinned());
  EXPECT_EQ(allowed_cpus().size(), 1u);
  EXPECT_EQ(default_worker_count(), 1u);
  const loopir::LoopNest nest = core::matmul_reduction(6);
  EXPECT_EQ(runtime::StreamExecutor(nest, plan_for(nest)).num_threads(), 1u);
}

TEST(TopologyScheduling, PinnedAndUnpinnedRunsAreBitIdentical) {
  struct Case {
    const char* name;
    loopir::LoopNest nest;
  };
  Case cases[] = {
      {"example42", core::example42(40)},
      {"skewed_extent", core::skewed_extent(4000)},
      {"matmul_reduction", core::matmul_reduction(12)},
      // example42's classes share cache lines and stay on one worker; the
      // row-parity classes are rows apart, so this case splits a class
      // range across workers.
      {"row_parity", test_inputs::row_parity(40)},
  };
  for (Case& c : cases) {
    trans::TransformPlan plan = plan_for(c.nest);
    exec::ArrayStore ref = reference(c.nest);
    for (std::size_t threads : {1u, 2u, 8u}) {
      for (bool pin : {false, true}) {
        runtime::StreamOptions so;
        so.num_threads = threads;
        runtime::StreamExecutor ex(c.nest, plan, so);
        exec::ArrayStore store(c.nest);
        store.fill_pattern();
        runtime::RuntimeStats rs = ex.run(store, runtime::RunSwitches{true, true, pin});
        EXPECT_TRUE(ref == store)
            << c.name << " threads=" << threads << " pin=" << pin;
        // The invariant tasks == splits + 1 must survive pre-seeding.
        EXPECT_EQ(rs.total_tasks(), rs.total_splits() + 1) << c.name;
        if (std::string(c.name) == "row_parity" && threads > 1)
          EXPECT_GT(rs.total_axis_splits(runtime::TaskDescriptor::kClassAxis), 0)
              << "threads=" << threads;
      }
    }
  }

  // The same four plans as one 4-source run (the batch shape): fewer
  // roots than workers at 8 threads, so seeding splits the fattest roots;
  // at 1 and 2 threads the roots are dealt whole.
  std::vector<trans::TransformPlan> plans;
  std::vector<exec::ArrayStore> refs;
  for (Case& c : cases) {
    plans.push_back(plan_for(c.nest));
    refs.push_back(reference(c.nest));
  }
  for (std::size_t threads : {1u, 2u, 8u}) {
    for (bool pin : {false, true}) {
      runtime::StreamOptions so;
      so.num_threads = threads;
      std::vector<runtime::StreamExecutor> exs;
      std::vector<exec::ArrayStore> stores;
      for (std::size_t k = 0; k < std::size(cases); ++k) {
        exs.emplace_back(cases[k].nest, plans[k], so);
        stores.emplace_back(cases[k].nest);
        stores.back().fill_pattern();
      }
      std::vector<runtime::DriveSource> sources;
      for (std::size_t k = 0; k < exs.size(); ++k)
        sources.push_back(exs[k].source(stores[k]));
      runtime::RuntimeStats rs = runtime::drive_descriptors(
          sources, {threads, {true, true, pin}});
      ASSERT_FALSE(rs.error);
      ASSERT_EQ(rs.sources.size(), exs.size());
      for (std::size_t k = 0; k < exs.size(); ++k) {
        EXPECT_TRUE(refs[k] == stores[k])
            << cases[k].name << " in a 4-source run, threads=" << threads
            << " pin=" << pin;
        EXPECT_EQ(rs.sources[k].tasks, rs.sources[k].splits + 1)
            << cases[k].name << " threads=" << threads;
      }
      EXPECT_EQ(rs.total_tasks(),
                rs.total_splits() + static_cast<std::int64_t>(std::size(cases)));
    }
  }
}

TEST(TopologyScheduling, StealDistanceCountersSumToTotalSteals) {
  loopir::LoopNest nest = core::skewed_extent(1 << 16);
  trans::TransformPlan plan = plan_for(nest);
  runtime::StreamOptions so;
  so.num_threads = 8;
  so.grain = 256;  // many leaves: steals actually happen
  runtime::StreamExecutor ex(nest, plan, so);
  exec::ArrayStore store(nest);
  store.fill_pattern();
  runtime::RuntimeStats rs = ex.run(store);
  i64 by_distance = 0;
  for (int d = 0; d < runtime::kStealDistances; ++d)
    by_distance += rs.total_steals_by_distance(d);
  EXPECT_EQ(by_distance, rs.total_steals());
  for (const runtime::WorkerStats& w : rs.workers) {
    i64 sum = 0;
    for (int d = 0; d < runtime::kStealDistances; ++d)
      sum += w.steals_by_distance[d];
    EXPECT_EQ(sum, w.steals);
  }
  // The human-readable table carries the distance row.
  EXPECT_NE(rs.to_string().find("steals by distance"), std::string::npos);
}

// ---------------------------------------------------------- first touch

TEST(FirstTouch, PlacementNeverChangesValues) {
  loopir::LoopNest nest = core::skewed_extent(1 << 16);  // > 64 KiB arrays
  exec::ArrayStore serial(nest, exec::ArrayStore::Placement::kSerial);
  exec::ArrayStore touched(nest, exec::ArrayStore::Placement::kFirstTouch, 8);
  EXPECT_TRUE(serial == touched);  // both all-zero
  serial.fill_pattern();
  touched.fill_pattern();
  EXPECT_TRUE(serial == touched);
  EXPECT_EQ(serial.checksum(), touched.checksum());
}

TEST(FirstTouch, ExecutionOverFirstTouchStoreMatchesReference) {
  loopir::LoopNest nest = core::skewed_extent(1 << 16);
  trans::TransformPlan plan = plan_for(nest);
  exec::ArrayStore ref = reference(nest);
  runtime::StreamOptions so;
  so.num_threads = 8;
  runtime::StreamExecutor ex(nest, plan, so);
  exec::ArrayStore store(nest, exec::ArrayStore::Placement::kFirstTouch, 8);
  store.fill_pattern();
  ex.run(store);
  EXPECT_TRUE(ref == store);
}

TEST(FirstTouch, TinyAndOddSizedArraysAreFullyZeroed) {
  // Below the 64 KiB parallel threshold and not page-multiple sized: the
  // serial path and the tail page must still zero every element.
  loopir::LoopNest nest = core::example42(37);
  exec::ArrayStore a(nest, exec::ArrayStore::Placement::kFirstTouch, 8);
  exec::ArrayStore b(nest, exec::ArrayStore::Placement::kSerial);
  EXPECT_TRUE(a == b);
}

}  // namespace
}  // namespace vdep::topo
