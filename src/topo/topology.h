// Hardware topology discovery for the work-stealing runtime.
//
// The scheduler's costs are not uniform: a steal from an SMT sibling moves
// a descriptor between hyperthreads sharing one L1/L2; a steal within a
// NUMA node crosses a shared L3; a steal from a remote node drags every
// cache line the leaf touches across the interconnect. Topology models the
// machine as sockets -> NUMA nodes -> physical cores -> SMT siblings,
// discovered from /sys/devices/system/{cpu,node}, and answers the two
// questions the runtime asks:
//
//   assign_workers(n)  which cpu should worker k pin to (spread over
//                      distinct physical cores round-robin across nodes
//                      before doubling up on SMT siblings; oversubscribed
//                      workers wrap)
//   steal_rings(...)   in what order should an idle worker probe victims
//                      (same cpu, then SMT sibling, then same node, then
//                      remote — randomized within each ring by the caller)
//
// Discovery degrades, never fails: an unreadable sysfs (non-Linux, sandbox,
// fixture tests on odd hosts) yields a flat single-node topology over the
// process's allowed cpus, which reproduces the uniform sweep the runtime
// always had. A fixture directory with the same layout substitutes for
// /sys/devices/system in tests, so multi-node parsing is covered on any
// build host.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace vdep::topo {

/// One logical cpu (hardware thread) the process may run on.
struct CpuInfo {
  int cpu = 0;      ///< kernel cpu id (the sched_setaffinity bit)
  int core = 0;     ///< core id, unique only within a package (sysfs semantics)
  int package = 0;  ///< physical_package_id (socket)
  int node = 0;     ///< NUMA node
};

class Topology {
 public:
  /// Steal-distance classes between two logical cpus, nearest first.
  static constexpr int kSameCpu = 0;     ///< same hardware thread (oversubscribed)
  static constexpr int kSmtSibling = 1;  ///< same physical core, other thread
  static constexpr int kSameNode = 2;    ///< same NUMA node, other core
  static constexpr int kRemoteNode = 3;  ///< different NUMA node
  static constexpr int kNumDistances = 4;

  /// Parses a sysfs-layout directory: `root`/cpu/online (list format,
  /// holes allowed), `root`/cpu/cpu<N>/topology/{physical_package_id,
  /// core_id}, `root`/node/node<K>/cpulist. Missing node directories put
  /// every cpu on node 0; per-cpu topology files degrade to one core per
  /// cpu; an unreadable online file degrades to flat(1). Never throws.
  static Topology from_sysfs(const std::string& root);

  /// Synthetic flat machine: `n` cpus 0..n-1, one thread per core, one
  /// package, one node.
  static Topology flat(int n);

  /// The host, discovered once: /sys/devices/system intersected with the
  /// process's affinity mask (taskset / cgroups), so pinning never targets
  /// a cpu the kernel would reject. Empty intersection (or non-Linux)
  /// falls back to a flat topology over the allowed cpus.
  static const Topology& system();

  explicit Topology(std::vector<CpuInfo> cpus);

  int num_cpus() const { return static_cast<int>(cpus_.size()); }
  const std::vector<CpuInfo>& cpus() const { return cpus_; }

  int sockets() const;
  int numa_nodes() const;
  /// Distinct physical cores.
  int cores() const;
  /// True when any core carries more than one hardware thread.
  bool smt() const;
  /// True when discovery failed and this is a synthesized flat topology.
  bool flat_fallback() const { return flat_fallback_; }

  /// Distance class between two slots of cpus() (not kernel cpu ids).
  int distance(int a, int b) const;

  /// Pinning targets for `n` workers, as slots of cpus(): one worker per
  /// physical core first (cores taken round-robin across NUMA nodes, so
  /// 2 workers on a 2-node machine land on different nodes), then the
  /// remaining SMT siblings (same node order), then wrap modulo for
  /// oversubscription. Empty topologies yield all-zero assignments over a
  /// single synthetic cpu.
  std::vector<int> assign_workers(std::size_t n) const;

  /// Victim probe order for worker `self` under `assignment` (a vector of
  /// cpus() slots as produced by assign_workers): rings[d] holds the other
  /// workers at distance d, ascending worker id. The runtime sweeps ring 0
  /// (co-scheduled on the same cpu) outward to ring 3, randomizing its
  /// start position within each ring.
  std::vector<std::vector<int>> steal_rings(const std::vector<int>& assignment,
                                            int self) const;

 private:
  Topology() = default;

  std::vector<CpuInfo> cpus_;
  bool flat_fallback_ = false;
};

}  // namespace vdep::topo
