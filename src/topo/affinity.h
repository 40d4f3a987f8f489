// Thread-affinity helpers over sched_{get,set}affinity.
//
// Pinning in this runtime is always *restorative*: worker 0 is the calling
// thread and pool threads are long-lived, so a run must never leave its
// affinity footprint behind. AffinityGuard pins on construction and puts
// the previous mask back on destruction.
//
// Non-Linux builds compile to no-ops (pin_supported() == false); the
// scheduler keeps its topology-ordered stealing either way, it just cannot
// promise the workers stay where it assumed.
#pragma once

#include <array>
#include <vector>

namespace vdep::topo {

/// A set of kernel cpu ids (a thin, copyable wrapper over cpu_set_t).
class CpuSet {
 public:
  /// The calling thread's current affinity mask; empty set on failure.
  static CpuSet current();

  bool test(int cpu) const;
  int count() const { return static_cast<int>(cpus_.size()); }
  bool empty() const { return cpus_.empty(); }
  /// Member cpu ids, ascending.
  const std::vector<int>& cpus() const { return cpus_; }

 private:
  std::vector<int> cpus_;
};

/// Whether this build/host can pin at all.
bool pin_supported();

/// Runtime opt-out: false when the environment sets VDEP_PIN=0.
bool pin_env_enabled();

/// The process's allowed cpu ids (sched_getaffinity); empty when the mask
/// cannot be read. Topology::system() intersects discovery with this.
std::vector<int> allowed_cpus();

/// RAII pin of the calling thread to one cpu; restores the thread's
/// previous mask on destruction. Construction with an unsupported host or
/// a rejected cpu leaves the thread untouched (pinned() == false). A guard
/// allocates nothing: it keeps the previous mask as raw bytes, so a pool
/// thread pins for a run without touching the heap.
class AffinityGuard {
 public:
  explicit AffinityGuard(int cpu);
  ~AffinityGuard();
  AffinityGuard(const AffinityGuard&) = delete;
  AffinityGuard& operator=(const AffinityGuard&) = delete;

  bool pinned() const { return pinned_; }

 private:
  /// The previous mask: a cpu_set_t's bytes (1024 cpus).
  std::array<unsigned long, 16> saved_{};
  bool pinned_ = false;
};

}  // namespace vdep::topo
