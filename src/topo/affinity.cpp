#include "topo/affinity.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#ifdef __linux__
#include <sched.h>
#endif

namespace vdep::topo {

#ifdef __linux__

CpuSet CpuSet::current() {
  CpuSet out;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) != 0) return out;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &mask)) out.cpus_.push_back(c);
  return out;
}

bool pin_supported() { return true; }

static_assert(sizeof(cpu_set_t) == sizeof(std::array<unsigned long, 16>),
              "AffinityGuard keeps a cpu_set_t's bytes");

AffinityGuard::AffinityGuard(int cpu) {
  if (cpu < 0 || cpu >= CPU_SETSIZE) return;
  cpu_set_t mask;
  if (sched_getaffinity(0, sizeof(mask), &mask) != 0) return;
  std::memcpy(saved_.data(), &mask, sizeof(mask));
  CPU_ZERO(&mask);
  CPU_SET(cpu, &mask);
  pinned_ = sched_setaffinity(0, sizeof(mask), &mask) == 0;
}

AffinityGuard::~AffinityGuard() {
  if (!pinned_) return;
  cpu_set_t mask;
  std::memcpy(&mask, saved_.data(), sizeof(mask));
  sched_setaffinity(0, sizeof(mask), &mask);
}

#else  // !__linux__

CpuSet CpuSet::current() { return {}; }
bool pin_supported() { return false; }
AffinityGuard::AffinityGuard(int) {}
AffinityGuard::~AffinityGuard() = default;

#endif

bool CpuSet::test(int cpu) const {
  return std::find(cpus_.begin(), cpus_.end(), cpu) != cpus_.end();
}

bool pin_env_enabled() {
  const char* v = std::getenv("VDEP_PIN");
  return v == nullptr || std::strcmp(v, "0") != 0;
}

std::vector<int> allowed_cpus() { return CpuSet::current().cpus(); }

}  // namespace vdep::topo
