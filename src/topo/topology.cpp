#include "topo/topology.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>

#include "support/thread_pool.h"
#include "topo/affinity.h"

namespace vdep::topo {

namespace {

/// Reads a one-line sysfs file; empty optional on any failure.
bool read_line(const std::string& path, std::string& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::getline(in, out);
  return in.good() || in.eof();
}

bool read_int(const std::string& path, int& out) {
  std::string line;
  if (!read_line(path, line)) return false;
  try {
    out = std::stoi(line);
  } catch (...) {
    return false;
  }
  return true;
}

/// Parses the sysfs cpu-list format: "0-3,5,8-9". Returns false on any
/// token it cannot parse (trailing whitespace/newlines are tolerated).
bool parse_cpu_list(const std::string& text, std::vector<int>& out) {
  std::istringstream is(text);
  std::string token;
  while (std::getline(is, token, ',')) {
    while (!token.empty() && (token.back() == '\n' || token.back() == ' '))
      token.pop_back();
    if (token.empty()) continue;
    std::size_t dash = token.find('-');
    try {
      if (dash == std::string::npos) {
        out.push_back(std::stoi(token));
      } else {
        int lo = std::stoi(token.substr(0, dash));
        int hi = std::stoi(token.substr(dash + 1));
        if (hi < lo) return false;
        for (int c = lo; c <= hi; ++c) out.push_back(c);
      }
    } catch (...) {
      return false;
    }
  }
  return !out.empty();
}

}  // namespace

Topology::Topology(std::vector<CpuInfo> cpus) : cpus_(std::move(cpus)) {}

Topology Topology::flat(int n) {
  std::vector<CpuInfo> cpus;
  cpus.reserve(static_cast<std::size_t>(std::max(n, 1)));
  for (int k = 0; k < std::max(n, 1); ++k) cpus.push_back({k, k, 0, 0});
  Topology t(std::move(cpus));
  t.flat_fallback_ = true;
  return t;
}

Topology Topology::from_sysfs(const std::string& root) {
  std::string online;
  std::vector<int> ids;
  if (!read_line(root + "/cpu/online", online) ||
      !parse_cpu_list(online, ids)) {
    return flat(1);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());

  // NUMA map first: node directories are dense in practice, but probing by
  // index tolerates a hole or two before giving up (node numbering gaps
  // exist on partitioned hardware).
  std::map<int, int> node_of;
  int misses = 0;
  for (int k = 0; misses < 4; ++k) {
    std::string list;
    if (!read_line(root + "/node/node" + std::to_string(k) + "/cpulist",
                   list)) {
      ++misses;
      continue;
    }
    misses = 0;
    std::vector<int> members;
    if (parse_cpu_list(list, members))
      for (int c : members) node_of[c] = k;
  }

  std::vector<CpuInfo> cpus;
  cpus.reserve(ids.size());
  for (int id : ids) {
    CpuInfo info;
    info.cpu = id;
    const std::string base = root + "/cpu/cpu" + std::to_string(id) +
                             "/topology/";
    if (!read_int(base + "core_id", info.core)) info.core = id;
    if (!read_int(base + "physical_package_id", info.package)) info.package = 0;
    auto it = node_of.find(id);
    info.node = it != node_of.end() ? it->second : 0;
    cpus.push_back(info);
  }
  return Topology(std::move(cpus));
}

const Topology& Topology::system() {
  static const Topology topo = [] {
    std::vector<int> allowed = allowed_cpus();
    Topology raw = Topology::from_sysfs("/sys/devices/system");
    if (raw.flat_fallback_) {
      // No sysfs: a flat topology over the allowed cpus (or hardware
      // concurrency when even the affinity mask is unreadable).
      if (allowed.empty())
        return flat(static_cast<int>(default_worker_count()));
      std::vector<CpuInfo> cpus;
      for (int c : allowed) cpus.push_back({c, c, 0, 0});
      Topology t(std::move(cpus));
      t.flat_fallback_ = true;
      return t;
    }
    if (allowed.empty()) return raw;
    // Keep only the cpus the scheduler will actually let us run on
    // (taskset masks, cgroup cpusets): pinning outside the mask is EINVAL.
    std::vector<CpuInfo> kept;
    for (const CpuInfo& c : raw.cpus_)
      if (std::find(allowed.begin(), allowed.end(), c.cpu) != allowed.end())
        kept.push_back(c);
    if (kept.empty()) return raw;
    return Topology(std::move(kept));
  }();
  return topo;
}

int Topology::sockets() const {
  std::vector<int> seen;
  for (const CpuInfo& c : cpus_) seen.push_back(c.package);
  std::sort(seen.begin(), seen.end());
  seen.erase(std::unique(seen.begin(), seen.end()), seen.end());
  return std::max<int>(1, static_cast<int>(seen.size()));
}

int Topology::numa_nodes() const {
  std::vector<int> seen;
  for (const CpuInfo& c : cpus_) seen.push_back(c.node);
  std::sort(seen.begin(), seen.end());
  seen.erase(std::unique(seen.begin(), seen.end()), seen.end());
  return std::max<int>(1, static_cast<int>(seen.size()));
}

int Topology::cores() const {
  std::vector<std::pair<int, int>> seen;
  for (const CpuInfo& c : cpus_) seen.emplace_back(c.package, c.core);
  std::sort(seen.begin(), seen.end());
  seen.erase(std::unique(seen.begin(), seen.end()), seen.end());
  return std::max<int>(1, static_cast<int>(seen.size()));
}

bool Topology::smt() const { return num_cpus() > cores(); }

int Topology::distance(int a, int b) const {
  if (a == b) return kSameCpu;
  const CpuInfo& x = cpus_[static_cast<std::size_t>(a)];
  const CpuInfo& y = cpus_[static_cast<std::size_t>(b)];
  if (x.package == y.package && x.core == y.core) return kSmtSibling;
  if (x.node == y.node) return kSameNode;
  return kRemoteNode;
}

std::vector<int> Topology::assign_workers(std::size_t n) const {
  std::vector<int> out(n, 0);
  if (cpus_.empty() || n == 0) return out;

  // Group slots by physical core, cores ordered by (node, package, core) so
  // same-node cores are adjacent; within a core, threads in cpu-id order.
  std::map<std::tuple<int, int, int>, std::vector<int>> by_core;
  for (int s = 0; s < num_cpus(); ++s) {
    const CpuInfo& c = cpus_[static_cast<std::size_t>(s)];
    by_core[{c.node, c.package, c.core}].push_back(s);
  }
  for (auto& [key, slots] : by_core)
    std::sort(slots.begin(), slots.end(), [&](int a, int b) {
      return cpus_[static_cast<std::size_t>(a)].cpu <
             cpus_[static_cast<std::size_t>(b)].cpu;
    });

  // Wave w takes the (w+1)-th thread of every core — all distinct cores
  // before any SMT doubling. Within a wave, cores rotate across NUMA nodes
  // so low worker counts spread over nodes instead of filling node 0.
  std::vector<int> order;
  order.reserve(cpus_.size());
  for (std::size_t wave = 0; order.size() < cpus_.size(); ++wave) {
    // Per-node core lists for this wave, in node order.
    std::map<int, std::vector<int>> per_node;
    for (const auto& [key, slots] : by_core)
      if (wave < slots.size()) per_node[std::get<0>(key)].push_back(slots[wave]);
    if (per_node.empty()) break;
    for (std::size_t k = 0;; ++k) {
      bool any = false;
      for (auto& [node, slots] : per_node) {
        if (k < slots.size()) {
          order.push_back(slots[k]);
          any = true;
        }
      }
      if (!any) break;
    }
  }

  for (std::size_t w = 0; w < n; ++w) out[w] = order[w % order.size()];
  return out;
}

std::vector<std::vector<int>> Topology::steal_rings(
    const std::vector<int>& assignment, int self) const {
  std::vector<std::vector<int>> rings(kNumDistances);
  const int mine = assignment[static_cast<std::size_t>(self)];
  for (int w = 0; w < static_cast<int>(assignment.size()); ++w) {
    if (w == self) continue;
    rings[static_cast<std::size_t>(
              distance(mine, assignment[static_cast<std::size_t>(w)]))]
        .push_back(w);
  }
  return rings;
}

}  // namespace vdep::topo
