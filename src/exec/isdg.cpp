#include "exec/isdg.h"

#include <algorithm>
#include <sstream>

#include "exec/interpreter.h"
#include "support/error.h"

namespace vdep::exec {

Isdg Isdg::build(const loopir::LoopNest& nest, const ArrayStore* store) {
  Isdg g;
  g.nodes_ = nest.iterations();
  for (std::size_t k = 0; k < g.nodes_.size(); ++k)
    g.index_[g.nodes_[k]] = static_cast<int>(k);

  // Group accesses by touched memory cell.
  struct Touch {
    int node;
    bool write;
  };
  std::map<std::pair<std::string, Vec>, std::vector<Touch>> cells;
  auto accesses = nest.accesses();
  for (std::size_t k = 0; k < g.nodes_.size(); ++k)
    for (const auto& a : accesses) {
      Vec cell = store ? element_coords(a.ref, g.nodes_[k], *store)
                       : a.ref.element_at(g.nodes_[k]);
      cells[{a.ref.array, std::move(cell)}].push_back(
          {static_cast<int>(k), a.is_write});
    }

  std::set<std::tuple<int, int, dep::DepKind>> dedup;
  for (const auto& [cell, touches] : cells) {
    for (std::size_t x = 0; x < touches.size(); ++x) {
      for (std::size_t y = 0; y < touches.size(); ++y) {
        const Touch& tx = touches[x];
        const Touch& ty = touches[y];
        if (!tx.write && !ty.write) continue;
        if (tx.node == ty.node) continue;
        const Vec& ix = g.nodes_[static_cast<std::size_t>(tx.node)];
        const Vec& iy = g.nodes_[static_cast<std::size_t>(ty.node)];
        if (!intlin::lex_less(ix, iy)) continue;  // orient src -> dst
        dep::DepKind kind = tx.write && ty.write ? dep::DepKind::kOutput
                            : tx.write           ? dep::DepKind::kFlow
                                                 : dep::DepKind::kAnti;
        if (dedup.insert({tx.node, ty.node, kind}).second)
          g.edges_.push_back({ix, iy, kind});
      }
    }
  }
  return g;
}

Isdg build_isdg(const loopir::LoopNest& nest) {
  VDEP_REQUIRE(!nest.has_indirection(),
               "build_isdg without a store on an indirect nest; pass the "
               "ArrayStore holding the index arrays");
  return Isdg::build(nest, nullptr);
}

Isdg build_isdg(const loopir::LoopNest& nest, const ArrayStore& store) {
  return Isdg::build(nest, &store);
}

i64 Isdg::dependent_node_count() const {
  std::set<Vec> dep_nodes;
  for (const IsdgEdge& e : edges_) {
    dep_nodes.insert(e.src);
    dep_nodes.insert(e.dst);
  }
  return static_cast<i64>(dep_nodes.size());
}

std::set<Vec> Isdg::distance_vectors() const {
  std::set<Vec> out;
  for (const IsdgEdge& e : edges_) out.insert(intlin::sub(e.dst, e.src));
  return out;
}

i64 Isdg::critical_path_length() const {
  // Nodes are in lexicographic order and edges point lex-forward, so the
  // node list is already a topological order.
  std::vector<i64> dp(nodes_.size(), 0);
  std::vector<std::vector<int>> in_edges(nodes_.size());
  for (const IsdgEdge& e : edges_)
    in_edges[static_cast<std::size_t>(index_.at(e.dst))].push_back(
        index_.at(e.src));
  i64 best = 0;
  for (std::size_t k = 0; k < nodes_.size(); ++k) {
    for (int src : in_edges[k])
      dp[k] = std::max(dp[k], dp[static_cast<std::size_t>(src)] + 1);
    best = std::max(best, dp[k]);
  }
  return best;
}

i64 Isdg::chain_count() const {
  // Union-find over dependent nodes.
  std::vector<int> parent(nodes_.size());
  for (std::size_t k = 0; k < parent.size(); ++k) parent[k] = static_cast<int>(k);
  std::function<int(int)> find = [&](int x) {
    while (parent[static_cast<std::size_t>(x)] != x) {
      parent[static_cast<std::size_t>(x)] =
          parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(x)])];
      x = parent[static_cast<std::size_t>(x)];
    }
    return x;
  };
  std::set<int> involved;
  for (const IsdgEdge& e : edges_) {
    int a = find(index_.at(e.src));
    int b = find(index_.at(e.dst));
    if (a != b) parent[static_cast<std::size_t>(a)] = b;
    involved.insert(index_.at(e.src));
    involved.insert(index_.at(e.dst));
  }
  std::set<int> roots;
  for (int n : involved) roots.insert(find(n));
  return static_cast<i64>(roots.size());
}

Vec Isdg::min_abs_stride() const {
  if (nodes_.empty()) return {};
  Vec best(nodes_.front().size(), 0);
  std::vector<bool> seen(nodes_.front().size(), false);
  for (const IsdgEdge& e : edges_) {
    Vec d = intlin::sub(e.dst, e.src);
    for (std::size_t k = 0; k < d.size(); ++k) {
      i64 a = checked::abs(d[k]);
      if (a == 0) continue;
      if (!seen[k] || a < best[k]) {
        best[k] = a;
        seen[k] = true;
      }
    }
  }
  return best;
}

i64 Isdg::cross_item_edges(const Schedule& sched) const {
  std::map<Vec, int> item_of;
  for (std::size_t it = 0; it < sched.items.size(); ++it)
    for (const Vec& i : sched.items[it]) item_of[i] = static_cast<int>(it);
  i64 crossing = 0;
  for (const IsdgEdge& e : edges_) {
    auto a = item_of.find(e.src);
    auto b = item_of.find(e.dst);
    VDEP_REQUIRE(a != item_of.end() && b != item_of.end(),
                 "schedule does not cover the ISDG nodes");
    if (a->second != b->second) ++crossing;
  }
  return crossing;
}

std::string Isdg::to_ascii(const Schedule* sched) const {
  VDEP_REQUIRE(!nodes_.empty() && nodes_.front().size() == 2,
               "to_ascii renders 2-D spaces only");
  std::set<Vec> dependent;
  for (const IsdgEdge& e : edges_) {
    dependent.insert(e.src);
    dependent.insert(e.dst);
  }
  std::map<Vec, int> item_of;
  if (sched) {
    for (std::size_t it = 0; it < sched->items.size(); ++it)
      for (const Vec& i : sched->items[it]) item_of[i] = static_cast<int>(it);
  }
  i64 lo1 = nodes_.front()[0], hi1 = lo1, lo2 = nodes_.front()[1], hi2 = lo2;
  for (const Vec& v : nodes_) {
    lo1 = std::min(lo1, v[0]);
    hi1 = std::max(hi1, v[0]);
    lo2 = std::min(lo2, v[1]);
    hi2 = std::max(hi2, v[1]);
  }
  std::map<Vec, char> glyph;
  for (const Vec& v : nodes_) {
    char c = '.';
    if (dependent.count(v)) {
      c = 'o';
      if (sched) {
        auto it = item_of.find(v);
        if (it != item_of.end())
          c = static_cast<char>('0' + it->second % 10);
      }
    }
    glyph[v] = c;
  }
  std::ostringstream os;
  for (i64 y = hi2; y >= lo2; --y) {
    for (i64 x = lo1; x <= hi1; ++x) {
      auto it = glyph.find(Vec{x, y});
      os << (it == glyph.end() ? ' ' : it->second) << ' ';
    }
    os << "\n";
  }
  return os.str();
}

std::string Isdg::to_dot(std::size_t max_nodes) const {
  std::ostringstream os;
  os << "digraph isdg {\n  node [shape=point];\n";
  std::size_t shown = std::min(nodes_.size(), max_nodes);
  auto name = [](const Vec& v) {
    std::string s = "n";
    for (i64 x : v) {  // appended: GCC 12 flags operator+ with -Wrestrict
      s += x < 0 ? "_m" : "_";
      s += std::to_string(x < 0 ? -x : x);
    }
    return s;
  };
  // The figures distinguish solid (dependent) from hollow (independent)
  // iterations; earlier revisions rendered every node identically, so the
  // DOT output disagreed with to_ascii / dependent_node_count().
  std::set<Vec> dependent;
  for (const IsdgEdge& e : edges_) {
    dependent.insert(e.src);
    dependent.insert(e.dst);
  }
  for (std::size_t k = 0; k < shown; ++k) {
    const Vec& v = nodes_[k];
    os << "  " << name(v) << " [pos=\"" << v[0] << ","
       << (v.size() > 1 ? v[1] : 0) << "!\" "
       << (dependent.count(v) ? "style=filled color=black"
                              : "style=solid color=gray70")
       << "];\n";
  }
  for (const IsdgEdge& e : edges_) {
    if (static_cast<std::size_t>(index_.at(e.src)) >= shown ||
        static_cast<std::size_t>(index_.at(e.dst)) >= shown)
      continue;
    const char* style = e.kind == dep::DepKind::kFlow    ? "solid"
                        : e.kind == dep::DepKind::kAnti  ? "dashed"
                                                         : "dotted";
    os << "  " << name(e.src) << " -> " << name(e.dst) << " [style=" << style
       << "];\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace vdep::exec
