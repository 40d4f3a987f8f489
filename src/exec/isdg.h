// Iteration Space Dependence Graph (ISDG) — the artifact plotted in the
// paper's Figures 2-5.
//
// Nodes are iterations; a directed edge i -> j (i lexicographically before
// j) exists when the two iterations touch a common array element with at
// least one write. The builder is brute force and exact, which makes it the
// ground truth against which the analytical PDM and the transformed
// schedules are validated, and the generator of the figure statistics.
#pragma once

#include <map>
#include <set>
#include <string>

#include "dep/dependence.h"
#include "exec/runner.h"

namespace vdep::exec {

struct IsdgEdge {
  Vec src;
  Vec dst;
  dep::DepKind kind;
};

class Isdg {
 public:
  const std::vector<Vec>& nodes() const { return nodes_; }
  const std::vector<IsdgEdge>& edges() const { return edges_; }

  i64 node_count() const { return static_cast<i64>(nodes_.size()); }
  i64 edge_count() const { return static_cast<i64>(edges_.size()); }
  /// Iterations incident to at least one edge (the figures' solid nodes).
  i64 dependent_node_count() const;

  /// Distinct distance vectors dst - src over all edges.
  std::set<Vec> distance_vectors() const;

  /// Length (edge count) of the longest dependence chain — the minimum
  /// parallel time in "iteration steps" minus 1.
  i64 critical_path_length() const;

  /// Weakly connected components among dependent nodes — the figures'
  /// numbered chains.
  i64 chain_count() const;

  /// Smallest absolute nonzero stride per dimension over all edges
  /// (Figure 4's "always jumps a stride greater than 1" observation).
  Vec min_abs_stride() const;

  /// Edges whose endpoints fall into different schedule items (must be 0
  /// for a legal partitioning — Figure 5's separated sub-spaces).
  i64 cross_item_edges(const Schedule& sched) const;

  /// Graphviz rendering (small spaces). Dependent nodes (incident to at
  /// least one edge — the figures' solid nodes) render `style=filled`;
  /// independent iterations render hollow gray, so the DOT output carries
  /// the same dependent/independent distinction as to_ascii and
  /// dependent_node_count().
  std::string to_dot(std::size_t max_nodes = 4000) const;

  /// Terminal rendering of a 2-D iteration space in the style of the
  /// paper's figures: '.' independent iteration, 'o' dependent iteration;
  /// when `sched` is given, dependent iterations print their work-item
  /// class digit instead (Figure 3/5 style). Rows are i2 descending.
  std::string to_ascii(const Schedule* sched = nullptr) const;

  friend Isdg build_isdg(const loopir::LoopNest& nest);
  friend Isdg build_isdg(const loopir::LoopNest& nest, const ArrayStore& store);

 private:
  static Isdg build(const loopir::LoopNest& nest, const ArrayStore* store);

  std::vector<Vec> nodes_;
  std::vector<IsdgEdge> edges_;
  std::map<Vec, int> index_;
};

/// Brute-force exact ISDG of a (bounded) affine nest.
Isdg build_isdg(const loopir::LoopNest& nest);

/// Brute-force exact ISDG resolving indirect subscripts (A[B[i]]) against
/// the index-array contents in `store` — the ground truth the runtime
/// inspector (src/inspect/) is validated against.
Isdg build_isdg(const loopir::LoopNest& nest, const ArrayStore& store);

}  // namespace vdep::exec
