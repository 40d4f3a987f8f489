// Runnable implementations of the related-work methods compared in the
// paper's Table 1, plus the PDM method itself, all reduced to a common
// outcome shape so the table bench can regenerate the comparison with
// *measured* parallelism instead of citations.
//
// Two execution models appear:
//   * coarse grain — mutually independent work items (partitioning-style
//     methods): steps = longest item, width = number of items;
//   * phased — barrier-synchronized wavefronts (hyperplane-style methods):
//     steps = number of phases, width = widest phase.
// Every produced schedule is checked with the exec verifier, so a method
// can never report parallelism it is not entitled to.
#pragma once

#include <optional>
#include <string>

#include "exec/isdg.h"
#include "exec/verify.h"

namespace vdep::baselines {

using intlin::i64;
using intlin::Mat;
using intlin::Vec;

struct Outcome {
  std::string method;       ///< display name (Table 1 row)
  std::string abstraction;  ///< dependence information used (column 2)
  std::string codegen;      ///< code generation style (column 5)
  bool applicable = false;  ///< method handles this loop at all
  bool coarse_grain = false;  ///< independent items (no barriers)

  /// Sequential time in iteration steps (lower is better).
  i64 steps = 0;
  /// Exploited parallelism (higher is better).
  i64 width = 1;
  /// Verified legal by the trace checker (always true unless a method is
  /// intentionally reported as inapplicable).
  bool verified = false;

  /// Free-form remark; default-initialized so designated initializers may
  /// leave it out without -Wmissing-field-initializers.
  std::string note{};
};

/// Sequential execution (the degenerate baseline every method must beat).
Outcome run_serial(const loopir::LoopNest& nest);

/// Banerjee-style unimodular wavefront on *uniform* distance vectors
/// (interchange/skew/reversal framework): applicable only when every
/// dependence pair has a constant distance.
Outcome run_uniform_unimodular(const loopir::LoopNest& nest);

/// D'Hollander-style lattice partitioning on uniform distance vectors.
Outcome run_uniform_partitioning(const loopir::LoopNest& nest);

/// Wolf/Lam direction-vector framework: level-based DOALL detection from
/// direction vectors (no exact distance information).
Outcome run_direction_vector_method(const loopir::LoopNest& nest);

/// Shang-style BDV + one-dimensional linear (hyperplane) schedule: searches
/// a schedule vector pi with pi.d >= 1 for every observed distance.
Outcome run_hyperplane_schedule(const loopir::LoopNest& nest);

/// This paper: PDM + Algorithm 1 + Theorem 2 partitioning.
Outcome run_pdm_method(const loopir::LoopNest& nest);

/// All of the above, in Table 1 order.
std::vector<Outcome> run_all_methods(const loopir::LoopNest& nest);

/// Formats outcomes as an aligned text table (the Table 1 regeneration).
std::string format_table(const std::string& loop_name,
                         const std::vector<Outcome>& outcomes);

}  // namespace vdep::baselines
