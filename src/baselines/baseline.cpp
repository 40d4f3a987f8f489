#include "baselines/baseline.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "dep/direction.h"
#include "dep/pdm.h"
#include "trans/planner.h"
#include "support/error.h"

namespace vdep::baselines {

namespace {

using dep::Pdm;
using exec::PhasedSchedule;
using exec::Schedule;
using loopir::LoopNest;

/// Lex-positive-oriented constant distance vectors when *every* pair is
/// uniform; nullopt otherwise.
std::optional<std::vector<Vec>> uniform_distances(const Pdm& pdm) {
  std::vector<Vec> out;
  for (const dep::DepPair& p : pdm.pairs()) {
    if (!p.solution.is_uniform()) return std::nullopt;
    Vec d = p.solution.offset;
    if (intlin::is_zero(d)) continue;  // loop-independent
    if (intlin::lex_negative(d)) d = intlin::negate(d);
    if (std::find(out.begin(), out.end(), d) == out.end())
      out.push_back(std::move(d));
  }
  return out;
}

/// Barrier phases grouped by pi . i, ordered ascending.
PhasedSchedule phases_by_hyperplane(const LoopNest& nest, const Vec& pi) {
  std::map<i64, std::vector<Vec>> groups;
  nest.for_each_iteration(
      [&](const Vec& i) { groups[intlin::dot(pi, i)].push_back(i); });
  PhasedSchedule out;
  for (auto& [key, group] : groups) out.phases.push_back(std::move(group));
  return out;
}

/// Smallest (by max |component|) schedule vector with pi . d >= 1 for every
/// d in `dists`; nullopt when none exists within the search box.
std::optional<Vec> find_schedule_vector(int n, const std::vector<Vec>& dists,
                                        i64 radius) {
  Vec pi(static_cast<std::size_t>(n), 0);
  std::optional<Vec> best;
  i64 best_norm = 0;
  std::function<void(int)> rec = [&](int k) {
    if (k == n) {
      i64 norm = 0;
      for (i64 v : pi) norm = std::max(norm, checked::abs(v));
      if (best && norm >= best_norm) return;
      for (const Vec& d : dists)
        if (intlin::dot(pi, d) < 1) return;
      best = pi;
      best_norm = norm;
      return;
    }
    for (i64 v = -radius; v <= radius; ++v) {
      pi[static_cast<std::size_t>(k)] = v;
      rec(k + 1);
    }
    pi[static_cast<std::size_t>(k)] = 0;
  };
  rec(0);
  return best;
}

Outcome phased_outcome(const LoopNest& nest, Outcome base, const Vec& pi) {
  PhasedSchedule sched = phases_by_hyperplane(nest, pi);
  exec::VerifyResult v = exec::verify_phased(nest, sched);
  base.applicable = true;
  base.coarse_grain = false;
  base.steps = sched.phase_count();
  base.width = sched.max_phase_size();
  base.verified = v.ok;
  VDEP_CHECK(v.ok, base.method + " produced an illegal schedule: " +
                       (v.violations.empty() ? "?" : v.violations[0].reason));
  return base;
}

}  // namespace

Outcome run_serial(const LoopNest& nest) {
  Outcome o{.method = "serial", .abstraction = "none", .codegen = "-"};
  o.applicable = true;
  o.coarse_grain = true;
  o.steps = nest.iteration_count();
  o.width = 1;
  o.verified = true;
  o.note = "reference order";
  return o;
}

Outcome run_uniform_unimodular(const LoopNest& nest) {
  Outcome o{.method = "Banerjee90 unimodular",
            .abstraction = "uniform distance vectors",
            .codegen = "U"};
  Pdm pdm = dep::compute_pdm(nest);
  auto dists = uniform_distances(pdm);
  if (!dists) {
    o.note = "variable distances: not applicable";
    return o;
  }
  if (dists->empty()) {
    // No loop-carried dependence: the whole space is one parallel phase.
    o.applicable = true;
    o.verified = true;
    o.steps = 1;
    o.width = nest.iteration_count();
    o.note = "dependence free";
    return o;
  }
  // Classic wavefront via unimodular skewing: schedule vector pi gives the
  // new outer loop; inner loops are parallel between barriers.
  auto pi = find_schedule_vector(nest.depth(), *dists, 3);
  if (!pi) {
    o.note = "no wavefront within search radius";
    return o;
  }
  o.note = "wavefront pi=" + intlin::to_string(*pi);
  return phased_outcome(nest, std::move(o), *pi);
}

Outcome run_uniform_partitioning(const LoopNest& nest) {
  Outcome o{.method = "D'Hollander92 partitioning",
            .abstraction = "uniform distance matrix",
            .codegen = "P"};
  Pdm pdm = dep::compute_pdm(nest);
  auto dists = uniform_distances(pdm);
  if (!dists) {
    o.note = "variable distances: not applicable";
    return o;
  }
  // Partition by the lattice generated by the constant distances.
  Mat gens(0, nest.depth());
  for (const Vec& d : *dists) gens.push_row(d);
  Pdm uniform_pdm(nest.depth(), intlin::hermite_normal_form(gens), pdm.pairs());
  trans::TransformPlan plan = trans::plan_transform(uniform_pdm);
  Schedule sched = exec::build_schedule(nest, plan);
  exec::VerifyResult v = exec::verify_schedule(nest, sched);
  o.applicable = true;
  o.coarse_grain = true;
  o.steps = sched.max_item_size();
  o.width = sched.parallelism();
  o.verified = v.ok;
  VDEP_CHECK(v.ok, "uniform partitioning produced an illegal schedule");
  o.note = "lattice of constant distances";
  return o;
}

Outcome run_direction_vector_method(const LoopNest& nest) {
  Outcome o{.method = "Wolf-Lam direction vectors",
            .abstraction = "direction vectors",
            .codegen = "U"};
  std::vector<dep::DirectionVector> dvs = dep::nest_direction_vectors(nest);
  // Level-based analysis: a dependence is *carried* at the level of its
  // first '<'; loop k is DOALL iff no direction vector is carried at k
  // (vectors carried earlier are satisfied by the outer sequential loops).
  int n = nest.depth();
  std::vector<bool> doall(static_cast<std::size_t>(n), true);
  for (const auto& dv : dvs) {
    for (int k = 0; k < n; ++k) {
      if (dv[static_cast<std::size_t>(k)] == dep::Dir::kLt) {
        doall[static_cast<std::size_t>(k)] = false;  // carried here
        break;
      }
      if (dv[static_cast<std::size_t>(k)] != dep::Dir::kEq) break;
    }
  }

  // Phases = lexicographic combos of the sequential levels.
  std::map<Vec, std::vector<Vec>> groups;
  nest.for_each_iteration([&](const Vec& i) {
    Vec key;
    for (int k = 0; k < n; ++k)
      if (!doall[static_cast<std::size_t>(k)])
        key.push_back(i[static_cast<std::size_t>(k)]);
    groups[key].push_back(i);
  });
  PhasedSchedule sched;
  for (auto& [key, group] : groups) sched.phases.push_back(std::move(group));
  exec::VerifyResult v = exec::verify_phased(nest, sched);
  o.applicable = true;
  o.coarse_grain = false;
  o.steps = sched.phase_count();
  o.width = sched.max_phase_size();
  o.verified = v.ok;
  VDEP_CHECK(v.ok, "direction-vector method produced an illegal schedule");
  int count = 0;
  for (bool b : doall) count += b ? 1 : 0;
  o.note = std::to_string(count) + " DOALL level(s) of " + std::to_string(n);
  return o;
}

Outcome run_hyperplane_schedule(const LoopNest& nest) {
  Outcome o{.method = "Shang96 BDV+schedule",
            .abstraction = "basic dependence vectors",
            .codegen = "S"};
  // Observed (exact, bounded) lex-positive distances; the linear schedule
  // must strictly separate each of them.
  exec::Isdg g = exec::build_isdg(nest);
  std::set<Vec> dists = g.distance_vectors();
  if (dists.empty()) {
    o.applicable = true;
    o.verified = true;
    o.steps = 1;
    o.width = nest.iteration_count();
    o.note = "dependence free";
    return o;
  }
  std::vector<Vec> dvec(dists.begin(), dists.end());
  auto pi = find_schedule_vector(nest.depth(), dvec, 3);
  if (!pi) {
    o.note = "no 1-D linear schedule exists (needs multidimensional time)";
    return o;
  }
  o.note = "schedule pi=" + intlin::to_string(*pi);
  return phased_outcome(nest, std::move(o), *pi);
}

Outcome run_pdm_method(const LoopNest& nest) {
  Outcome o{.method = "PDM (this work)",
            .abstraction = "pseudo distance matrix",
            .codegen = "U+P"};
  Pdm pdm = dep::compute_pdm(nest);
  trans::TransformPlan plan = trans::plan_transform(pdm);
  Schedule sched = exec::build_schedule(nest, plan);
  exec::VerifyResult v = exec::verify_schedule(nest, sched);
  o.applicable = true;
  o.coarse_grain = true;
  o.steps = sched.max_item_size();
  o.width = sched.parallelism();
  o.verified = v.ok;
  VDEP_CHECK(v.ok, "PDM method produced an illegal schedule");
  o.note = std::to_string(plan.num_doall) + " doall, det " +
           std::to_string(plan.partition_classes);
  return o;
}

std::vector<Outcome> run_all_methods(const LoopNest& nest) {
  return {run_serial(nest),
          run_uniform_unimodular(nest),
          run_uniform_partitioning(nest),
          run_direction_vector_method(nest),
          run_hyperplane_schedule(nest),
          run_pdm_method(nest)};
}

std::string format_table(const std::string& loop_name,
                         const std::vector<Outcome>& outcomes) {
  std::ostringstream os;
  os << "Loop: " << loop_name << "\n";
  os << "  " << std::left;
  auto row = [&](const std::string& m, const std::string& abst,
                 const std::string& app, const std::string& steps,
                 const std::string& width, const std::string& cg,
                 const std::string& note) {
    os << "  | ";
    os.width(26);
    os << std::left << m << " | ";
    os.width(26);
    os << abst << " | ";
    os.width(4);
    os << app << " | ";
    os.width(7);
    os << steps << " | ";
    os.width(7);
    os << width << " | ";
    os.width(4);
    os << cg << " | " << note << "\n";
  };
  row("method", "dependence info", "appl", "steps", "width", "gen", "note");
  for (const Outcome& o : outcomes)
    row(o.method, o.abstraction, o.applicable ? "yes" : "no",
        o.applicable ? std::to_string(o.steps) : "-",
        o.applicable ? std::to_string(o.width) : "-", o.codegen, o.note);
  return os.str();
}

}  // namespace vdep::baselines
