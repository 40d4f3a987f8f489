#include "codegen/emit_c.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "analysis/loop_partition.h"
#include "support/error.h"

namespace vdep::codegen {

namespace {

using intlin::i64;
using loopir::AffineExpr;
using loopir::ArrayRef;
using loopir::Bound;
using loopir::BoundTerm;
using loopir::Expr;
using loopir::LoopNest;

std::string c_affine(const AffineExpr& e, const std::vector<std::string>& names) {
  std::string s = e.to_string(names);
  return s.empty() ? "0" : s;
}

// Lower-bound term: ceil(num/den); upper: floor(num/den).
std::string c_bound_term(const BoundTerm& t, bool lower,
                         const std::vector<std::string>& names) {
  if (t.den == 1) return c_affine(t.num, names);
  std::ostringstream os;
  os << (lower ? "vdep_ceildiv(" : "vdep_floordiv(") << c_affine(t.num, names)
     << ", " << t.den << ")";
  return os.str();
}

std::string c_bound(const Bound& b, bool lower,
                    const std::vector<std::string>& names) {
  const auto& terms = b.terms();
  VDEP_REQUIRE(!terms.empty(), "empty bound in codegen");
  std::string acc = c_bound_term(terms[0], lower, names);
  for (std::size_t k = 1; k < terms.size(); ++k) {
    acc = std::string(lower ? "vdep_max(" : "vdep_min(") + acc + ", " +
          c_bound_term(terms[k], lower, names) + ")";
  }
  return acc;
}

// An affine reference through its array's macro. The row kernel renders
// indirect references from its resolved table instead (c_row_ref); every
// other emitter refuses indirect nests (emit_range_kernel).
std::string c_ref(const ArrayRef& r, const std::vector<std::string>& names) {
  std::ostringstream os;
  os << r.array << "(";
  for (std::size_t k = 0; k < r.subscripts.size(); ++k)
    os << (k ? ", " : "") << c_affine(r.subscripts[k], names);
  os << ")";
  return os.str();
}

std::string c_expr(const Expr& e, const std::vector<std::string>& names) {
  switch (e.kind()) {
    case Expr::Kind::kConst:
      return std::to_string(e.value());
    case Expr::Kind::kIndex:
      return names[static_cast<std::size_t>(e.index())];
    case Expr::Kind::kRead:
      return c_ref(e.ref(), names);
    case Expr::Kind::kAdd:
      return "(" + c_expr(*e.lhs(), names) + " + " + c_expr(*e.rhs(), names) + ")";
    case Expr::Kind::kSub:
      return "(" + c_expr(*e.lhs(), names) + " - " + c_expr(*e.rhs(), names) + ")";
    case Expr::Kind::kMul:
      return "(" + c_expr(*e.lhs(), names) + " * " + c_expr(*e.rhs(), names) + ")";
  }
  VDEP_UNREACHABLE("expr kind");
}

void emit_body(std::ostringstream& os, const LoopNest& nest,
               const std::vector<std::string>& names, const std::string& indent) {
  for (const loopir::Assign& a : nest.body())
    os << indent << c_ref(a.lhs, names) << " = " << c_expr(*a.rhs, names)
       << ";\n";
}

// ---- Range-kernel pieces (every C target but the row kernel) ----------

// A nest in scan coordinates — the rewritten nest of a plan, or an
// original nest as written — with the structure every range kernel scans:
// `num_doall` leading DOALL levels a caller may box, then Theorem-2
// residue classes over the remaining levels (`partition`), or one class
// that scans them as plain loops (nullptr).
struct ScanNest {
  const LoopNest& nest;
  int num_doall;
  const trans::Partitioning* partition;

  ScanNest(const LoopNest& n, int nd, const trans::Partitioning* p)
      : nest(n), num_doall(nd), partition(p) {}
  ScanNest(const TransformedNest& tn, const trans::TransformPlan& plan)
      : ScanNest(tn.nest, plan.num_doall,
                 plan.partition ? &*plan.partition : nullptr) {}

  i64 classes() const { return partition ? partition->num_classes() : 1; }
};

void emit_kernel_prelude(std::ostringstream& os, bool with_stdio) {
  os << "#include <stdint.h>\n"
     << (with_stdio ? "#include <stdio.h>\n" : "") << "\n"
     << "static inline int64_t vdep_max(int64_t a, int64_t b) { return a > b ? a : b; }\n"
     << "static inline int64_t vdep_min(int64_t a, int64_t b) { return a < b ? a : b; }\n"
     << "static inline int64_t vdep_floordiv(int64_t a, int64_t b) {\n"
     << "  int64_t q = a / b, r = a % b;\n"
     << "  return (r != 0 && ((r < 0) != (b < 0))) ? q - 1 : q;\n"
     << "}\n"
     << "static inline int64_t vdep_ceildiv(int64_t a, int64_t b) {\n"
     << "  int64_t q = a / b, r = a % b;\n"
     << "  return (r != 0 && ((r < 0) == (b < 0))) ? q + 1 : q;\n"
     << "}\n"
     << "static inline int64_t vdep_mod(int64_t a, int64_t b) {\n"
     << "  int64_t m = a % b;\n"
     << "  return m < 0 ? m + (b < 0 ? -b : b) : m;\n"
     << "}\n\n";
}

// Arrays are raw row-major buffers handed in by the caller in declaration
// order; each array's macro flattens its subscripts with the declared lower
// bounds over vdep_buf_<k>.
void emit_array_macros(std::ostringstream& os, const LoopNest& nest) {
  const auto& arrays = nest.arrays();
  for (std::size_t a = 0; a < arrays.size(); ++a) {
    const loopir::ArrayDecl& d = arrays[a];
    os << "#define " << d.name << "(";
    for (int k = 0; k < d.arity(); ++k) os << (k ? ", " : "") << "x" << k;
    os << ") vdep_buf_" << a << "[";
    std::string idx;
    for (int k = 0; k < d.arity(); ++k) {
      auto [lo, hi] = d.dims[static_cast<std::size_t>(k)];
      std::string term =
          "((x" + std::to_string(k) + ") - (" + std::to_string(lo) + "))";
      idx = idx.empty() ? term
                        : "(" + idx + ") * " + std::to_string(hi - lo + 1) +
                              " + " + term;
    }
    os << idx << "]\n";
  }
}

void emit_entry_open(std::ostringstream& os, const LoopNest& nest,
                     const std::string& entry_name) {
  os << "\nint64_t " << entry_name
     << "(int64_t** vdep_arrays, const int64_t* vdep_lo, const int64_t* "
        "vdep_hi,\n"
     << "    int64_t vdep_ndims, int64_t vdep_class_lo, int64_t "
        "vdep_class_hi) {\n";
  for (std::size_t a = 0; a < nest.arrays().size(); ++a)
    os << "  int64_t* restrict vdep_buf_" << a << " = vdep_arrays[" << a
       << "];\n";
  os << "  int64_t vdep_count = 0;\n";
}

// Inside an already-open `vdep_class` loop: decode the mixed-radix class
// label into q0..q{dim-1}, emit the Theorem-2 strided scan loops with
// skewed offsets (paper loop (3.2)), the body and one `++vdep_count` per
// iteration, and close the strided loops again.
void emit_partition_scan(std::ostringstream& os, const LoopNest& nest,
                         const trans::Partitioning& part, int start,
                         const std::vector<std::string>& names,
                         std::string& indent) {
  const Mat& h = part.lattice_basis();
  os << indent << "int64_t vdep_rest = vdep_class;\n";
  for (int k = part.dim() - 1; k >= 0; --k) {
    os << indent << "const int64_t q" << k << " = vdep_rest % "
       << h.at(k, k) << "; vdep_rest /= " << h.at(k, k) << ";\n";
  }

  for (int k = 0; k < part.dim(); ++k) {
    const loopir::Level& l = nest.level(start + k);
    i64 hkk = h.at(k, k);
    // Effective offset with skew terms from outer t coefficients.
    os << indent << "const int64_t off" << k << " = q" << k;
    for (int m = 0; m < k; ++m)
      if (h.at(m, k) != 0) os << " + t" << m << " * " << h.at(m, k);
    os << ";\n";
    os << indent << "const int64_t lo" << k << " = "
       << c_bound(l.lower, true, names) << ";\n";
    os << indent << "for (int64_t " << l.name << " = lo" << k
       << " + vdep_mod(off" << k << " - lo" << k << ", " << hkk << "); "
       << l.name << " <= " << c_bound(l.upper, false, names) << "; " << l.name
       << " += " << hkk << ") {\n";
    indent += "  ";
    if (k + 1 < part.dim())
      os << indent << "const int64_t t" << k << " = (" << l.name << " - off"
         << k << ") / " << hkk << ";\n";
  }

  emit_body(os, nest, names, indent);
  os << indent << "++vdep_count;\n";

  for (int k = part.dim() - 1; k >= 0; --k) {
    indent.resize(indent.size() - 2);
    os << indent << "}\n";
  }
}

// Everything under one `vdep_class` binding: the Theorem-2 strided scan
// (or the unpartitioned trailing levels), counting every iteration.
void emit_class_body(std::ostringstream& os, const ScanNest& s,
                     const std::vector<std::string>& names,
                     std::string& indent) {
  if (s.partition) {
    emit_partition_scan(os, s.nest, *s.partition, s.num_doall, names, indent);
    return;
  }
  // Unpartitioned tail (class range is the degenerate [0, 1)).
  os << indent << "(void)vdep_class;\n";
  int opened = 0;
  for (int k = s.num_doall; k < s.nest.depth(); ++k) {
    const loopir::Level& l = s.nest.level(k);
    os << indent << "for (int64_t " << l.name << " = "
       << c_bound(l.lower, true, names) << "; " << l.name
       << " <= " << c_bound(l.upper, false, names) << "; ++" << l.name
       << ") {\n";
    indent += "  ";
    ++opened;
  }
  emit_body(os, s.nest, names, indent);
  os << indent << "++vdep_count;\n";
  for (int k = 0; k < opened; ++k) {
    indent.resize(indent.size() - 2);
    os << indent << "}\n";
  }
}

// The class loop wrapping emit_class_body — the innermost section of the
// clamped path and of every region of multi-class fast paths.
void emit_class_section(std::ostringstream& os, const ScanNest& s,
                        const std::vector<std::string>& names,
                        std::string& indent) {
  os << indent << "for (int64_t vdep_class = vdep_class_lo; vdep_class < "
     << "vdep_class_hi; ++vdep_class) {\n";
  indent += "  ";
  emit_class_body(os, s, names, indent);
  indent.resize(indent.size() - 2);
  os << indent << "}\n";
}

// Single-residue-class specialization for the fast path: the caller's
// class range is pinned to [0, 1) by the fast-path guard, so the per-point
// class loop degenerates to one body execution and is dropped — the
// spatial loop becomes the innermost loop, which is what lets the
// toolchain vectorize the steady region.
void emit_point_section(std::ostringstream& os, const ScanNest& s,
                        const std::vector<std::string>& names,
                        std::string& indent) {
  os << indent << "{  /* single class: range hoisted into the fast-path "
     << "guard */\n";
  indent += "  ";
  os << indent << "const int64_t vdep_class = 0;\n";
  emit_class_body(os, s, names, indent);
  indent.resize(indent.size() - 2);
  os << indent << "}\n";
}

// The clamped path, every range kernel's generic path: each boxed DOALL
// level intersects its bound with the descriptor box at loop entry. It is
// the whole body of a kernel without a fast path; in a kernel with one it
// serves the callers boxing fewer dimensions than the DOALL count
// (StreamOptions::split_dims).
void emit_clamped_path(std::ostringstream& os, const ScanNest& s,
                       const std::vector<std::string>& names) {
  const int nd = s.num_doall;
  if (nd == 0)
    os << "  (void)vdep_lo; (void)vdep_hi; (void)vdep_ndims;\n";
  std::string indent = "  ";
  for (int k = 0; k < nd; ++k) {
    const loopir::Level& l = s.nest.level(k);
    os << indent << "int64_t vdep_l" << k << " = "
       << c_bound(l.lower, true, names) << ";\n"
       << indent << "int64_t vdep_h" << k << " = "
       << c_bound(l.upper, false, names) << ";\n"
       << indent << "if (" << k << " < vdep_ndims) { vdep_l" << k
       << " = vdep_max(vdep_l" << k << ", vdep_lo[" << k << "]); vdep_h" << k
       << " = vdep_min(vdep_h" << k << ", vdep_hi[" << k << "]); }\n"
       << indent << "for (int64_t " << l.name << " = vdep_l" << k << "; "
       << l.name << " <= vdep_h" << k << "; ++" << l.name << ") {\n";
    indent += "  ";
  }
  emit_class_section(os, s, names, indent);
  for (int k = nd - 1; k >= 0; --k) {
    indent.resize(indent.size() - 2);
    os << indent << "}\n";
  }
}

// The steady-state fast path, taken when the caller boxes exactly the
// DOALL levels. The effective box is the descriptor box clamped once, here,
// to the static interval hull — which makes the region code below agree
// with the clamped path for *any* caller box, not only sub-boxes of the
// hull. Single-class nests additionally pin the class range in the guard
// so the regions below can drop the per-point class loop
// (emit_point_section); any other class range — including empty — takes
// the clamped path.
void emit_fast_path(std::ostringstream& os, const ScanNest& s,
                    const analysis::LoopPartition& part,
                    const std::vector<std::string>& names, bool inject_fault) {
  const LoopNest& nest = s.nest;
  const int nd = s.num_doall;
  VDEP_REQUIRE(nd > 0, "partitioned kernel needs a boxed DOALL prefix");
  VDEP_REQUIRE(part.num_levels == nd,
               "partition level count does not match the plan's DOALL count");
  const int P = part.axis;
  const bool single_class = s.partition == nullptr;
  os << "  if (vdep_ndims == " << nd
     << (single_class ? " && vdep_class_lo == 0 && vdep_class_hi == 1" : "")
     << ") {  /* vdep:partitioned begin */\n";
  std::string indent = "    ";
  for (int k = 0; k < nd; ++k) {
    const analysis::Interval& h = part.env.level_hull(k);
    os << indent << "const int64_t vdep_blo" << k << " = vdep_max(vdep_lo["
       << k << "], " << h.lo << "LL);\n"
       << indent << "const int64_t vdep_bhi" << k << " = vdep_min(vdep_hi["
       << k << "], " << h.hi << "LL);\n";
  }

  // Opens the boxed levels in (from, to) against the effective box, either
  // clamped against their transformed bounds (boundary regions) or scanning
  // the box slice directly (steady: the clamp is provably the identity).
  auto open_inner = [&](int from, int to, bool clamped) {
    for (int k = from; k < to; ++k) {
      const loopir::Level& l = nest.level(k);
      if (clamped) {
        os << indent << "int64_t vdep_l" << k << " = vdep_max("
           << c_bound(l.lower, true, names) << ", vdep_blo" << k << ");\n"
           << indent << "int64_t vdep_h" << k << " = vdep_min("
           << c_bound(l.upper, false, names) << ", vdep_bhi" << k << ");\n"
           << indent << "for (int64_t " << l.name << " = vdep_l" << k << "; "
           << l.name << " <= vdep_h" << k << "; ++" << l.name << ") {\n";
      } else {
        os << indent << "for (int64_t " << l.name << " = vdep_blo" << k
           << "; " << l.name << " <= vdep_bhi" << k << "; ++" << l.name
           << ") {\n";
      }
      indent += "  ";
    }
  };
  auto close_levels = [&](int count) {
    for (int k = 0; k < count; ++k) {
      indent.resize(indent.size() - 2);
      os << indent << "}\n";
    }
  };
  auto emit_section = [&]() {
    if (single_class)
      emit_point_section(os, s, names, indent);
    else
      emit_class_section(os, s, names, indent);
  };
  auto emit_fault = [&]() {
    if (!inject_fault) return;
    os << indent << "const int64_t vdep_fault = vdep_min(vdep_count, 0); "
       << "(void)vdep_fault;  /* injected fault (test-only) */\n";
  };

  if (part.fully_static()) {
    // Every clamp is the identity everywhere: the whole box is steady.
    os << indent << "/* vdep:region steady begin */\n";
    emit_fault();
    open_inner(0, nd, /*clamped=*/false);
    os << indent << "/* vdep:scan begin */\n";
    emit_section();
    os << indent << "/* vdep:scan end */\n";
    close_levels(nd);
    os << indent << "/* vdep:region steady end */\n";
  } else {
    // Steady sub-range of the partition axis: the j_P values where every
    // clip constraint holds for every inner point of the box, computed
    // once from the (runtime) effective box. Candidates only shrink
    // [vdep_blo_P, vdep_bhi_P]; a failed guard or inverted range collapses
    // to the canonical empty pair so the prologue absorbs the whole axis.
    os << indent << "int64_t vdep_s_lo = vdep_blo" << P << ";\n"
       << indent << "int64_t vdep_s_hi = vdep_bhi" << P << ";\n";
    int ci = 0;
    for (const analysis::ClipConstraint& c : part.constraints) {
      const AffineExpr& num = c.term.num;
      std::ostringstream kx;
      kx << c.term.den << "LL * vdep_b" << (c.lower ? "lo" : "hi") << c.level
         << " - (" << num.constant_term() << "LL)";
      for (int m = 0; m < c.level; ++m) {
        if (m == P) continue;
        i64 cm = num.coeff(m);
        if (cm == 0) continue;
        bool worst_hi = c.lower ? (cm > 0) : (cm < 0);
        kx << " - " << cm << "LL * vdep_b" << (worst_hi ? "hi" : "lo") << m;
      }
      os << indent << "const int64_t vdep_kq" << ci << " = " << kx.str()
         << ";\n";
      if (c.coeff_axis == 0) {
        os << indent << "if (vdep_kq" << ci << (c.lower ? " < 0" : " > 0")
           << ") vdep_s_lo = vdep_bhi" << P
           << " + 1;  /* guard: never identity on this box */\n";
      } else if ((c.coeff_axis > 0) == c.lower) {
        os << indent << "vdep_s_hi = vdep_min(vdep_s_hi, vdep_floordiv("
           << "vdep_kq" << ci << ", " << c.coeff_axis << "LL));\n";
      } else {
        os << indent << "vdep_s_lo = vdep_max(vdep_s_lo, vdep_ceildiv("
           << "vdep_kq" << ci << ", " << c.coeff_axis << "LL));\n";
      }
      ++ci;
    }
    os << indent << "if (vdep_s_lo > vdep_s_hi) { vdep_s_lo = vdep_bhi" << P
       << " + 1; vdep_s_hi = vdep_bhi" << P << "; }\n";

    // Levels up to the axis are statically steady (a non-static bound
    // there would reference an index below the axis): box scans, shared by
    // all three regions.
    open_inner(0, P, /*clamped=*/false);

    const std::string& pn = nest.level(P).name;
    os << indent << "/* vdep:region prologue begin */\n"
       << indent << "for (int64_t " << pn << " = vdep_blo" << P << "; " << pn
       << " < vdep_s_lo; ++" << pn << ") {\n";
    indent += "  ";
    open_inner(P + 1, nd, /*clamped=*/true);
    emit_section();
    close_levels(nd - P);
    os << indent << "/* vdep:region prologue end */\n";

    os << indent << "/* vdep:region steady begin */\n";
    emit_fault();
    os << indent << "for (int64_t " << pn << " = vdep_s_lo; " << pn
       << " <= vdep_s_hi; ++" << pn << ") {\n";
    indent += "  ";
    open_inner(P + 1, nd, /*clamped=*/false);
    os << indent << "/* vdep:scan begin */\n";
    emit_section();
    os << indent << "/* vdep:scan end */\n";
    close_levels(nd - P);
    os << indent << "/* vdep:region steady end */\n";

    os << indent << "/* vdep:region epilogue begin */\n"
       << indent << "for (int64_t " << pn << " = vdep_s_hi + 1; " << pn
       << " <= vdep_bhi" << P << "; ++" << pn << ") {\n";
    indent += "  ";
    open_inner(P + 1, nd, /*clamped=*/true);
    emit_section();
    close_levels(nd - P);
    os << indent << "/* vdep:region epilogue end */\n";

    close_levels(P);
  }
  os << "    return vdep_count;\n"
     << "  }  /* vdep:partitioned end */\n";
}

// The one range-kernel frame: prelude, array macros and entry, the fast
// path when `fast` is given, then the clamped path and the return. Every C
// target but the row kernel is this frame (emit_c.h), so the loops codegen()
// prints are the loops the JIT runs.
void emit_range_kernel(std::ostringstream& os, const ScanNest& s,
                       const analysis::LoopPartition* fast,
                       const std::string& entry_name, bool inject_fault,
                       bool with_stdio) {
  VDEP_REQUIRE(!s.nest.has_indirection(),
               "C emission requires affine subscripts; indirect nests run "
               "through the inspector and the row kernel");
  const std::vector<std::string> names = s.nest.index_names();
  emit_kernel_prelude(os, with_stdio);
  emit_array_macros(os, s.nest);
  emit_entry_open(os, s.nest, entry_name);
  if (fast) emit_fast_path(os, s, *fast, names, inject_fault);
  emit_clamped_path(os, s, names);
  os << "  return vdep_count;\n}\n";
}

// The header comment every plan-derived TU opens with.
void emit_plan_header(std::ostringstream& os, const std::string& what,
                      const trans::TransformPlan& plan,
                      const std::string& note) {
  os << "/* Generated by vdep: " << what << " (T = " << plan.t.to_string()
     << ", " << plan.num_doall << " outer DOALL loop(s), "
     << plan.partition_classes << " partition class(es)" << note << "). */\n";
}

// A JIT range-kernel TU: `original` rewritten under `plan`, with the fast
// path when `fast` is given.
std::string range_kernel_tu(const LoopNest& original,
                            const trans::TransformPlan& plan,
                            const analysis::LoopPartition* fast,
                            const std::string& entry_name, bool inject_fault) {
  const TransformedNest tn = rewrite_nest(original, plan);
  std::ostringstream os;
  if (!fast) {
    emit_plan_header(os, "JIT range kernel", plan, "");
  } else {
    emit_plan_header(
        os, "partitioned JIT range kernel", plan,
        "; steady-state " +
            (fast->fully_static()
                 ? std::string("over the whole box (all bounds static)")
                 : "split on axis " + std::to_string(fast->axis) + " by " +
                       std::to_string(fast->constraints.size()) +
                       " clip constraint(s)"));
  }
  emit_range_kernel(os, ScanNest(tn, plan), fast, entry_name, inject_fault,
                    /*with_stdio=*/false);
  return os.str();
}

void emit_main(std::ostringstream& os, const LoopNest& nest,
               const EmitOptions& opts) {
  os << "\nint main(void) {\n";
  for (const loopir::ArrayDecl& a : nest.arrays()) {
    os << "  for (int64_t k = 0; k < " << a.element_count() << "; ++k) "
       << a.name << "_data[k] = (k % 97) - 48;\n";
  }
  os << "  " << opts.kernel_name << "();\n"
     << "  int64_t sum = 0;\n";
  for (const loopir::ArrayDecl& a : nest.arrays()) {
    os << "  for (int64_t k = 0; k < " << a.element_count() << "; ++k) "
       << "sum = (sum * 31 + " << a.name << "_data[k]) % 1000000007;\n";
  }
  os << "  printf(\"%lld\\n\", (long long)sum);\n"
     << "  return 0;\n}\n";
}

// codegen()'s standalone program: the clamped range kernel over static
// buffers, then `void <kernel_name>(void)`, which points a buffer table at
// the statics and calls the kernel over the whole space, then (with_main)
// the checksum-printing main. The driver's loop is the one Lemma 1 (the
// outermost DOALL level, one point per call) or Theorem 2 (the residue
// classes, one class per call) makes parallel; `openmp` annotates it.
void emit_program(std::ostringstream& os, const ScanNest& s,
                  const EmitOptions& opts) {
  const std::string range = opts.kernel_name + "_range";
  emit_range_kernel(os, s, nullptr, range, /*inject_fault=*/false,
                    opts.with_main);
  const auto& arrays = s.nest.arrays();
  os << "\n";
  for (const loopir::ArrayDecl& a : arrays)
    os << "static int64_t " << a.name << "_data[" << a.element_count()
       << "];\n";
  os << "\nvoid " << opts.kernel_name << "(void) {\n"
     << "  int64_t* vdep_arrays[] = {";
  for (std::size_t a = 0; a < arrays.size(); ++a)
    os << (a ? ", " : "") << arrays[a].name << "_data";
  os << "};\n";
  const char* omp = opts.openmp ? "  #pragma omp parallel for\n" : "";
  if (s.num_doall > 0) {
    const loopir::Level& l = s.nest.level(0);
    const std::vector<std::string> names = s.nest.index_names();
    os << omp << "  for (int64_t " << l.name << " = "
       << c_bound(l.lower, true, names) << "; " << l.name
       << " <= " << c_bound(l.upper, false, names) << "; ++" << l.name
       << ")  /* doall */\n"
       << "    " << range << "(vdep_arrays, &" << l.name << ", &" << l.name
       << ", 1, 0, " << s.classes() << ");\n";
  } else if (s.classes() > 1) {
    os << omp << "  for (int64_t vdep_class = 0; vdep_class < "
       << s.classes() << "; ++vdep_class)"
       << "  /* doall: independent residue classes */\n"
       << "    " << range
       << "(vdep_arrays, 0, 0, 0, vdep_class, vdep_class + 1);\n";
  } else {
    os << "  " << range << "(vdep_arrays, 0, 0, 0, 0, 1);\n";
  }
  os << "}\n";
  if (opts.with_main) emit_main(os, s.nest, opts);
}

// ---- JIT row kernel (indirect nests) ----------------------------------

// An int64 literal that is valid C for every value (-2^63 has no literal).
std::string c_i64(i64 v) {
  if (v == std::numeric_limits<i64>::min())
    return "(-9223372036854775807LL - 1)";
  return "(" + std::to_string(v) + "LL)";
}

// The row kernel's view of its nest's indirect references: column j of
// a slot's resolved-table row is refs[j], a reference into buffer buf[j].
struct RowTable {
  std::vector<ArrayRef> refs;
  std::vector<std::size_t> buf;

  explicit RowTable(const LoopNest& nest) : refs(nest.indirect_refs()) {
    const auto& arrays = nest.arrays();
    for (const ArrayRef& r : refs)
      buf.push_back(static_cast<std::size_t>(
          std::find_if(arrays.begin(), arrays.end(),
                       [&](const loopir::ArrayDecl& d) {
                         return d.name == r.array;
                       }) -
          arrays.begin()));
  }
};

// A reference inside the row kernel: an indirect one is a load at its
// resolved offset, `vdep_buf_a[vdep_res[vdep_m * K + j]]`, which reads no
// index array; an affine one goes through its array's macro.
std::string c_row_ref(const ArrayRef& r, const std::vector<std::string>& names,
                      const RowTable& table) {
  if (!r.has_indirection()) return c_ref(r, names);
  const std::size_t j = static_cast<std::size_t>(
      std::find(table.refs.begin(), table.refs.end(), r) - table.refs.begin());
  VDEP_CHECK(j < table.refs.size(), "indirect reference missing from table");
  return "vdep_buf_" + std::to_string(table.buf[j]) + "[vdep_res[vdep_m * " +
         std::to_string(table.refs.size()) + " + " + std::to_string(j) + "]]";
}

// Emits `e` as checked straight-line code: every add/sub/mul gets its own
// temporary and an overflow test returning -1, so nothing after the failed
// operation — in particular the statement's store — runs. Returns the C
// expression holding e's value.
std::string emit_checked_expr(std::ostringstream& os, const Expr& e,
                              const std::vector<std::string>& names,
                              const RowTable& table, const std::string& indent,
                              int& temps) {
  switch (e.kind()) {
    case Expr::Kind::kConst:
      return c_i64(e.value());
    case Expr::Kind::kIndex:
      return names[static_cast<std::size_t>(e.index())];
    case Expr::Kind::kRead:
      return c_row_ref(e.ref(), names, table);
    case Expr::Kind::kAdd:
    case Expr::Kind::kSub:
    case Expr::Kind::kMul: {
      const std::string a =
          emit_checked_expr(os, *e.lhs(), names, table, indent, temps);
      const std::string b =
          emit_checked_expr(os, *e.rhs(), names, table, indent, temps);
      const char* op = e.kind() == Expr::Kind::kAdd   ? "add"
                       : e.kind() == Expr::Kind::kSub ? "sub"
                                                      : "mul";
      const std::string t = "vdep_v" + std::to_string(temps++);
      os << indent << "int64_t " << t << ";\n"
         << indent << "if (__builtin_" << op << "_overflow(" << a << ", " << b
         << ", &" << t << ")) return -1;\n";
      return t;
    }
  }
  VDEP_UNREACHABLE("expr kind");
}

}  // namespace

std::string emit_c_original(const LoopNest& nest, const EmitOptions& opts) {
  std::ostringstream os;
  os << "/* Generated by vdep: original sequential nest. */\n";
  emit_program(os, ScanNest(nest, 0, nullptr), opts);
  return os.str();
}

std::string emit_c_transformed(const LoopNest& original,
                               const trans::TransformPlan& plan,
                               const EmitOptions& opts) {
  const TransformedNest tn = rewrite_nest(original, plan);
  std::ostringstream os;
  emit_plan_header(os, "transformed nest", plan, "");
  emit_program(os, ScanNest(tn, plan), opts);
  return os.str();
}

std::string emit_c_range_kernel(const LoopNest& original,
                                const trans::TransformPlan& plan,
                                const std::string& entry_name) {
  return range_kernel_tu(original, plan, nullptr, entry_name, false);
}

std::string emit_c_partitioned_range_kernel(const LoopNest& original,
                                            const trans::TransformPlan& plan,
                                            const analysis::LoopPartition& part,
                                            const std::string& entry_name,
                                            bool inject_fault) {
  return range_kernel_tu(original, plan, &part, entry_name, inject_fault);
}

std::string emit_c_row_kernel(const LoopNest& nest,
                              const std::string& entry_name) {
  const std::vector<std::string> names = nest.index_names();
  const RowTable table(nest);
  std::ostringstream os;
  os << "/* Generated by vdep: JIT row kernel (" << nest.depth()
     << "-deep indirect nest, " << nest.body().size()
     << " statement(s), " << table.refs.size()
     << " resolved reference(s); checked arithmetic). */\n"
     << "#include <stdint.h>\n\n";
  emit_array_macros(os, nest);
  os << "\nint64_t " << entry_name
     << "(int64_t** vdep_arrays, const int64_t* vdep_rows,\n"
     << "    const int64_t* vdep_res, int64_t vdep_depth, int64_t vdep_m_lo,\n"
     << "    int64_t vdep_m_hi) {\n";
  for (std::size_t a = 0; a < nest.arrays().size(); ++a)
    os << "  int64_t* restrict vdep_buf_" << a << " = vdep_arrays[" << a
       << "];\n";
  os << "  for (int64_t vdep_m = vdep_m_lo; vdep_m < vdep_m_hi; ++vdep_m) {\n"
     << "    const int64_t* vdep_row = vdep_rows + vdep_m * vdep_depth;\n";
  for (int k = 0; k < nest.depth(); ++k)
    os << "    const int64_t " << names[static_cast<std::size_t>(k)]
       << " = vdep_row[" << k << "];\n";
  int temps = 0;
  for (const loopir::Assign& a : nest.body()) {
    const std::string v =
        emit_checked_expr(os, *a.rhs, names, table, "    ", temps);
    os << "    " << c_row_ref(a.lhs, names, table) << " = " << v << ";\n";
  }
  os << "  }\n"
     << "  return vdep_m_hi - vdep_m_lo;\n}\n";
  return os.str();
}

}  // namespace vdep::codegen
