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

// A reference through its array's macro. An indirect slot renders as a
// read of its index array at the slot's position (the index array's macro
// subtracts its lower bound): emit_c_transformed, CompiledLoop::codegen's
// default target, emits indirect nests this way. The row kernel renders
// indirect references from its resolved table instead (c_row_ref).
std::string c_ref(const ArrayRef& r, const std::vector<std::string>& names) {
  std::ostringstream os;
  os << r.array << "(";
  for (std::size_t k = 0; k < r.subscripts.size(); ++k) {
    if (k) os << ", ";
    if (k < r.indirect.size() && r.indirect[k].has_value())
      os << r.indirect[k]->array << "(" << c_affine(r.indirect[k]->pos, names)
         << ")";
    else
      os << c_affine(r.subscripts[k], names);
  }
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

void emit_prelude(std::ostringstream& os) {
  os << "#include <stdint.h>\n"
     << "#include <stdio.h>\n\n"
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

void emit_arrays(std::ostringstream& os, const LoopNest& nest) {
  for (const loopir::ArrayDecl& a : nest.arrays()) {
    i64 total = a.element_count();
    os << "static int64_t " << a.name << "_data[" << total << "];\n";
    os << "#define " << a.name << "(";
    for (int d = 0; d < a.arity(); ++d) os << (d ? ", " : "") << "x" << d;
    os << ") " << a.name << "_data[";
    // Row-major flattening with declared lower bounds.
    std::string idx;
    for (int d = 0; d < a.arity(); ++d) {
      auto [lo, hi] = a.dims[static_cast<std::size_t>(d)];
      std::string term = "((x" + std::to_string(d) + ") - (" +
                         std::to_string(lo) + "))";
      idx = idx.empty() ? term
                        : "(" + idx + ") * " + std::to_string(hi - lo + 1) +
                              " + " + term;
    }
    os << idx << "]\n";
  }
  os << "\n";
}

void emit_body(std::ostringstream& os, const LoopNest& nest,
               const std::vector<std::string>& names, const std::string& indent) {
  for (const loopir::Assign& a : nest.body())
    os << indent << c_ref(a.lhs, names) << " = " << c_expr(*a.rhs, names)
       << ";\n";
}

void emit_plain_loops(std::ostringstream& os, const LoopNest& nest,
                      const EmitOptions& opts) {
  std::vector<std::string> names = nest.index_names();
  std::string indent = "  ";
  for (int k = 0; k < nest.depth(); ++k) {
    const loopir::Level& l = nest.level(k);
    if (l.parallel && opts.openmp)
      os << indent << "#pragma omp parallel for\n";
    os << indent << "for (int64_t " << l.name << " = "
       << c_bound(l.lower, true, names) << "; " << l.name
       << " <= " << c_bound(l.upper, false, names) << "; ++" << l.name
       << ") {" << (l.parallel ? "  /* doall */" : "") << "\n";
    indent += "  ";
  }
  emit_body(os, nest, names, indent);
  for (int k = nest.depth() - 1; k >= 0; --k) {
    indent.resize(indent.size() - 2);
    os << indent << "}\n";
  }
}

// Inside an already-open `vdep_class` loop: decode the mixed-radix class
// label into q0..q{dim-1}, emit the Theorem-2 strided scan loops with
// skewed offsets (paper loop (3.2)), the body (plus `count_stmt`, when
// non-empty, once per iteration), and close the strided loops again.
void emit_partition_scan(std::ostringstream& os, const LoopNest& nest,
                         const trans::Partitioning& part, int start,
                         const std::vector<std::string>& names,
                         std::string& indent, const std::string& count_stmt) {
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
  if (!count_stmt.empty()) os << indent << count_stmt << "\n";

  for (int k = part.dim() - 1; k >= 0; --k) {
    indent.resize(indent.size() - 2);
    os << indent << "}\n";
  }
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

// ---- JIT range-kernel TU pieces (shared by the clamped and partitioned
// ---- variants) -------------------------------------------------------

void emit_jit_prelude(std::ostringstream& os) {
  os << "#include <stdint.h>\n\n"
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

// Arrays are raw row-major buffers handed in by the runtime in declaration
// order; the macros reproduce emit_arrays' flattening with declared lower
// bounds, only over vdep_buf_<k> instead of a static.
void emit_jit_array_macros(std::ostringstream& os, const LoopNest& nest) {
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

// Everything under one `vdep_class` binding: the Theorem-2 strided scan
// (or the unpartitioned trailing levels), counting every iteration.
void emit_class_body(std::ostringstream& os, const LoopNest& nest,
                     const trans::TransformPlan& plan,
                     const std::vector<std::string>& names,
                     std::string& indent) {
  if (plan.partition.has_value()) {
    emit_partition_scan(os, nest, *plan.partition, plan.num_doall, names,
                        indent, "++vdep_count;");
  } else {
    // Unpartitioned tail (class range is the degenerate [0, 1)).
    os << indent << "(void)vdep_class;\n";
    int opened = 0;
    for (int k = plan.num_doall; k < nest.depth(); ++k) {
      const loopir::Level& l = nest.level(k);
      os << indent << "for (int64_t " << l.name << " = "
         << c_bound(l.lower, true, names) << "; " << l.name
         << " <= " << c_bound(l.upper, false, names) << "; ++" << l.name
         << ") {\n";
      indent += "  ";
      ++opened;
    }
    emit_body(os, nest, names, indent);
    os << indent << "++vdep_count;\n";
    for (int k = 0; k < opened; ++k) {
      indent.resize(indent.size() - 2);
      os << indent << "}\n";
    }
  }
}

// The class loop wrapping emit_class_body — the innermost section of every
// region of the clamped kernel and of multi-class partitioned kernels.
void emit_class_section(std::ostringstream& os, const LoopNest& nest,
                        const trans::TransformPlan& plan,
                        const std::vector<std::string>& names,
                        std::string& indent) {
  os << indent << "for (int64_t vdep_class = vdep_class_lo; vdep_class < "
     << "vdep_class_hi; ++vdep_class) {\n";
  indent += "  ";
  emit_class_body(os, nest, plan, names, indent);
  indent.resize(indent.size() - 2);
  os << indent << "}\n";
}

// Single-residue-class specialization for the partitioned fast path: the
// caller's class range is pinned to [0, 1) by the fast-path guard, so the
// per-point class loop degenerates to one body execution and is dropped —
// the spatial loop becomes the innermost loop, which is what lets the
// toolchain vectorize the steady region.
void emit_point_section(std::ostringstream& os, const LoopNest& nest,
                        const trans::TransformPlan& plan,
                        const std::vector<std::string>& names,
                        std::string& indent) {
  os << indent << "{  /* single class: range hoisted into the fast-path "
     << "guard */\n";
  indent += "  ";
  os << indent << "const int64_t vdep_class = 0;\n";
  emit_class_body(os, nest, plan, names, indent);
  indent.resize(indent.size() - 2);
  os << indent << "}\n";
}

// The original clamped execution: every boxed level intersects its bound
// with the descriptor box at loop entry. Used as the whole body of the
// clamped kernel and as the generic path of the partitioned kernel (for
// callers boxing fewer dimensions than the plan's DOALL count).
void emit_clamped_path(std::ostringstream& os, const LoopNest& nest,
                       const trans::TransformPlan& plan,
                       const std::vector<std::string>& names) {
  const int nd = plan.num_doall;
  if (nd == 0)
    os << "  (void)vdep_lo; (void)vdep_hi; (void)vdep_ndims;\n";
  std::string indent = "  ";
  for (int k = 0; k < nd; ++k) {
    const loopir::Level& l = nest.level(k);
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
  emit_class_section(os, nest, plan, names, indent);
  for (int k = nd - 1; k >= 0; --k) {
    indent.resize(indent.size() - 2);
    os << indent << "}\n";
  }
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
  VDEP_REQUIRE(!nest.has_indirection(),
               "C emission requires affine subscripts; indirect nests run "
               "through the inspector/interpreter path");
  std::ostringstream os;
  os << "/* Generated by vdep: original sequential nest. */\n";
  emit_prelude(os);
  emit_arrays(os, nest);
  os << "void " << opts.kernel_name << "(void) {\n";
  emit_plain_loops(os, nest, opts);
  os << "}\n";
  if (opts.with_main) emit_main(os, nest, opts);
  return os.str();
}

std::string emit_c_transformed(const LoopNest& original,
                               const trans::TransformPlan& plan,
                               const EmitOptions& opts) {
  TransformedNest tn = rewrite_nest(original, plan);
  const LoopNest& nest = tn.nest;
  std::ostringstream os;
  os << "/* Generated by vdep: transformed nest (T = " << plan.t.to_string()
     << ", " << plan.num_doall << " outer DOALL loop(s), "
     << plan.partition_classes << " partition class(es)). */\n";
  emit_prelude(os);
  emit_arrays(os, nest);
  os << "void " << opts.kernel_name << "(void) {\n";

  if (!plan.partition.has_value()) {
    emit_plain_loops(os, nest, opts);
    os << "}\n";
    if (opts.with_main) emit_main(os, nest, opts);
    return os.str();
  }

  // Theorem 2 structure. Outer: the doall loops of the rewritten nest, then
  // a parallel loop over the det(R) residue classes; inner: strided scans
  // with skewed offsets (paper loop (3.2)).
  const trans::Partitioning& part = *plan.partition;
  int n = nest.depth();
  int start = n - part.dim();
  std::vector<std::string> names = nest.index_names();
  std::string indent = "  ";

  // Outer doall loops (transformed coordinates before the partition block).
  for (int k = 0; k < start; ++k) {
    const loopir::Level& l = nest.level(k);
    if (opts.openmp && k == 0) os << indent << "#pragma omp parallel for\n";
    os << indent << "for (int64_t " << l.name << " = "
       << c_bound(l.lower, true, names) << "; " << l.name
       << " <= " << c_bound(l.upper, false, names) << "; ++" << l.name
       << ") {  /* doall */\n";
    indent += "  ";
  }

  // Class loop.
  os << indent;
  if (opts.openmp && start == 0) os << "#pragma omp parallel for\n" << indent;
  os << "for (int64_t vdep_class = 0; vdep_class < " << part.num_classes()
     << "; ++vdep_class) {  /* doall: independent residue classes */\n";
  indent += "  ";
  emit_partition_scan(os, nest, part, start, names, indent, "");
  indent.resize(indent.size() - 2);
  os << indent << "}\n";
  for (int k = start - 1; k >= 0; --k) {
    indent.resize(indent.size() - 2);
    os << indent << "}\n";
  }
  os << "}\n";
  if (opts.with_main) emit_main(os, nest, opts);
  return os.str();
}

std::string emit_c_range_kernel(const LoopNest& original,
                                const trans::TransformPlan& plan,
                                const std::string& entry_name) {
  TransformedNest tn = rewrite_nest(original, plan);
  const LoopNest& nest = tn.nest;
  std::vector<std::string> names = nest.index_names();

  std::ostringstream os;
  os << "/* Generated by vdep: JIT range kernel (T = " << plan.t.to_string()
     << ", " << plan.num_doall << " outer DOALL loop(s), "
     << plan.partition_classes << " partition class(es)). */\n";
  emit_jit_prelude(os);
  emit_jit_array_macros(os, nest);
  emit_entry_open(os, nest, entry_name);
  emit_clamped_path(os, nest, plan, names);
  os << "  return vdep_count;\n}\n";
  return os.str();
}

std::string emit_c_partitioned_range_kernel(const LoopNest& original,
                                            const trans::TransformPlan& plan,
                                            const analysis::LoopPartition& part,
                                            const std::string& entry_name,
                                            bool inject_fault) {
  TransformedNest tn = rewrite_nest(original, plan);
  const LoopNest& nest = tn.nest;
  const int nd = plan.num_doall;
  VDEP_REQUIRE(nd > 0, "partitioned kernel needs a boxed DOALL prefix");
  VDEP_REQUIRE(part.num_levels == nd,
               "partition level count does not match the plan's DOALL count");
  std::vector<std::string> names = nest.index_names();
  const int P = part.axis;

  std::ostringstream os;
  os << "/* Generated by vdep: partitioned JIT range kernel (T = "
     << plan.t.to_string() << ", " << nd << " outer DOALL loop(s), "
     << plan.partition_classes << " partition class(es); steady-state "
     << (part.fully_static()
             ? std::string("over the whole box (all bounds static)")
             : "split on axis " + std::to_string(P) + " by " +
                   std::to_string(part.constraints.size()) +
                   " clip constraint(s)")
     << "). */\n";
  emit_jit_prelude(os);
  emit_jit_array_macros(os, nest);
  emit_entry_open(os, nest, entry_name);

  // Fast path: every plan DOALL level is boxed by the caller. The
  // effective box is the descriptor box clamped once, here, to the static
  // interval hull — which makes the region code below agree with the
  // clamped path for *any* caller box, not only sub-boxes of the hull.
  // Single-class plans additionally pin the class range in the guard so the
  // regions below can drop the per-point class loop (emit_point_section);
  // any other class range — including empty — takes the generic path.
  const bool single_class = plan.partition_classes == 1;
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
    if (single_class)
      emit_point_section(os, nest, plan, names, indent);
    else
      emit_class_section(os, nest, plan, names, indent);
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
    if (single_class)
      emit_point_section(os, nest, plan, names, indent);
    else
      emit_class_section(os, nest, plan, names, indent);
    close_levels(nd - P - 1);
    close_levels(1);
    os << indent << "/* vdep:region prologue end */\n";

    os << indent << "/* vdep:region steady begin */\n";
    emit_fault();
    os << indent << "for (int64_t " << pn << " = vdep_s_lo; " << pn
       << " <= vdep_s_hi; ++" << pn << ") {\n";
    indent += "  ";
    open_inner(P + 1, nd, /*clamped=*/false);
    os << indent << "/* vdep:scan begin */\n";
    if (single_class)
      emit_point_section(os, nest, plan, names, indent);
    else
      emit_class_section(os, nest, plan, names, indent);
    os << indent << "/* vdep:scan end */\n";
    close_levels(nd - P - 1);
    close_levels(1);
    os << indent << "/* vdep:region steady end */\n";

    os << indent << "/* vdep:region epilogue begin */\n"
       << indent << "for (int64_t " << pn << " = vdep_s_hi + 1; " << pn
       << " <= vdep_bhi" << P << "; ++" << pn << ") {\n";
    indent += "  ";
    open_inner(P + 1, nd, /*clamped=*/true);
    if (single_class)
      emit_point_section(os, nest, plan, names, indent);
    else
      emit_class_section(os, nest, plan, names, indent);
    close_levels(nd - P - 1);
    close_levels(1);
    os << indent << "/* vdep:region epilogue end */\n";

    close_levels(P);
  }
  os << "    return vdep_count;\n"
     << "  }  /* vdep:partitioned end */\n";

  // Generic path: callers boxing fewer dimensions than the plan's DOALL
  // count (StreamOptions::split_dims) take the original clamped code.
  emit_clamped_path(os, nest, plan, names);
  os << "  return vdep_count;\n}\n";
  return os.str();
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
  emit_jit_array_macros(os, nest);
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
