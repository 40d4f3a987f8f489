#include "api/fingerprint.h"

#include <charconv>

#include "support/keyenc.h"

namespace vdep {

namespace {

// FNV-1a, 64-bit.
constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = kFnvOffset;
  for (unsigned char c : s) {
    h ^= c;
    h *= kFnvPrime;
  }
  return h;
}

void append_int(std::string* out, intlin::i64 v) {
  char buf[24];
  char* end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
  out->append(buf, end);
  out->push_back(',');
}

}  // namespace

Fingerprint structural_fingerprint(const loopir::LoopNest& nest) {
  // The dependence analysis consumes exactly the access sequence of
  // for_each_access(): every write and read with its statement index and
  // affine subscripts. Serialize that view — per access: statement, W/R,
  // canonical array ordinal, and each subscript's coefficients and
  // constant. Statement order matters (it orders source/sink of
  // same-iteration dependences); read order within a statement is the
  // deterministic pre-order. This is the compile() fast path: no
  // allocation beyond the key itself.
  std::string key;
  key.reserve(256);
  key += 'd';
  append_int(&key, nest.depth());

  // First-appearance array ordinals; linear scan beats a map for the
  // handful of arrays a nest references.
  std::vector<const std::string*> arrays;
  auto ordinal_of = [&](const std::string& name) -> int {
    for (std::size_t k = 0; k < arrays.size(); ++k)
      if (*arrays[k] == name) return static_cast<int>(k);
    arrays.push_back(&name);
    return static_cast<int>(arrays.size()) - 1;
  };

  nest.for_each_access(
      [&](const loopir::ArrayRef& ref, int statement, bool is_write) {
        key += 'S';
        append_int(&key, statement);
        key += is_write ? 'W' : 'R';
        key += 'a';
        append_int(&key, ordinal_of(ref.array));
        for (std::size_t k = 0; k < ref.subscripts.size(); ++k) {
          // Indirect slots serialize as the index array's ordinal plus the
          // affine position into it — a different key space ('I' vs '[')
          // from affine slots, so A[B[i]] never collides with any affine
          // structure.
          if (k < ref.indirect.size() && ref.indirect[k].has_value()) {
            const loopir::IndirectSubscript& ind = *ref.indirect[k];
            key += 'I';
            append_int(&key, ordinal_of(ind.array));
            for (intlin::i64 c : ind.pos.coeffs()) append_int(&key, c);
            key += ':';
            append_int(&key, ind.pos.constant_term());
            key += ']';
            continue;
          }
          const loopir::AffineExpr& s = ref.subscripts[k];
          key += '[';
          for (intlin::i64 c : s.coeffs()) append_int(&key, c);
          key += ':';
          append_int(&key, s.constant_term());
          key += ']';
        }
        key += ';';
      });

  Fingerprint fp;
  fp.key = std::move(key);
  fp.hash = fnv1a(fp.key);
  return fp;
}

namespace {

void render_subscripts(const loopir::ArrayRef& ref, std::string* key) {
  for (std::size_t k = 0; k < ref.subscripts.size(); ++k) {
    if (k < ref.indirect.size() && ref.indirect[k].has_value()) {
      const loopir::IndirectSubscript& ind = *ref.indirect[k];
      *key += 'I';
      keyenc::append_field(key, ind.array);
      for (intlin::i64 c : ind.pos.coeffs()) append_int(key, c);
      *key += ':';
      append_int(key, ind.pos.constant_term());
      continue;
    }
    const loopir::AffineExpr& s = ref.subscripts[k];
    for (intlin::i64 c : s.coeffs()) append_int(key, c);
    *key += ':';
    append_int(key, s.constant_term());
  }
}

void render_expr(const loopir::Expr& e, std::string* key) {
  using K = loopir::Expr::Kind;
  switch (e.kind()) {
    case K::kConst:
      *key += 'c';
      append_int(key, e.value());
      return;
    case K::kIndex:
      *key += 'i';
      append_int(key, e.index());
      return;
    case K::kRead:
      *key += 'r';
      keyenc::append_field(key, e.ref().array);
      render_subscripts(e.ref(), key);
      return;
    case K::kAdd:
    case K::kSub:
    case K::kMul:
      *key += e.kind() == K::kAdd ? '+' : e.kind() == K::kSub ? '-' : '*';
      render_expr(*e.lhs(), key);
      render_expr(*e.rhs(), key);
      return;
  }
}

}  // namespace

std::string bounds_render(const loopir::LoopNest& nest) {
  // Compact numeric rendering, not nest.to_string(): the render runs per
  // request on the executable-memo path, and the source-like rendering
  // (ostringstream-based) costs more than executing a small request.
  //
  // The body IS part of this key. The structural fingerprint canonicalizes
  // only the access sequence (statements, arrays, subscripts) — body
  // constants and operators never enter the analysis, so `A[i]=A[i-1]+1`
  // and `A[i]=A[i-1]+2` deliberately share one PlanArtifact. Emitted C,
  // native kernels and memoized executables bake the body in, so
  // their keys must separate on it.
  std::string key;
  key.reserve(128);
  auto put = [&key](intlin::i64 v) {
    append_int(&key, v);
  };
  auto put_bound = [&](const loopir::Bound& b) {
    for (const loopir::BoundTerm& t : b.terms()) {
      for (intlin::i64 c : t.num.coeffs()) put(c);
      key += ':';
      put(t.num.constant_term());
      put(t.den);
      key += 't';
    }
    key += ';';
  };
  for (const loopir::Level& l : nest.levels()) {
    key += 'L';
    put_bound(l.lower);
    put_bound(l.upper);
  }
  for (const loopir::ArrayDecl& a : nest.arrays()) {
    key += 'A';
    // Length-prefixed (support/keyenc.h): a plain separator is forgeable by
    // a name that contains it — "X;1,2," must not collide with "X" + dims.
    keyenc::append_field(&key, a.name);
    for (auto [lo, hi] : a.dims) {
      put(lo);
      put(hi);
    }
  }
  for (const loopir::Assign& st : nest.body()) {
    key += 'S';
    keyenc::append_field(&key, st.lhs.array);
    render_subscripts(st.lhs, &key);
    key += '=';
    render_expr(*st.rhs, &key);
  }
  return key;
}

}  // namespace vdep
