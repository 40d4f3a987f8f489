#include "loopir/expr.h"

#include <sstream>

#include "support/error.h"

namespace vdep::loopir {

bool ArrayRef::has_indirection() const {
  for (const auto& ind : indirect)
    if (ind.has_value()) return true;
  return false;
}

Vec ArrayRef::element_at(const Vec& iter) const {
  VDEP_REQUIRE(!has_indirection(),
               "element_at on an indirect reference; indirect subscripts "
               "need store contents (exec::element_coords)");
  Vec e;
  e.reserve(subscripts.size());
  for (const AffineExpr& s : subscripts) e.push_back(s.eval(iter));
  return e;
}

intlin::Mat ArrayRef::linear_part() const {
  VDEP_REQUIRE(!subscripts.empty(), "array reference with no subscripts");
  VDEP_REQUIRE(!has_indirection(),
               "linear_part on an indirect reference; the static pipeline "
               "only handles affine subscripts");
  intlin::Mat f(arity(), subscripts.front().depth());
  for (int r = 0; r < arity(); ++r)
    for (int c = 0; c < f.cols(); ++c)
      f.at(r, c) = subscripts[static_cast<std::size_t>(r)].coeff(c);
  return f;
}

Vec ArrayRef::constant_part() const {
  VDEP_REQUIRE(!has_indirection(),
               "constant_part on an indirect reference; the static pipeline "
               "only handles affine subscripts");
  Vec f0;
  f0.reserve(subscripts.size());
  for (const AffineExpr& s : subscripts) f0.push_back(s.constant_term());
  return f0;
}

ArrayRef ArrayRef::substituted(const intlin::Mat& t) const {
  ArrayRef out;
  out.array = array;
  out.subscripts.reserve(subscripts.size());
  for (const AffineExpr& s : subscripts) out.subscripts.push_back(s.substitute(t));
  out.indirect.reserve(indirect.size());
  for (const auto& ind : indirect) {
    if (ind.has_value())
      out.indirect.push_back(IndirectSubscript{ind->array, ind->pos.substitute(t)});
    else
      out.indirect.push_back(std::nullopt);
  }
  return out;
}

std::string ArrayRef::to_string(const std::vector<std::string>& names) const {
  std::ostringstream os;
  os << array << "[";
  for (std::size_t k = 0; k < subscripts.size(); ++k) {
    if (k) os << ", ";
    if (k < indirect.size() && indirect[k].has_value())
      os << indirect[k]->array << "[" << indirect[k]->pos.to_string(names) << "]";
    else
      os << subscripts[k].to_string(names);
  }
  os << "]";
  return os.str();
}

ExprPtr Expr::constant(i64 v) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kConst;
  e->value_ = v;
  return e;
}

ExprPtr Expr::read(ArrayRef ref) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kRead;
  e->ref_ = std::move(ref);
  return e;
}

ExprPtr Expr::index(int k) {
  VDEP_REQUIRE(k >= 0, "negative index variable");
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kIndex;
  e->index_ = k;
  return e;
}

ExprPtr Expr::add(ExprPtr a, ExprPtr b) {
  VDEP_REQUIRE(a && b, "null operand in add");
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kAdd;
  e->lhs_ = std::move(a);
  e->rhs_ = std::move(b);
  return e;
}

ExprPtr Expr::sub(ExprPtr a, ExprPtr b) {
  VDEP_REQUIRE(a && b, "null operand in sub");
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kSub;
  e->lhs_ = std::move(a);
  e->rhs_ = std::move(b);
  return e;
}

ExprPtr Expr::mul(ExprPtr a, ExprPtr b) {
  VDEP_REQUIRE(a && b, "null operand in mul");
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kMul;
  e->lhs_ = std::move(a);
  e->rhs_ = std::move(b);
  return e;
}

void Expr::collect_reads(std::vector<ArrayRef>* out) const {
  switch (kind_) {
    case Kind::kConst:
    case Kind::kIndex:
      return;
    case Kind::kRead:
      out->push_back(ref_);
      return;
    case Kind::kAdd:
    case Kind::kSub:
    case Kind::kMul:
      lhs_->collect_reads(out);
      rhs_->collect_reads(out);
      return;
  }
}

ExprPtr Expr::substituted(const intlin::Mat& t) const {
  switch (kind_) {
    case Kind::kConst:
      return constant(value_);
    case Kind::kIndex:
      return index(index_);
    case Kind::kRead:
      return read(ref_.substituted(t));
    case Kind::kAdd:
      return add(lhs_->substituted(t), rhs_->substituted(t));
    case Kind::kSub:
      return sub(lhs_->substituted(t), rhs_->substituted(t));
    case Kind::kMul:
      return mul(lhs_->substituted(t), rhs_->substituted(t));
  }
  VDEP_UNREACHABLE("expression kind");
}

std::string Expr::to_string(const std::vector<std::string>& names) const {
  std::ostringstream os;
  switch (kind_) {
    case Kind::kConst:
      os << value_;
      break;
    case Kind::kIndex:
      os << names[static_cast<std::size_t>(index_)];
      break;
    case Kind::kRead:
      os << ref_.to_string(names);
      break;
    case Kind::kAdd:
      os << "(" << lhs_->to_string(names) << " + " << rhs_->to_string(names) << ")";
      break;
    case Kind::kSub:
      os << "(" << lhs_->to_string(names) << " - " << rhs_->to_string(names) << ")";
      break;
    case Kind::kMul:
      os << "(" << lhs_->to_string(names) << " * " << rhs_->to_string(names) << ")";
      break;
  }
  return os.str();
}

std::string Assign::to_string(const std::vector<std::string>& names) const {
  return lhs.to_string(names) + " = " + rhs->to_string(names);
}

}  // namespace vdep::loopir
