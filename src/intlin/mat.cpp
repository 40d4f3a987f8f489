#include "intlin/mat.h"

#include <sstream>

#include "support/error.h"

namespace vdep::intlin {

Mat::Mat(int rows, int cols) : rows_(rows), cols_(cols) {
  VDEP_REQUIRE(rows >= 0 && cols >= 0, "negative matrix dimension");
  a_.assign(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols), 0);
}

Mat Mat::identity(int n) {
  Mat m(n, n);
  for (int i = 0; i < n; ++i) m.at(i, i) = 1;
  return m;
}

Mat Mat::from_rows(std::initializer_list<std::initializer_list<i64>> rows) {
  int r = static_cast<int>(rows.size());
  int c = r == 0 ? 0 : static_cast<int>(rows.begin()->size());
  Mat m(r, c);
  int i = 0;
  for (const auto& row : rows) {
    VDEP_REQUIRE(static_cast<int>(row.size()) == c, "ragged row literal");
    int j = 0;
    for (i64 v : row) m.at(i, j++) = v;
    ++i;
  }
  return m;
}

Mat Mat::from_rows(const std::vector<Vec>& rows, int cols) {
  Mat m(static_cast<int>(rows.size()), cols);
  for (int i = 0; i < m.rows(); ++i) m.set_row(i, rows[static_cast<std::size_t>(i)]);
  return m;
}

i64& Mat::at(int r, int c) {
  VDEP_REQUIRE(r >= 0 && r < rows_ && c >= 0 && c < cols_, "Mat::at out of range");
  return a_[static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_) +
            static_cast<std::size_t>(c)];
}

i64 Mat::at(int r, int c) const {
  VDEP_REQUIRE(r >= 0 && r < rows_ && c >= 0 && c < cols_, "Mat::at out of range");
  return a_[static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_) +
            static_cast<std::size_t>(c)];
}

Vec Mat::row(int r) const {
  VDEP_REQUIRE(r >= 0 && r < rows_, "Mat::row out of range");
  Vec v(static_cast<std::size_t>(cols_));
  for (int c = 0; c < cols_; ++c) v[static_cast<std::size_t>(c)] = at(r, c);
  return v;
}

Vec Mat::col(int c) const {
  VDEP_REQUIRE(c >= 0 && c < cols_, "Mat::col out of range");
  Vec v(static_cast<std::size_t>(rows_));
  for (int r = 0; r < rows_; ++r) v[static_cast<std::size_t>(r)] = at(r, c);
  return v;
}

void Mat::set_row(int r, const Vec& v) {
  VDEP_REQUIRE(static_cast<int>(v.size()) == cols_, "set_row width mismatch");
  for (int c = 0; c < cols_; ++c) at(r, c) = v[static_cast<std::size_t>(c)];
}

void Mat::push_row(const Vec& v) {
  if (rows_ == 0 && cols_ == 0) cols_ = static_cast<int>(v.size());
  VDEP_REQUIRE(static_cast<int>(v.size()) == cols_, "push_row width mismatch");
  a_.insert(a_.end(), v.begin(), v.end());
  ++rows_;
}

Mat Mat::row_slice(int r0, int r1) const {
  VDEP_REQUIRE(0 <= r0 && r0 <= r1 && r1 <= rows_, "row_slice out of range");
  Mat m(r1 - r0, cols_);
  for (int r = r0; r < r1; ++r)
    for (int c = 0; c < cols_; ++c) m.at(r - r0, c) = at(r, c);
  return m;
}

Mat Mat::col_slice(int c0, int c1) const {
  VDEP_REQUIRE(0 <= c0 && c0 <= c1 && c1 <= cols_, "col_slice out of range");
  Mat m(rows_, c1 - c0);
  for (int r = 0; r < rows_; ++r)
    for (int c = c0; c < c1; ++c) m.at(r, c - c0) = at(r, c);
  return m;
}

Mat Mat::vstack(const Mat& a, const Mat& b) {
  if (a.rows_ == 0) return b;
  if (b.rows_ == 0) return a;
  VDEP_REQUIRE(a.cols_ == b.cols_, "vstack width mismatch");
  Mat m(a.rows_ + b.rows_, a.cols_);
  for (int r = 0; r < a.rows_; ++r)
    for (int c = 0; c < a.cols_; ++c) m.at(r, c) = a.at(r, c);
  for (int r = 0; r < b.rows_; ++r)
    for (int c = 0; c < b.cols_; ++c) m.at(a.rows_ + r, c) = b.at(r, c);
  return m;
}

void Mat::swap_rows(int r1, int r2) {
  VDEP_REQUIRE(r1 >= 0 && r1 < rows_ && r2 >= 0 && r2 < rows_, "swap_rows range");
  if (r1 == r2) return;
  for (int c = 0; c < cols_; ++c) std::swap(at(r1, c), at(r2, c));
}

void Mat::swap_cols(int c1, int c2) {
  VDEP_REQUIRE(c1 >= 0 && c1 < cols_ && c2 >= 0 && c2 < cols_, "swap_cols range");
  if (c1 == c2) return;
  for (int r = 0; r < rows_; ++r) std::swap(at(r, c1), at(r, c2));
}

void Mat::negate_row(int r) {
  for (int c = 0; c < cols_; ++c) at(r, c) = checked::neg(at(r, c));
}

void Mat::negate_col(int c) {
  for (int r = 0; r < rows_; ++r) at(r, c) = checked::neg(at(r, c));
}

void Mat::add_row_multiple(int dst, int src, i64 k) {
  VDEP_REQUIRE(dst != src, "add_row_multiple dst == src");
  if (k == 0) return;
  for (int c = 0; c < cols_; ++c)
    at(dst, c) = checked::fma(at(dst, c), k, at(src, c));
}

void Mat::add_col_multiple(int dst, int src, i64 k) {
  VDEP_REQUIRE(dst != src, "add_col_multiple dst == src");
  if (k == 0) return;
  for (int r = 0; r < rows_; ++r)
    at(r, dst) = checked::fma(at(r, dst), k, at(r, src));
}

Mat operator*(const Mat& a, const Mat& b) {
  VDEP_REQUIRE(a.cols_ == b.rows_, "matrix product shape mismatch");
  Mat m(a.rows_, b.cols_);
  for (int r = 0; r < a.rows_; ++r)
    for (int k = 0; k < a.cols_; ++k) {
      i64 av = a.at(r, k);
      if (av == 0) continue;
      for (int c = 0; c < b.cols_; ++c)
        m.at(r, c) = checked::fma(m.at(r, c), av, b.at(k, c));
    }
  return m;
}

Mat operator+(const Mat& a, const Mat& b) {
  VDEP_REQUIRE(a.rows_ == b.rows_ && a.cols_ == b.cols_, "matrix sum shape");
  Mat m(a.rows_, a.cols_);
  for (int r = 0; r < a.rows_; ++r)
    for (int c = 0; c < a.cols_; ++c) m.at(r, c) = checked::add(a.at(r, c), b.at(r, c));
  return m;
}

Mat operator-(const Mat& a, const Mat& b) {
  VDEP_REQUIRE(a.rows_ == b.rows_ && a.cols_ == b.cols_, "matrix diff shape");
  Mat m(a.rows_, a.cols_);
  for (int r = 0; r < a.rows_; ++r)
    for (int c = 0; c < a.cols_; ++c) m.at(r, c) = checked::sub(a.at(r, c), b.at(r, c));
  return m;
}

bool Mat::is_zero() const {
  for (i64 v : a_)
    if (v != 0) return false;
  return true;
}

bool Mat::col_is_zero(int c) const {
  for (int r = 0; r < rows_; ++r)
    if (at(r, c) != 0) return false;
  return true;
}

std::string Mat::to_string() const {
  std::ostringstream os;
  os << "[";
  for (int r = 0; r < rows_; ++r) {
    if (r) os << "; ";
    for (int c = 0; c < cols_; ++c) {
      if (c) os << " ";
      os << at(r, c);
    }
  }
  os << "]";
  return os.str();
}

Vec vec_mat_mul(const Vec& x, const Mat& m) {
  VDEP_REQUIRE(static_cast<int>(x.size()) == m.rows(), "vec_mat_mul shape");
  Vec r(static_cast<std::size_t>(m.cols()), 0);
  for (int i = 0; i < m.rows(); ++i) {
    i64 xv = x[static_cast<std::size_t>(i)];
    if (xv == 0) continue;
    for (int c = 0; c < m.cols(); ++c)
      r[static_cast<std::size_t>(c)] =
          checked::fma(r[static_cast<std::size_t>(c)], xv, m.at(i, c));
  }
  return r;
}

Vec mat_vec_mul(const Mat& m, const Vec& x) {
  VDEP_REQUIRE(static_cast<int>(x.size()) == m.cols(), "mat_vec_mul shape");
  Vec r(static_cast<std::size_t>(m.rows()), 0);
  for (int i = 0; i < m.rows(); ++i) {
    i64 acc = 0;
    for (int c = 0; c < m.cols(); ++c)
      acc = checked::fma(acc, m.at(i, c), x[static_cast<std::size_t>(c)]);
    r[static_cast<std::size_t>(i)] = acc;
  }
  return r;
}

}  // namespace vdep::intlin
