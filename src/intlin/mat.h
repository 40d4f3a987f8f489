// Dense integer matrices with overflow-checked arithmetic and the
// elementary row/column operations used by echelon/Hermite/Smith reduction.
#pragma once

#include <initializer_list>
#include <string>
#include <vector>

#include "intlin/vec.h"

namespace vdep::intlin {

class Mat {
 public:
  /// rows x cols zero matrix. Zero-row / zero-column matrices are allowed
  /// (empty generator sets arise naturally when a loop has no dependences).
  Mat(int rows, int cols);
  Mat() : Mat(0, 0) {}

  static Mat identity(int n);
  static Mat zero(int rows, int cols) { return Mat(rows, cols); }
  /// Build from row literals: Mat::from_rows({{1,2},{3,4}}).
  static Mat from_rows(std::initializer_list<std::initializer_list<i64>> rows);
  /// Build from a list of row vectors (all the same length).
  static Mat from_rows(const std::vector<Vec>& rows, int cols);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }
  bool is_square() const { return rows_ == cols_; }

  i64& at(int r, int c);
  i64 at(int r, int c) const;

  Vec row(int r) const;
  Vec col(int c) const;
  void set_row(int r, const Vec& v);

  /// Appends a row (must match cols(); a fully empty matrix adopts the width).
  void push_row(const Vec& v);

  /// Rows [r0, r1) as a new matrix.
  Mat row_slice(int r0, int r1) const;
  /// Columns [c0, c1) as a new matrix.
  Mat col_slice(int c0, int c1) const;
  /// Vertical stack: rows of `a` on top of rows of `b`.
  static Mat vstack(const Mat& a, const Mat& b);

  // -- elementary operations (all unimodular on the corresponding side) --
  void swap_rows(int r1, int r2);
  void swap_cols(int c1, int c2);
  void negate_row(int r);
  void negate_col(int c);
  /// row[dst] += k * row[src]; dst != src.
  void add_row_multiple(int dst, int src, i64 k);
  /// col[dst] += k * col[src]; dst != src.
  void add_col_multiple(int dst, int src, i64 k);

  bool operator==(const Mat& o) const = default;

  /// Matrix product (checked).
  friend Mat operator*(const Mat& a, const Mat& b);
  friend Mat operator+(const Mat& a, const Mat& b);
  friend Mat operator-(const Mat& a, const Mat& b);

  /// True iff every entry is zero.
  bool is_zero() const;
  /// True iff column c is entirely zero.
  bool col_is_zero(int c) const;

  /// Multi-line "[ 1 2 ; 3 4 ]"-style rendering for diagnostics.
  std::string to_string() const;

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<i64> a_;  // row-major
};

/// Row vector times matrix: x' = x * M (the paper's transformation form).
Vec vec_mat_mul(const Vec& x, const Mat& m);

/// Matrix times column vector: M * x^T (used for subscript evaluation).
Vec mat_vec_mul(const Mat& m, const Vec& x);

}  // namespace vdep::intlin
