// Iteration-space partitioning for a full-rank PDM (paper Theorem 2,
// following D'Hollander's partitioning method).
//
// A full-rank PDM H (upper-triangular HNF) generates a sub-lattice of Z^n
// of index det(H). Iterations i and j can only depend on each other when
// j - i lies in that lattice, i.e. when they fall in the same residue class
// of Z^n / lattice(H). There are exactly det(H) classes; each class is
// executed sequentially in lexicographic order while the classes themselves
// are independent — det(H)-way parallelism.
//
// The canonical class label of an iteration is computed by forward
// substitution along the triangle (the paper's q-tilde recurrence in loop
// (3.2)): the "skewed offsets" of Figure 5 are the t_l * h_{l,k} coupling
// terms below.
#pragma once

#include <functional>

#include "trans/legality.h"

namespace vdep::trans {

class Partitioning {
 public:
  /// `h` must be a full-rank (square, upper-triangular, positive-diagonal)
  /// Hermite normal form.
  explicit Partitioning(Mat h);

  int dim() const { return h_.rows(); }
  const Mat& lattice_basis() const { return h_; }
  /// Number of independent classes = det(H) = prod of the diagonal.
  i64 num_classes() const { return num_classes_; }

  /// Canonical residue of iteration i: r_k in [0, h_kk), equal for i and j
  /// iff j - i is in lattice(H).
  Vec residue_of(const Vec& iter) const;

  /// Mixed-radix encoding of residue_of into [0, num_classes).
  i64 class_id(const Vec& iter) const;

  /// Inverse of the mixed-radix encoding: the residue labelled `id`.
  Vec class_label(i64 id) const;
  /// Same, into `out` (resized to dim(); no allocation once it has room).
  void class_label(i64 id, Vec& out) const;

  /// Enumerates, in lexicographic order, the iterations of class `label`
  /// that lie inside `nest`'s bounds (strided scan with skewed offsets —
  /// the loop structure of (3.2)). Requires nest.depth() == dim().
  void for_each_class_iteration(const loopir::LoopNest& nest, const Vec& label,
                                const std::function<void(const Vec&)>& fn) const;

  /// General form: partitions dims [start, start+dim()) of a nest at least
  /// start+dim() deep. `iter`'s prefix [0, start) must already hold the
  /// outer index values; fn receives the full iteration vector once per
  /// block point, and any levels past the block are fn's to scan.
  void for_each_class_iteration_from(const loopir::LoopNest& nest, int start,
                                     const Vec& label, Vec& iter,
                                     const std::function<void(const Vec&)>& fn) const;
  /// Same, with the recurrence's lattice coordinates in `t_scratch`
  /// (resized to dim()): a caller scanning many blocks allocates nothing
  /// per call.
  void for_each_class_iteration_from(const loopir::LoopNest& nest, int start,
                                     const Vec& label, Vec& iter, Vec& t_scratch,
                                     const std::function<void(const Vec&)>& fn) const;

 private:
  void scan(const loopir::LoopNest& nest, int start, const Vec& label, int k,
            Vec& iter, Vec& t_coeffs,
            const std::function<void(const Vec&)>& fn) const;

  Mat h_;
  i64 num_classes_ = 1;
};

}  // namespace vdep::trans
