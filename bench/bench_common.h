// Helpers shared by the bench programs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "support/thread_pool.h"

namespace vdep::bench {

/// The worker count every bench program defaults to and stamps into its
/// JSON rows as `hw_threads`: default_worker_count(), the cpus of the
/// process's affinity mask, so a run under `taskset` measures and reports
/// the cpus it may use, like the library's own "0 workers" default.
inline std::size_t hw_threads() {
  static const std::size_t hw = default_worker_count();
  return hw;
}

/// The median of `v` (the upper one of an even count); 0 when empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  return v[v.size() / 2];
}

/// An interleaved A/B measurement, decided on medians.
struct Paired {
  int pairs = 0;
  double a = 0;          ///< median of the A side's measurements
  double b = 0;          ///< median of the B side's measurements
  double ratio = 0;      ///< median of the per-pair ratios b / a
  double ratio_mad = 0;  ///< median absolute deviation of those ratios
};

/// Measures `pairs` interleaved pairs (a(), b()) after one untimed call of
/// each. Each callable returns one measurement (a time, say) of one
/// repetition; the order within a pair alternates, so neither side always
/// runs second on a host whose speed drifts. Deciding on the median of the
/// per-pair ratios, not on a best-of per side, keeps one lucky or unlucky
/// repetition from deciding a gate.
template <typename A, typename B>
Paired paired_medians(int pairs, A&& a, B&& b) {
  (void)a();
  (void)b();
  std::vector<double> as, bs, ratios;
  for (int k = 0; k < pairs; ++k) {
    double ta = 0, tb = 0;
    if (k % 2 == 0) {
      ta = a();
      tb = b();
    } else {
      tb = b();
      ta = a();
    }
    as.push_back(ta);
    bs.push_back(tb);
    ratios.push_back(ta > 0 ? tb / ta : 0.0);
  }
  Paired out;
  out.pairs = pairs;
  out.a = median(as);
  out.b = median(bs);
  out.ratio = median(ratios);
  std::vector<double> dev;
  for (double r : ratios) dev.push_back(std::abs(r - out.ratio));
  out.ratio_mad = median(dev);
  return out;
}

}  // namespace vdep::bench
