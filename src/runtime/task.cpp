#include "runtime/task.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <sstream>

#include "support/error.h"

namespace vdep::runtime {

bool TaskDescriptor::empty() const {
  if (class_extent() <= 0) return true;
  for (int d = 0; d < ndims; ++d)
    if (extent(d) <= 0) return true;
  return false;
}

i64 TaskDescriptor::cells() const {
  if (empty()) return 0;
  i64 c = class_extent();
  for (int d = 0; d < ndims; ++d)
    if (__builtin_mul_overflow(c, extent(d), &c))
      return std::numeric_limits<i64>::max();
  return c;
}

std::string TaskDescriptor::to_string() const {
  std::ostringstream os;
  os << "task{box";
  for (int d = 0; d < ndims; ++d)
    os << (d ? " x [" : " [") << lo[d] << ", " << hi[d] << "]";
  if (ndims == 0) os << " -";
  os << ", classes [" << class_lo << ", " << class_hi << ")";
  if (source != 0) os << ", source " << source;
  os << "}";
  return os.str();
}

int pick_split_axis(const TaskDescriptor& t, i64 grain,
                    const SplitPrefs* prefs, const SplitLimits& limits) {
  if (t.cells() <= std::max<i64>(grain, 1)) return -1;
  const i64 class_extent = limits.classes ? t.class_extent() : 1;
  // Extent of axis d as the choice sees it: 1 (never chosen) when halving
  // would leave a half below the floor.
  auto extent = [&](int d) {
    return d == limits.column_axis && t.extent(d) < 2 * limits.kColumnFloor
               ? 1
               : t.extent(d);
  };
  if (prefs != nullptr && prefs->any()) {
    // Locality policy: among splittable DOALL axes, the largest address
    // stride wins (cutting there separates the halves' memory footprints
    // instead of fragmenting contiguous runs); extent breaks stride ties,
    // outermost breaks extent ties. The class range — whose memory
    // footprint the stride model does not cover — only splits when no
    // DOALL axis can.
    int best = -1;
    i64 best_stride = -1;
    i64 best_extent = 1;
    for (int d = 0; d < t.ndims; ++d) {
      if (extent(d) <= 1) continue;
      if (prefs->stride[d] > best_stride ||
          (prefs->stride[d] == best_stride && extent(d) > best_extent)) {
        best = d;
        best_stride = prefs->stride[d];
        best_extent = extent(d);
      }
    }
    if (best >= 0) return best;
    return class_extent > 1 ? TaskDescriptor::kClassAxis : -1;
  }
  // Longest axis wins; strict comparisons keep ties on the outermost
  // dimension and make the class range the last resort.
  int best = -1;
  i64 best_extent = 1;
  for (int d = 0; d < t.ndims; ++d) {
    if (extent(d) > best_extent) {
      best = d;
      best_extent = extent(d);
    }
  }
  if (class_extent > best_extent) best = TaskDescriptor::kClassAxis;
  return best;
}

bool can_split(const TaskDescriptor& t, i64 grain, const SplitLimits& limits) {
  return pick_split_axis(t, grain, nullptr, limits) >= 0;
}

TaskDescriptor split(TaskDescriptor& t, i64 grain, int* axis_out,
                     const SplitPrefs* prefs, const SplitLimits& limits) {
  int axis = pick_split_axis(t, grain, prefs, limits);
  VDEP_CHECK(axis >= 0, "descriptor is not splittable");
  if (axis_out) *axis_out = axis;
  TaskDescriptor high = t;
  if (axis == TaskDescriptor::kClassAxis) {
    i64 mid = t.class_lo + t.class_extent() / 2;
    t.class_hi = mid;
    high.class_lo = mid;
  } else {
    i64 mid = t.lo[axis] + t.extent(axis) / 2;  // low half gets [lo, mid)
    t.hi[axis] = mid - 1;
    high.lo[axis] = mid;
  }
  return high;
}

i64 pick_grain(i64 total_cells, std::size_t workers) {
  // Enough leaves per worker for stealing to even out uneven classes.
  constexpr i64 kTasksPerWorker = 8;
  i64 target = std::max<i64>(1, static_cast<i64>(workers) * kTasksPerWorker);
  return std::max<i64>(1, total_cells / target);
}

}  // namespace vdep::runtime
