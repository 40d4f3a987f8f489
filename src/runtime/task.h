// Work descriptors of the streaming runtime.
//
// exec::build_schedule (the tests' oracle) stores every iteration vector of
// every work item. Here a work item is a *descriptor* of what to run, not
// the iterations themselves: an N-dimensional iteration box
//
//     [lo_0, hi_0] x ... x [lo_{d-1}, hi_{d-1}]  x  [class_lo, class_hi)
//
// over the transformed DOALL-prefix indices of the nest and the partition
// class ids of Theorem 2. Each (DOALL prefix value, class) cell is an
// independent sequential unit (Lemma 1 x Theorem 2), so any disjoint cover
// of the box is a legal task decomposition. The iterations of a unit are
// never stored: the executor regenerates them from the Partitioning scan
// recurrence (loop (3.2)) on the fly, which makes the schedule memory
// O(active descriptors) instead of O(total iterations).
//
// Splitting halves the *longest* splittable axis (outermost-first on ties,
// the class range treated as the last axis) until a descriptor covers at
// most `grain` cells. Boxing every DOALL dimension — not only the outermost
// — is what parallelizes skewed-extent nests whose outer extent is tiny but
// whose inner DOALL extents are large.
#pragma once

#include <string>

#include "support/checked.h"

namespace vdep::runtime {

using i64 = checked::i64;

struct TaskDescriptor {
  /// Cap on boxed DOALL-prefix dimensions. Plans with more DOALL loops box
  /// the outermost kMaxDims and scan the rest in full inside each leaf —
  /// correctness never depends on the cap, only split granularity does.
  static constexpr int kMaxDims = 8;
  /// Axis id reported for class-range splits (DOALL axes are 0..ndims-1).
  static constexpr int kClassAxis = kMaxDims;

  /// Number of boxed DOALL-prefix dimensions (0 when the plan has none).
  int ndims = 0;
  /// Inclusive per-dimension ranges; slots >= ndims stay zero.
  i64 lo[kMaxDims] = {};
  i64 hi[kMaxDims] = {};
  /// Half-open range of partition class ids ([0, 1) when unpartitioned).
  i64 class_lo = 0;
  i64 class_hi = 1;
  /// Which source of a driver run (driver.h DriveSource — one per batch
  /// request) the box belongs to. Single-source runs leave it 0; split()
  /// halves carry it unchanged, so a stolen descriptor always knows its
  /// plan, store and kernel.
  i64 source = 0;

  i64 extent(int d) const { return hi[d] - lo[d] + 1; }
  i64 class_extent() const { return class_hi - class_lo; }
  /// True when some axis covers no values at all.
  bool empty() const;
  /// Number of (DOALL prefix value x class) cells covered, saturating at
  /// INT64_MAX (a box that large is split long before the count matters).
  i64 cells() const;

  bool operator==(const TaskDescriptor& o) const = default;

  std::string to_string() const;
};

/// Locality weights steering which axis splits first. stride[d] is the
/// total absolute address movement (in elements, summed over the plan's
/// affine accesses) caused by one step along boxed axis d — large-stride
/// axes separate leaves' memory footprints, small-stride axes cut through
/// contiguous runs. Computed once per plan by StreamExecutor from the
/// arrays' row-major strides and the transform inverse.
struct SplitPrefs {
  i64 stride[TaskDescriptor::kMaxDims] = {};

  /// False when every weight is zero — the default longest-axis policy
  /// applies unchanged.
  bool any() const {
    for (i64 s : stride)
      if (s != 0) return true;
    return false;
  }
};

/// What a source's descriptors may split beside the grain (driver.h
/// DriveSource). `classes` false takes the class range out of the
/// splittable set: a source whose classes write cells that share cache
/// lines keeps them in one descriptor. DOALL axis `column_axis` splits only
/// into halves of at least kColumnFloor values: a scan runs that level as
/// columns (stream_executor.h), which halving to single values would
/// shorten to one iteration each, and a column that short costs what a
/// point costs. Like `grain` they belong to the source, not to the
/// locality weights.
struct SplitLimits {
  static constexpr i64 kColumnFloor = 32;
  bool classes = true;
  int column_axis = -1;
};

/// The axis split() would divide. Default policy (null/empty `prefs`): the
/// longest splittable axis, ties going to the outermost dimension and the
/// class range (id kClassAxis) treated as the innermost axis. With
/// locality prefs, the splittable DOALL axis with the largest address
/// stride wins instead (ties by extent, then outermost) — splitting the
/// max-stride axis keeps each leaf's touched rows contiguous — and the
/// class range becomes the last resort. -1 when the descriptor is a leaf:
/// at most max(grain, 1) cells, or no axis splittable. An axis is
/// splittable when it has at least two values (the column axis: two
/// floors), the class range only under `limits.classes`. The *splittable*
/// set never depends on prefs, only the choice among splittable axes does.
int pick_split_axis(const TaskDescriptor& t, i64 grain,
                    const SplitPrefs* prefs = nullptr,
                    const SplitLimits& limits = {});

/// Whether split() may divide `t`: more than max(grain, 1) cells and some
/// splittable axis (pick_split_axis). Independent of any SplitPrefs by
/// construction.
bool can_split(const TaskDescriptor& t, i64 grain,
               const SplitLimits& limits = {});

/// Divides `t` in two along pick_split_axis. `t` keeps the low half; the
/// returned descriptor is the high half. Requires can_split(t, grain,
/// limits). `axis_out`, when non-null, receives the chosen axis id
/// (per-axis split counters in stats.h).
TaskDescriptor split(TaskDescriptor& t, i64 grain, int* axis_out = nullptr,
                     const SplitPrefs* prefs = nullptr,
                     const SplitLimits& limits = {});

/// Grain heuristic: aim for ~8 leaf descriptors per worker by total cells,
/// never below 1.
i64 pick_grain(i64 total_cells, std::size_t workers);

}  // namespace vdep::runtime
