// Metrics registry: named counters and fixed-bucket histograms with
// Prometheus text-exposition and JSON-lines exporters — the telemetry
// surface a serving daemon scrapes.
//
// Hot-path contract mirrors the trace recorder: when the registry is
// disabled, call sites guard on one relaxed flag load; when enabled,
// Counter::inc is one relaxed fetch_add and Histogram::observe is a short
// branchless-ish scan over <= ~16 bucket bounds plus two fetch_adds.
// Metric objects are allocated once at registration and never move, so
// call sites cache raw pointers.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace vdep::obs {

using i64 = std::int64_t;

class Counter {
 public:
  void inc(i64 n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  i64 value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<i64> v_{0};
};

/// Fixed-bucket histogram. `bounds` are inclusive upper edges in ascending
/// order; a final implicit +Inf bucket catches the rest. Buckets are
/// cumulative only at export time (internally each bucket counts its own
/// range), matching Prometheus `le` semantics in the exporter.
class Histogram {
 public:
  explicit Histogram(std::vector<i64> bounds);

  void observe(i64 v) {
    std::size_t k = 0;
    const std::size_t nb = bounds_.size();
    while (k < nb && v > bounds_[k]) ++k;
    buckets_[k].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
  }

  const std::vector<i64>& bounds() const { return bounds_; }
  /// Count in bucket k (own range, not cumulative); k == bounds().size()
  /// is the +Inf bucket.
  i64 bucket(std::size_t k) const {
    return buckets_[k].load(std::memory_order_relaxed);
  }
  i64 sum() const { return sum_.load(std::memory_order_relaxed); }
  i64 count() const { return count_.load(std::memory_order_relaxed); }
  void reset();

 private:
  std::vector<i64> bounds_;
  std::unique_ptr<std::atomic<i64>[]> buckets_;  ///< bounds_.size() + 1
  std::atomic<i64> sum_{0};
  std::atomic<i64> count_{0};
};

/// `n` exponentially spaced upper bounds: first, first*factor, ... —
/// convenience for latency/size histograms.
std::vector<i64> exp_buckets(i64 first, double factor, int n);

/// One label of a counter, e.g. {"inspection", "reused"}; an empty key
/// means no label.
struct Label {
  std::string key;
  std::string value;
  bool operator==(const Label&) const = default;
};

class MetricsRegistry {
 public:
  static MetricsRegistry& instance();
  static bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
  void enable() { g_enabled.store(true, std::memory_order_relaxed); }
  void disable() { g_enabled.store(false, std::memory_order_relaxed); }
  /// Zeroes every registered metric (names/help stay registered).
  void reset();

  /// Finds or registers a counter — one per (name, label): counters that
  /// share a name and differ in label are one metric family. The returned
  /// reference is stable for the process lifetime. Name and label key
  /// must match [a-zA-Z_:][a-zA-Z0-9_:]*; the label value is free text
  /// without quotes or backslashes.
  Counter& counter(const std::string& name, const std::string& help = "",
                   const Label& label = {});
  /// Finds or registers a histogram; `bounds` is used only on first
  /// registration.
  Histogram& histogram(const std::string& name, std::vector<i64> bounds,
                       const std::string& help = "");

  /// Prometheus text exposition format (# HELP / # TYPE once per family,
  /// labelled counters as name{key="value"}, cumulative _bucket{le=...},
  /// _sum, _count).
  std::string prometheus_text() const;
  /// One JSON object per line: {"metric":...,"type":...,"value":...} for
  /// counters (plus "labels":{key:value} on a labelled one),
  /// buckets/sum/count arrays for histograms.
  std::string json_lines() const;

 private:
  MetricsRegistry() = default;

  struct CounterEntry {
    std::string name, help;
    Label label;
    Counter c;
  };
  struct HistEntry {
    std::string name, help;
    std::unique_ptr<Histogram> h;
  };

  static std::atomic<bool> g_enabled;
  mutable std::mutex mu_;
  /// Node-based storage: entries never move once registered.
  std::vector<std::unique_ptr<CounterEntry>> counters_;
  std::vector<std::unique_ptr<HistEntry>> hists_;
};

}  // namespace vdep::obs
