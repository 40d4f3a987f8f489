// TraceRecorder: per-thread ring buffers of fixed-size events, exported as
// Chrome trace-event JSON (loadable in Perfetto / chrome://tracing).
//
// Hot-path contract:
//   - When disabled (the default), record() is one relaxed load of a cached
//     global flag and a branch; no clock read, no allocation, no store.
//   - When enabled, each record() is a single-writer append into the calling
//     thread's own ring buffer: no locks, no CAS, no sharing. The only
//     cross-thread traffic is a release store of the per-buffer count so the
//     exporter (which runs after the workers quiesce) acquires a consistent
//     prefix.
//   - Buffers are fixed capacity; overflow drops the newest events and bumps
//     a per-buffer drop counter rather than resizing (no allocation after
//     registration, bounded memory under runaway loops).
//
// Thread buffers are registered lazily the first time a thread records while
// tracing is enabled. enable()/clear() bump a generation counter so stale
// thread_local buffer pointers from an earlier trace are abandoned, never
// dereferenced.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/phase.h"

namespace vdep::obs {

/// What an event describes. Spans (duration events) and instants share one
/// record type; kSplit/kSteal/kIdleEnd instants carry dur_ns = 0 or the
/// episode length in args.
enum class EventKind : std::uint8_t {
  // Compile-side spans.
  kParse = 0,
  kFingerprint,
  kCacheProbe,      ///< args[0] = 1 on hit, 0 on miss
  kDiskCacheProbe,  ///< on-disk artifact cache probe; args[0] = 1 on hit
  kAnalyze,     ///< PDM computation
  kPlan,        ///< Algorithm-1 planning + legality
  kFmBounds,    ///< Fourier–Motzkin bound extraction (inside rewrite)
  kCodegen,     ///< C text emission (range kernel / codegen())
  kCcSubprocess,
  kDlopen,
  kPartitionAnalyze,  ///< steady-state partition derivation; args[0] = axis
                      ///< (-1 fully static), args[1] = constraint count
  kPartitionVerify,   ///< kernel verifier run; args[0] = 1 verified / 0
                      ///< rejected, args[1] = failed obligation count
  kExecutorBuild,  ///< StreamExecutor construction (rewrite + hull)
  kInspect,        ///< runtime inspection span; args = {iterations, classes,
                   ///< chains, max_component, dependent, written_cells,
                   ///< inspection} with inspection an api Inspection value
                   ///< (1 fresh, 2 reused, 3 re-inspected after a mismatch)
  // Runtime events.
  kLeafExec,  ///< span; args = {cells, source, lo0, hi0, class_lo, class_hi}
  kSplit,     ///< instant; args = {axis, cells_kept, deque_size, source}
  kSteal,     ///< span over the idle episode that ended in the steal;
              ///< args = {victim, source, distance} with distance one of
              ///< topo::Topology's classes (0 same cpu .. 3 remote node)
  kIdle,      ///< span; one terminal idle episode (ended by shutdown)
  kNumKinds,
};

const char* event_kind_name(EventKind k);

/// Payload slots of one trace record.
inline constexpr int kTraceArgs = 7;

/// One fixed-size trace record. 80 bytes; a 64Ki-event buffer is 5 MiB.
struct TraceEvent {
  i64 start_ns = 0;
  i64 dur_ns = 0;      ///< 0 for instants
  i64 args[kTraceArgs] = {};  ///< kind-specific payload (see EventKind)
  std::int32_t worker = -1;  ///< worker id, or -1 for compile-side threads
  EventKind kind = EventKind::kParse;
};
static_assert(sizeof(TraceEvent) == 80);

class TraceRecorder {
 public:
  static TraceRecorder& instance();

  /// Fast global check, usable from any layer without touching the
  /// singleton: one relaxed atomic load.
  static bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

  /// Starts a new trace. Existing buffers are discarded (their registered
  /// threads re-register on next record). `events_per_thread` is the ring
  /// capacity of each thread's buffer.
  void enable(std::size_t events_per_thread = 1u << 16);
  void disable();
  /// Drops all recorded events (and buffers); keeps the enabled state.
  void clear();

  /// Appends one event to the calling thread's buffer. No-op (one branch)
  /// when tracing is disabled.
  static void record(const TraceEvent& ev) {
    if (!enabled()) return;
    instance().record_slow(ev);
  }

  std::size_t event_count() const;
  std::size_t dropped_count() const;
  std::size_t thread_buffer_count() const;

  /// Visits every recorded event (stable order within a thread buffer,
  /// buffers in registration order). `tid` is a dense per-buffer index.
  void for_each_event(
      const std::function<void(std::size_t tid, const TraceEvent&)>& fn) const;

  /// Chrome trace-event JSON: {"traceEvents":[...]} with "X" complete
  /// events for spans, "i" instants, and "M" thread_name metadata rows.
  std::string chrome_json() const;
  /// Writes chrome_json() to `path`; returns false on I/O failure.
  bool write_chrome_json(const std::string& path) const;

 private:
  struct ThreadBuffer {
    explicit ThreadBuffer(std::size_t cap) : events(cap) {}
    std::vector<TraceEvent> events;
    /// Published count: the writer stores with release after each append;
    /// readers acquire. Only the owning thread writes events/count.
    std::atomic<std::size_t> count{0};
    std::atomic<std::size_t> dropped{0};
    std::int32_t worker_hint = -1;  ///< last worker id seen (for naming)
  };

  TraceRecorder() = default;
  void record_slow(const TraceEvent& ev);
  ThreadBuffer* register_thread();

  static std::atomic<bool> g_enabled;

  mutable std::mutex mu_;  ///< guards buffers_ / capacity_ / generation_
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  std::size_t capacity_ = 1u << 16;
  /// Bumped by enable()/clear(); thread_locals cache (generation, buffer)
  /// and re-register when the generation moved on.
  std::atomic<std::uint64_t> generation_{0};
};

/// RAII span: stamps start at construction, records at destruction. The
/// clock is read only when tracing is enabled *and* the call site's layer
/// toggle allows it; `phase` (when not kNone) additionally feeds the open
/// PhaseScope of the thread even with tracing off, so ExecReport timing
/// works without a recorder.
class ScopedSpan {
 public:
  ScopedSpan(EventKind kind, bool layer_enabled, Phase phase = Phase::kNone)
      : kind_(kind), phase_(phase) {
    tracing_ = layer_enabled && TraceRecorder::enabled();
    timing_ = phase != Phase::kNone && PhaseScope::active();
    if (tracing_ || timing_) t0_ = now_ns();
  }
  ~ScopedSpan() {
    if (!tracing_ && !timing_) return;
    const i64 dur = now_ns() - t0_;
    if (timing_) PhaseScope::add(phase_, dur);
    if (tracing_) {
      TraceEvent ev;
      ev.start_ns = t0_;
      ev.dur_ns = dur;
      ev.kind = kind_;
      ev.worker = worker_;
      for (int k = 0; k < kTraceArgs; ++k) ev.args[k] = args_[k];
      TraceRecorder::record(ev);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Whether this span will emit a trace event (for arg fills the caller
  /// would otherwise compute for nothing).
  bool tracing() const { return tracing_; }
  void set_arg(int k, i64 v) { args_[k] = v; }
  void set_worker(std::int32_t w) { worker_ = w; }

 private:
  i64 t0_ = 0;
  i64 args_[kTraceArgs] = {};
  EventKind kind_;
  Phase phase_;
  std::int32_t worker_ = -1;
  bool tracing_ = false;
  bool timing_ = false;
};

/// Installs the VDEP_TRACE / VDEP_METRICS env hooks (idempotent; called
/// from a static initializer in trace.cpp). With VDEP_TRACE=<path> set,
/// tracing is enabled at load and the Chrome JSON is written to <path> at
/// normal process exit. VDEP_METRICS=<path> likewise enables the metrics
/// registry and dumps it at exit (*.prom → Prometheus text, else JSON
/// lines).
void install_env_hooks();

}  // namespace vdep::obs
