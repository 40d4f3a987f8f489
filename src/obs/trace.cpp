#include "obs/trace.h"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "obs/metrics.h"

namespace vdep::obs {

std::atomic<bool> TraceRecorder::g_enabled{false};

const char* event_kind_name(EventKind k) {
  switch (k) {
    case EventKind::kParse: return "parse";
    case EventKind::kFingerprint: return "fingerprint";
    case EventKind::kCacheProbe: return "cache_probe";
    case EventKind::kDiskCacheProbe: return "disk_cache_probe";
    case EventKind::kAnalyze: return "pdm_analysis";
    case EventKind::kPlan: return "plan";
    case EventKind::kFmBounds: return "fm_bounds";
    case EventKind::kCodegen: return "codegen";
    case EventKind::kCcSubprocess: return "cc_subprocess";
    case EventKind::kDlopen: return "dlopen";
    case EventKind::kPartitionAnalyze: return "partition_analyze";
    case EventKind::kPartitionVerify: return "partition_verify";
    case EventKind::kExecutorBuild: return "executor_build";
    case EventKind::kInspect: return "inspect";
    case EventKind::kLeafExec: return "leaf_exec";
    case EventKind::kSplit: return "split";
    case EventKind::kSteal: return "steal";
    case EventKind::kIdle: return "idle";
    case EventKind::kNumKinds: break;
  }
  return "unknown";
}

TraceRecorder& TraceRecorder::instance() {
  static TraceRecorder* r = new TraceRecorder();  // never destroyed
  return *r;
}

void TraceRecorder::enable(std::size_t events_per_thread) {
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.clear();
  capacity_ = events_per_thread == 0 ? 1 : events_per_thread;
  generation_.fetch_add(1, std::memory_order_release);
  g_enabled.store(true, std::memory_order_release);
}

void TraceRecorder::disable() {
  g_enabled.store(false, std::memory_order_release);
}

void TraceRecorder::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.clear();
  generation_.fetch_add(1, std::memory_order_release);
}

namespace {
/// Per-thread cache of (generation, buffer). A stale generation means the
/// recorder dropped our buffer (enable/clear); re-register, never touch
/// the old pointer.
struct TlsSlot {
  std::uint64_t gen = 0;
  void* buffer = nullptr;  // TraceRecorder::ThreadBuffer*, kept opaque
};
thread_local TlsSlot tl_slot;
}  // namespace

TraceRecorder::ThreadBuffer* TraceRecorder::register_thread() {
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::make_unique<ThreadBuffer>(capacity_));
  return buffers_.back().get();
}

void TraceRecorder::record_slow(const TraceEvent& ev) {
  const std::uint64_t gen = generation_.load(std::memory_order_acquire);
  if (tl_slot.buffer == nullptr || tl_slot.gen != gen) {
    tl_slot.buffer = register_thread();
    tl_slot.gen = gen;
  }
  ThreadBuffer& buf = *static_cast<ThreadBuffer*>(tl_slot.buffer);
  const std::size_t n = buf.count.load(std::memory_order_relaxed);
  if (n >= buf.events.size()) {
    buf.dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buf.events[n] = ev;
  if (ev.worker >= 0) buf.worker_hint = ev.worker;
  buf.count.store(n + 1, std::memory_order_release);
}

std::size_t TraceRecorder::event_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& b : buffers_) n += b->count.load(std::memory_order_acquire);
  return n;
}

std::size_t TraceRecorder::dropped_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& b : buffers_)
    n += b->dropped.load(std::memory_order_relaxed);
  return n;
}

std::size_t TraceRecorder::thread_buffer_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return buffers_.size();
}

void TraceRecorder::for_each_event(
    const std::function<void(std::size_t, const TraceEvent&)>& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t t = 0; t < buffers_.size(); ++t) {
    const ThreadBuffer& b = *buffers_[t];
    const std::size_t n = b.count.load(std::memory_order_acquire);
    for (std::size_t k = 0; k < n; ++k) fn(t, b.events[k]);
  }
}

namespace {

/// Chrome trace-event timestamps are microseconds (doubles); emit with
/// sub-microsecond precision so short spans stay distinguishable.
void append_us(std::ostringstream& os, i64 ns) {
  os << ns / 1000 << "." << static_cast<int>(ns % 1000 / 100);
}

void append_args(std::ostringstream& os, const TraceEvent& ev) {
  os << "\"args\":{";
  switch (ev.kind) {
    case EventKind::kCacheProbe:
    case EventKind::kDiskCacheProbe:
      os << "\"hit\":" << ev.args[0];
      break;
    case EventKind::kLeafExec:
      os << "\"cells\":" << ev.args[0] << ",\"source\":" << ev.args[1]
         << ",\"lo0\":" << ev.args[2] << ",\"hi0\":" << ev.args[3]
         << ",\"class_lo\":" << ev.args[4] << ",\"class_hi\":" << ev.args[5];
      break;
    case EventKind::kSplit:
      os << "\"axis\":" << ev.args[0] << ",\"cells_kept\":" << ev.args[1]
         << ",\"deque_size\":" << ev.args[2] << ",\"source\":" << ev.args[3];
      break;
    case EventKind::kSteal:
      os << "\"victim\":" << ev.args[0] << ",\"source\":" << ev.args[1];
      break;
    case EventKind::kInspect:
      os << "\"iterations\":" << ev.args[0] << ",\"classes\":" << ev.args[1]
         << ",\"chains\":" << ev.args[2] << ",\"max_component\":" << ev.args[3]
         << ",\"dependent\":" << ev.args[4]
         << ",\"written_cells\":" << ev.args[5]
         << ",\"inspection\":" << ev.args[6];
      break;
    default:
      os << "\"a0\":" << ev.args[0];
      break;
  }
  os << "}";
}

}  // namespace

std::string TraceRecorder::chrome_json() const {
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  bool first = true;
  // Thread-name metadata rows: one per buffer, named after the worker id
  // when the buffer only ever recorded runtime events, else "compile".
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t t = 0; t < buffers_.size(); ++t) {
      if (!first) os << ",";
      first = false;
      os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << t
         << ",\"args\":{\"name\":\"";
      if (buffers_[t]->worker_hint >= 0)
        os << "worker " << buffers_[t]->worker_hint;
      else
        os << "compile";
      os << "\"}}";
    }
  }
  for_each_event([&](std::size_t tid, const TraceEvent& ev) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"" << event_kind_name(ev.kind)
       << "\",\"cat\":\"vdep\",\"ph\":\"" << (ev.dur_ns > 0 ? "X" : "i")
       << "\",\"pid\":1,\"tid\":" << tid << ",\"ts\":";
    append_us(os, ev.start_ns);
    if (ev.dur_ns > 0) {
      os << ",\"dur\":";
      append_us(os, ev.dur_ns);
    } else {
      os << ",\"s\":\"t\"";
    }
    os << ",";
    append_args(os, ev);
    os << "}";
  });
  os << "]}";
  return os.str();
}

bool TraceRecorder::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = chrome_json();
  const std::size_t n = std::fwrite(json.data(), 1, json.size(), f);
  const bool ok = n == json.size() && std::fclose(f) == 0;
  if (n != json.size()) std::fclose(f);
  return ok;
}

namespace {

struct EnvHooks {
  std::string trace_path;
  std::string metrics_path;

  EnvHooks() {
    if (const char* p = std::getenv("VDEP_TRACE"); p != nullptr && *p) {
      trace_path = p;
      TraceRecorder::instance().enable();
    }
    if (const char* p = std::getenv("VDEP_METRICS"); p != nullptr && *p) {
      metrics_path = p;
      MetricsRegistry::instance().enable();
    }
  }

  // The dump runs from this destructor, NOT an atexit handler registered in
  // the constructor: such a handler is registered before the static's own
  // __cxa_atexit destructor and therefore runs after it — reading the path
  // strings post-destruction. (Short paths survived via SSO, heap-allocated
  // ones came back corrupted: dumps silently failed for any path over the
  // SSO threshold.) Here the members are alive by construction, and the
  // recorder/registry singletons were constructed inside the constructor
  // above, so they outlive this destructor too.
  ~EnvHooks() { dump(); }

  static void dump();
};

EnvHooks* g_hooks = nullptr;

void EnvHooks::dump() {
  if (g_hooks == nullptr) return;
  if (!g_hooks->trace_path.empty()) {
    if (!TraceRecorder::instance().write_chrome_json(g_hooks->trace_path))
      std::fprintf(stderr, "vdep: failed to write trace to %s\n",
                   g_hooks->trace_path.c_str());
  }
  if (!g_hooks->metrics_path.empty()) {
    const std::string& path = g_hooks->metrics_path;
    const bool prom =
        path.size() >= 5 && path.compare(path.size() - 5, 5, ".prom") == 0;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "vdep: failed to write metrics to %s\n",
                   path.c_str());
      return;
    }
    const std::string text = prom
                                 ? MetricsRegistry::instance().prometheus_text()
                                 : MetricsRegistry::instance().json_lines();
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
  }
}

}  // namespace

void install_env_hooks() {
  static EnvHooks hooks;
  g_hooks = &hooks;
}

namespace {
/// Pulled in by any TU linking the obs layer (runtime/api reference trace
/// symbols, so every binary gets the env hooks without opting in).
const bool g_env_hooks_installed = (install_env_hooks(), true);
}  // namespace

}  // namespace vdep::obs
