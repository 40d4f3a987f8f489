// Tests for the observability layer: the per-thread trace recorder (ring
// buffers, Chrome JSON export, disabled-path emptiness), the metrics
// registry (Prometheus round-trip, JSON lines), and the ExecReport phase
// breakdown. The parallel-run tests execute with 8 workers while the
// recorder is live — this binary runs under TSan in CI, so single-writer
// buffer discipline is checked, not just asserted in comments.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "api/vdep.h"
#include "core/suite.h"
#include "obs/metrics.h"
#include "obs/phase.h"
#include "obs/trace.h"

namespace vdep {
namespace {

using obs::EventKind;
using obs::MetricsRegistry;
using obs::TraceEvent;
using obs::TraceRecorder;

// ------------------------------------------------------- minimal JSON parse
// Strict-enough recursive-descent validator for the exporters' output; no
// third-party JSON dependency in the image.

class JsonParser {
 public:
  explicit JsonParser(const std::string& s) : p_(s.c_str()), end_(p_ + s.size()) {}

  bool parse() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return p_ == end_;
  }

 private:
  bool value() {
    if (p_ == end_) return false;
    switch (*p_) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++p_;  // '{'
    skip_ws();
    if (p_ != end_ && *p_ == '}') { ++p_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (p_ == end_ || *p_++ != ':') return false;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (p_ == end_) return false;
      if (*p_ == ',') { ++p_; continue; }
      if (*p_ == '}') { ++p_; return true; }
      return false;
    }
  }
  bool array() {
    ++p_;  // '['
    skip_ws();
    if (p_ != end_ && *p_ == ']') { ++p_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (p_ == end_) return false;
      if (*p_ == ',') { ++p_; continue; }
      if (*p_ == ']') { ++p_; return true; }
      return false;
    }
  }
  bool string() {
    if (p_ == end_ || *p_++ != '"') return false;
    while (p_ != end_ && *p_ != '"') {
      if (*p_ == '\\') {
        ++p_;
        if (p_ == end_) return false;
      }
      ++p_;
    }
    if (p_ == end_) return false;
    ++p_;  // closing quote
    return true;
  }
  bool number() {
    const char* start = p_;
    if (p_ != end_ && (*p_ == '-' || *p_ == '+')) ++p_;
    bool digits = false;
    while (p_ != end_ && (std::isdigit(static_cast<unsigned char>(*p_)) ||
                          *p_ == '.' || *p_ == 'e' || *p_ == 'E' ||
                          *p_ == '-' || *p_ == '+')) {
      if (std::isdigit(static_cast<unsigned char>(*p_))) digits = true;
      ++p_;
    }
    return digits && p_ != start;
  }
  bool literal(const char* lit) {
    for (; *lit; ++lit, ++p_)
      if (p_ == end_ || *p_ != *lit) return false;
    return true;
  }
  void skip_ws() {
    while (p_ != end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' ||
                          *p_ == '\r'))
      ++p_;
  }

  const char* p_;
  const char* end_;
};

std::size_t count_substr(const std::string& s, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = s.find(needle); at != std::string::npos;
       at = s.find(needle, at + needle.size()))
    ++n;
  return n;
}

/// Restores a quiescent global recorder/registry around every test so the
/// suites don't leak state into each other (both singletons are global).
struct ObsQuiet {
  ObsQuiet() { reset(); }
  ~ObsQuiet() { reset(); }
  static void reset() {
    TraceRecorder::instance().disable();
    TraceRecorder::instance().clear();
    MetricsRegistry::instance().disable();
    MetricsRegistry::instance().reset();
  }
};

ExecReport run_traced(const CompiledLoop& loop, std::size_t threads) {
  exec::ArrayStore store(loop.nest());
  store.fill_pattern();
  ExecPolicy policy;
  policy.threads(threads).digest(false);
  Expected<ExecReport> r = loop.execute(policy, store);
  EXPECT_TRUE(r) << (r ? "" : r.error().to_string());
  return r ? *r : ExecReport{};
}

/// Runtime events (leaf spans, splits, steals, idle) in the recorder.
i64 runtime_event_count() {
  i64 n = 0;
  TraceRecorder::instance().for_each_event(
      [&](std::size_t, const TraceEvent& ev) {
        if (ev.kind == EventKind::kLeafExec || ev.kind == EventKind::kSplit ||
            ev.kind == EventKind::kSteal || ev.kind == EventKind::kIdle)
          ++n;
      });
  return n;
}

/// Executor builds (executable-memo misses) in the recorder.
i64 executor_build_count() {
  i64 n = 0;
  TraceRecorder::instance().for_each_event(
      [&](std::size_t, const TraceEvent& ev) {
        if (ev.kind == EventKind::kExecutorBuild) ++n;
      });
  return n;
}

// ------------------------------------------------------------------- trace

TEST(Trace, DisabledRecorderStaysEmpty) {
  ObsQuiet quiet;
  Compiler compiler;
  CompiledLoop loop = compiler.compile(core::example41(64)).value();
  run_traced(loop, 4);
  // Disabled: no events, and — stronger — no thread ever registered a
  // buffer, so the disabled path allocated nothing.
  EXPECT_EQ(TraceRecorder::instance().event_count(), 0u);
  EXPECT_EQ(TraceRecorder::instance().thread_buffer_count(), 0u);
  EXPECT_EQ(TraceRecorder::instance().dropped_count(), 0u);
}

TEST(Trace, CompileEmitsPipelineSpans) {
  ObsQuiet quiet;
  TraceRecorder::instance().enable();
  Compiler compiler;
  CompiledLoop loop = compiler.compile(core::example41(64)).value();
  (void)loop;
  std::map<EventKind, int> kinds;
  TraceRecorder::instance().for_each_event(
      [&](std::size_t, const TraceEvent& ev) { ++kinds[ev.kind]; });
  EXPECT_GE(kinds[EventKind::kFingerprint], 1);
  EXPECT_GE(kinds[EventKind::kCacheProbe], 1);
  EXPECT_GE(kinds[EventKind::kAnalyze], 1);
  EXPECT_GE(kinds[EventKind::kPlan], 1);
  // A second compile of the same structure is a cache hit: one more probe,
  // no new analysis.
  int analyzes = kinds[EventKind::kAnalyze];
  CompiledLoop again = compiler.compile(core::example41(128)).value();
  (void)again;
  kinds.clear();
  TraceRecorder::instance().for_each_event(
      [&](std::size_t, const TraceEvent& ev) { ++kinds[ev.kind]; });
  EXPECT_EQ(kinds[EventKind::kAnalyze], analyzes);
  EXPECT_GE(kinds[EventKind::kCacheProbe], 2);
}

TEST(Trace, EventsBalanceUnderParallelRun) {
  ObsQuiet quiet;
  Compiler compiler;
  CompiledLoop loop = compiler.compile(core::example41(512)).value();

  TraceRecorder::instance().enable();
  ExecReport rep = run_traced(loop, 8);
  TraceRecorder::instance().disable();

  ASSERT_EQ(TraceRecorder::instance().dropped_count(), 0u);
  // <= 8 workers + the calling thread (executor-build span).
  EXPECT_LE(TraceRecorder::instance().thread_buffer_count(), 9u);

  i64 leaves = 0, steals = 0, splits = 0;
  TraceRecorder::instance().for_each_event([&](std::size_t,
                                               const TraceEvent& ev) {
    EXPECT_GE(ev.start_ns, 0);
    EXPECT_GE(ev.dur_ns, 0);
    switch (ev.kind) {
      case EventKind::kLeafExec:
        ++leaves;
        EXPECT_GE(ev.worker, 0);
        EXPECT_GT(ev.args[0], 0);  // cells
        break;
      case EventKind::kSteal:
        ++steals;
        EXPECT_GE(ev.worker, 0);
        EXPECT_GE(ev.args[0], 0);  // victim id
        break;
      case EventKind::kSplit:
        ++splits;
        EXPECT_EQ(ev.dur_ns, 0);  // instant
        break;
      default:
        break;
    }
  });
  // Every executed leaf descriptor produced exactly one span, every
  // successful steal exactly one episode span.
  EXPECT_EQ(leaves, rep.tasks);
  EXPECT_EQ(steals, rep.steals);
  EXPECT_GE(splits, rep.inner_splits);
}

TEST(Trace, ChromeJsonParsesAndNamesThreads) {
  ObsQuiet quiet;
  Compiler compiler;
  CompiledLoop loop = compiler.compile(core::variable_3deep(16)).value();
  TraceRecorder::instance().enable();
  run_traced(loop, 4);
  TraceRecorder::instance().disable();

  const std::string json = TraceRecorder::instance().chrome_json();
  ASSERT_TRUE(JsonParser(json).parse()) << json.substr(0, 400);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // One thread_name metadata row per registered buffer.
  EXPECT_EQ(count_substr(json, "\"thread_name\""),
            TraceRecorder::instance().thread_buffer_count());
  // Spans became complete events, and at least the leaves are there.
  EXPECT_GE(count_substr(json, "\"ph\":\"X\""), 1u);
  EXPECT_GE(count_substr(json, "\"name\":\"leaf_exec\""), 1u);
}

TEST(Trace, RingBufferDropsInsteadOfGrowing) {
  ObsQuiet quiet;
  Compiler compiler;
  CompiledLoop loop = compiler.compile(core::example41(128)).value();
  // Tiny rings: the run must overflow them and count drops, never resize.
  TraceRecorder::instance().enable(/*events_per_thread=*/16);
  ExecPolicy policy;
  policy.threads(4).grain(1).digest(false);
  exec::ArrayStore store(loop.nest());
  store.fill_pattern();
  ASSERT_TRUE(loop.execute(policy, store));
  TraceRecorder::instance().disable();

  std::size_t buffers = TraceRecorder::instance().thread_buffer_count();
  EXPECT_LE(TraceRecorder::instance().event_count(), buffers * 16);
  EXPECT_GT(TraceRecorder::instance().dropped_count(), 0u);
}

TEST(Trace, PolicyToggleKeepsRunOutOfTrace) {
  ObsQuiet quiet;
  Compiler compiler;
  CompiledLoop loop = compiler.compile(core::example41(128)).value();
  TraceRecorder::instance().enable();
  TraceRecorder::instance().clear();

  exec::ArrayStore store(loop.nest());
  store.fill_pattern();
  ExecPolicy policy;
  policy.threads(4).digest(false).trace(false);
  ASSERT_TRUE(loop.execute(policy, store));
  // Recorder is live, but the run opted out: no runtime events.
  EXPECT_EQ(runtime_event_count(), 0);
}

/// Runs 6 pattern-filled stores of `loop` as one 4-thread batch.
std::vector<ExecReport> batch_of_six(const CompiledLoop& loop,
                                         ExecPolicy policy) {
  std::vector<exec::ArrayStore> stores(6, exec::ArrayStore(loop.nest()));
  std::vector<exec::ArrayStore*> ptrs;
  for (exec::ArrayStore& s : stores) {
    s.fill_pattern();
    ptrs.push_back(&s);
  }
  Expected<std::vector<ExecReport>> reps = loop.execute_batch(
      std::span<exec::ArrayStore* const>(ptrs), policy.threads(4));
  EXPECT_TRUE(reps) << (reps ? "" : reps.error().to_string());
  return reps ? *reps : std::vector<ExecReport>{};
}

TEST(Trace, PolicyToggleKeepsBatchOutOfTrace) {
  ObsQuiet quiet;
  Compiler compiler;
  CompiledLoop loop = compiler.compile(core::example41(128)).value();
  TraceRecorder::instance().enable();
  TraceRecorder::instance().clear();

  ASSERT_EQ(batch_of_six(loop, ExecPolicy{}.digest(false).trace(false))
                .size(),
            6u);
  EXPECT_EQ(runtime_event_count(), 0);
}

// ----------------------------------------------------------------- metrics

TEST(Metrics, ExpBucketsStrictlyAscend) {
  std::vector<obs::i64> b = obs::exp_buckets(1, 1.1, 32);
  ASSERT_EQ(b.size(), 32u);
  for (std::size_t k = 1; k < b.size(); ++k) EXPECT_GT(b[k], b[k - 1]);
}

TEST(Metrics, HistogramBucketsOwnRanges) {
  obs::Histogram h({10, 100, 1000});
  h.observe(5);     // <= 10
  h.observe(10);    // <= 10 (inclusive upper edge)
  h.observe(11);    // <= 100
  h.observe(5000);  // +Inf
  EXPECT_EQ(h.bucket(0), 2);
  EXPECT_EQ(h.bucket(1), 1);
  EXPECT_EQ(h.bucket(2), 0);
  EXPECT_EQ(h.bucket(3), 1);
  EXPECT_EQ(h.count(), 4);
  EXPECT_EQ(h.sum(), 5 + 10 + 11 + 5000);
}

TEST(Metrics, PrometheusRoundTrip) {
  ObsQuiet quiet;
  MetricsRegistry& reg = MetricsRegistry::instance();
  reg.enable();
  reg.counter("vdep_test_requests_total", "test counter").inc(7);
  obs::Histogram& h =
      reg.histogram("vdep_test_latency_ns", {100, 1000}, "test histogram");
  h.observe(50);
  h.observe(500);
  h.observe(5000);

  const std::string text = reg.prometheus_text();
  // Parse the exposition back: name{labels} value per line.
  std::map<std::string, double> values;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    std::size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    values[line.substr(0, sp)] = std::atof(line.c_str() + sp + 1);
  }
  EXPECT_EQ(values["vdep_test_requests_total"], 7);
  // Cumulative le buckets: 1 at <=100, 2 at <=1000, 3 at +Inf == _count.
  EXPECT_EQ(values["vdep_test_latency_ns_bucket{le=\"100\"}"], 1);
  EXPECT_EQ(values["vdep_test_latency_ns_bucket{le=\"1000\"}"], 2);
  EXPECT_EQ(values["vdep_test_latency_ns_bucket{le=\"+Inf\"}"], 3);
  EXPECT_EQ(values["vdep_test_latency_ns_sum"], 50 + 500 + 5000);
  EXPECT_EQ(values["vdep_test_latency_ns_count"], 3);
  // HELP/TYPE headers are present for both metric families.
  EXPECT_GE(count_substr(text, "# HELP"), 2u);
  EXPECT_GE(count_substr(text, "# TYPE"), 2u);
}

TEST(Metrics, JsonLinesParse) {
  ObsQuiet quiet;
  MetricsRegistry& reg = MetricsRegistry::instance();
  reg.enable();
  reg.counter("vdep_test_c", "c").inc(3);
  reg.histogram("vdep_test_h", {10}, "h").observe(4);
  const std::string lines = reg.json_lines();
  std::size_t pos = 0, parsed = 0;
  while (pos < lines.size()) {
    std::size_t eol = lines.find('\n', pos);
    if (eol == std::string::npos) eol = lines.size();
    std::string line = lines.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    EXPECT_TRUE(JsonParser(line).parse()) << line;
    ++parsed;
  }
  EXPECT_GE(parsed, 2u);
}

TEST(Metrics, LabelledCountersShareOneFamily) {
  // One counter per (name, label); the exposition writes the family's
  // HELP/TYPE once and every member under it, and JSON lines stay
  // parseable with a "labels" object.
  ObsQuiet quiet;
  MetricsRegistry& reg = MetricsRegistry::instance();
  reg.enable();
  reg.counter("vdep_test_labelled_total", "by kind", {"kind", "a"}).inc(2);
  reg.counter("vdep_test_other_total", "other").inc();
  reg.counter("vdep_test_labelled_total", "by kind", {"kind", "b"}).inc(5);
  EXPECT_EQ(reg.counter("vdep_test_labelled_total", "", {"kind", "a"}).value(),
            2);
  EXPECT_EQ(reg.counter("vdep_test_labelled_total").value(), 0);

  const std::string text = reg.prometheus_text();
  EXPECT_EQ(count_substr(text, "# TYPE vdep_test_labelled_total counter"),
            1u);
  const std::size_t a = text.find("vdep_test_labelled_total{kind=\"a\"} 2\n");
  const std::size_t b = text.find("vdep_test_labelled_total{kind=\"b\"} 5\n");
  const std::size_t other = text.find("# TYPE vdep_test_other_total");
  ASSERT_NE(a, std::string::npos) << text;
  ASSERT_NE(b, std::string::npos) << text;
  EXPECT_LT(b, other) << "family members must follow one header";

  const std::string lines = reg.json_lines();
  EXPECT_NE(lines.find("\"labels\":{\"kind\":\"b\"},\"value\":5"),
            std::string::npos)
      << lines;
  std::size_t pos = 0;
  while (pos < lines.size()) {
    std::size_t eol = lines.find('\n', pos);
    if (eol == std::string::npos) eol = lines.size();
    std::string line = lines.substr(pos, eol - pos);
    pos = eol + 1;
    if (!line.empty()) EXPECT_TRUE(JsonParser(line).parse()) << line;
  }
}

TEST(Metrics, RunPublishesWorkerMetrics) {
  ObsQuiet quiet;
  MetricsRegistry& reg = MetricsRegistry::instance();
  reg.enable();
  Compiler compiler;
  CompiledLoop loop = compiler.compile(core::example41(256)).value();
  ExecReport rep = run_traced(loop, 4);
  obs::Counter& tasks = reg.counter("vdep_tasks_total");
  obs::Counter& iters = reg.counter("vdep_iterations_total");
  EXPECT_EQ(tasks.value(), rep.tasks);
  EXPECT_EQ(iters.value(), rep.iterations);
  // The leaf-size histogram observed one sample per leaf.
  obs::Histogram& leaf = reg.histogram("vdep_leaf_cells", {});
  EXPECT_EQ(leaf.count(), rep.tasks);
}

TEST(Metrics, PolicyToggleKeepsBatchOutOfMetrics) {
  ObsQuiet quiet;
  MetricsRegistry& reg = MetricsRegistry::instance();
  reg.enable();
  Compiler compiler;
  CompiledLoop loop = compiler.compile(core::example41(128)).value();
  const i64 before = reg.counter("vdep_tasks_total").value();
  ASSERT_EQ(batch_of_six(loop, ExecPolicy{}.digest(false).metrics(false))
                .size(),
            6u);
  EXPECT_EQ(reg.counter("vdep_tasks_total").value(), before);
  EXPECT_EQ(reg.histogram("vdep_leaf_cells", {}).count(), 0);
}

TEST(Metrics, BatchRecordsLeafAndQueueHistograms) {
  ObsQuiet quiet;
  MetricsRegistry& reg = MetricsRegistry::instance();
  reg.enable();
  Compiler compiler;
  CompiledLoop loop = compiler.compile(core::example41(128)).value();
  std::vector<ExecReport> reps =
      batch_of_six(loop, ExecPolicy{}.digest(false));
  ASSERT_EQ(reps.size(), 6u);
  i64 tasks = 0, splits = 0;
  for (const ExecReport& r : reps) {
    tasks += r.tasks;
    splits += r.tasks - 1;  // tasks == splits + 1 per request
  }
  // One leaf-size sample per executed leaf, as in a single run.
  EXPECT_EQ(reg.histogram("vdep_leaf_cells", {}).count(), tasks);
  EXPECT_EQ(reg.counter("vdep_tasks_total").value(), tasks);
  // One queue-depth sample per worker split; 6 roots over 4 workers need
  // no seeding splits, so that is every split.
  EXPECT_EQ(reg.histogram("vdep_queue_depth", {}).count(), splits);
}

// --------------------------------------------------------- executable memo

// The executable memo keeps what a run was built with, but tracing and
// metrics are per-run switches: a memo hit under trace(false)/metrics(false)
// must stay out of the recorder and the registry even though the entry was
// built by a run that emitted into both. Single execute and batch.
TEST(ExecutableMemo, HitHonoursTheCurrentPolicy) {
  ObsQuiet quiet;
  TraceRecorder& rec = TraceRecorder::instance();
  MetricsRegistry& reg = MetricsRegistry::instance();
  rec.enable();
  reg.enable();
  Compiler compiler;
  CompiledLoop loop = compiler.compile(core::example41(128)).value();
  ExecPolicy on;
  on.threads(4).digest(false);
  ExecPolicy off = on;
  off.trace(false).metrics(false);
  auto execute = [&](const CompiledLoop& l, const ExecPolicy& policy) {
    exec::ArrayStore store(l.nest());
    store.fill_pattern();
    ASSERT_TRUE(l.execute(policy, store));
  };

  execute(loop, on);  // builds the entry, traced and counted
  ASSERT_EQ(executor_build_count(), 1);
  ASSERT_GT(runtime_event_count(), 0);
  const i64 tasks = reg.counter("vdep_tasks_total").value();
  ASSERT_GT(tasks, 0);
  rec.clear();
  execute(loop, off);
  EXPECT_EQ(runtime_event_count(), 0);
  EXPECT_EQ(reg.counter("vdep_tasks_total").value(), tasks);
  // Switched back on, the warm run traces again and builds nothing.
  execute(loop, on);
  EXPECT_GT(runtime_event_count(), 0);
  EXPECT_EQ(executor_build_count(), 0);

  // The same through execute_batch, at bounds no run has used yet.
  CompiledLoop other = loop.at(core::example41(96)).value();
  rec.clear();
  ASSERT_EQ(batch_of_six(other, on).size(), 6u);
  ASSERT_EQ(executor_build_count(), 1);
  ASSERT_GT(runtime_event_count(), 0);
  const i64 batch_tasks = reg.counter("vdep_tasks_total").value();
  rec.clear();
  ASSERT_EQ(batch_of_six(other, off).size(), 6u);
  EXPECT_EQ(runtime_event_count(), 0);
  EXPECT_EQ(reg.counter("vdep_tasks_total").value(), batch_tasks);
}

// --------------------------------------------------------------- inspector

// A conflict-free inspection (identity partition) is a typed record: the
// inspect span's chains arg (args[2]) is 0 exactly then, behind the same
// per-run gates as the other inspector stats.
TEST(Inspector, ConflictFreeInspectionIsRecorded) {
  ObsQuiet quiet;
  TraceRecorder& rec = TraceRecorder::instance();
  MetricsRegistry& reg = MetricsRegistry::instance();
  rec.enable();
  reg.enable();
  Compiler compiler;
  CompiledLoop loop = compiler
                          .compile("array A[0:63]\n"
                                   "array B[0:63]\n"
                                   "do i = 0, 63\n"
                                   "  A[B[i]] = A[B[i]] + 7\n"
                                   "enddo\n")
                          .value();
  // Scatters through B[i] = (7i + 3) mod `cells`: a permutation of A at
  // 64 cells, four touchers per cell at 16. Returns the chains arg of the
  // run's inspect span, -1 without one.
  auto run = [&](i64 cells, const ExecPolicy& policy) {
    rec.clear();
    exec::ArrayStore store(loop.nest());
    store.fill_pattern();
    for (i64 i = 0; i <= 63; ++i)
      store.write("B", intlin::Vec{i}, (i * 7 + 3) % cells);
    EXPECT_TRUE(loop.execute(policy, store));
    i64 chains = -1;
    rec.for_each_event([&](std::size_t, const TraceEvent& ev) {
      if (ev.kind == EventKind::kInspect) chains = ev.args[2];
    });
    return chains;
  };
  // vdep_inspector_runs_total is labelled by where the partition came
  // from; `count` sums the family, `runs` reads one label.
  auto runs = [&](const char* inspection) {
    return reg.counter("vdep_inspector_runs_total", "",
                       {"inspection", inspection})
        .value();
  };
  auto count = [&] {
    return runs("fresh") + runs("reused") + runs("reinspected");
  };
  ExecPolicy on;
  on.threads(4).digest(false);
  ExecPolicy off = on;
  off.trace(false).metrics(false);

  EXPECT_EQ(run(64, on), 0);
  EXPECT_NE(rec.chrome_json().find("\"chains\":0"), std::string::npos);
  EXPECT_NE(rec.chrome_json().find("\"inspection\":1"), std::string::npos);
  EXPECT_EQ(count(), 1);
  EXPECT_EQ(runs("fresh"), 1);
  EXPECT_EQ(run(16, on), 16);  // other contents of B: inspected again
  EXPECT_EQ(count(), 2);
  EXPECT_EQ(runs("reinspected"), 1);
  EXPECT_EQ(run(16, on), 16);  // the same contents: the memoized partition
  EXPECT_EQ(count(), 3);
  EXPECT_EQ(runs("reused"), 1);
  EXPECT_NE(reg.prometheus_text().find(
                "vdep_inspector_runs_total{inspection=\"reused\"} 1"),
            std::string::npos);
  EXPECT_EQ(run(64, off), -1);
  EXPECT_EQ(count(), 3);
}

// ------------------------------------------------------------------ phases

TEST(Phases, ExecReportBreakdownCoversWall) {
  ObsQuiet quiet;
  // Aggregated over the paper suite: the phase sum must account for the
  // wall time within 10% (the remainder is unattributed glue).
  // uniform_wavefront's values outgrow int64 at n = 96, and the default
  // kCompiled backend reports that as kOverflow (the interpreter's
  // contract), so it is checked for the typed error and left out of the
  // aggregate.
  i64 wall = 0, phases = 0;
  for (core::NamedNest& c : core::paper_suite(96)) {
    Compiler compiler;
    CompiledLoop loop = compiler.compile(std::move(c.nest)).value();
    exec::ArrayStore store(loop.nest());
    store.fill_pattern();
    ExecPolicy policy;
    policy.threads(2).digest(false);
    Expected<ExecReport> r = loop.execute(policy, store);
    if (c.name == "uniform_wavefront") {
      ASSERT_FALSE(r) << c.name << " did not overflow";
      EXPECT_EQ(r.error().kind, ErrorKind::kOverflow) << c.name;
      continue;
    }
    ASSERT_TRUE(r) << c.name;
    i64 sum = r->analyze_ns + r->codegen_ns + r->jit_compile_ns + r->exec_ns;
    EXPECT_GT(r->exec_ns, 0) << c.name;
    EXPECT_LE(sum, r->wall_ns) << c.name;
    wall += r->wall_ns;
    phases += sum;
  }
  EXPECT_GE(phases, wall - wall / 10) << "phase sum " << phases
                                      << " vs wall " << wall;
}

TEST(Phases, TimerIsInertWithoutScope) {
  // No PhaseScope open on this thread: the timer must not record anywhere.
  { obs::PhaseTimer t(obs::Phase::kExec); }
  obs::PhaseScope scope;
  { obs::PhaseTimer t(obs::Phase::kExec); }
  EXPECT_GE(scope.ns(obs::Phase::kExec), 0);
  EXPECT_EQ(scope.ns(obs::Phase::kParse), 0);
}

// ------------------------------------------------------------------- batch

TEST(Batch, QueueLatencyPopulated) {
  ObsQuiet quiet;
  Compiler compiler;
  CompiledLoop loop = compiler.compile(core::example41(128)).value();
  std::vector<exec::ArrayStore> stores;
  std::vector<exec::ArrayStore*> ptrs;
  for (int k = 0; k < 6; ++k) {
    stores.emplace_back(loop.nest());
    stores.back().fill_pattern();
  }
  for (exec::ArrayStore& s : stores) ptrs.push_back(&s);
  ExecPolicy policy;
  policy.threads(4).digest(false);
  Expected<std::vector<ExecReport>> reps =
      loop.execute_batch(std::span<exec::ArrayStore* const>(ptrs), policy);
  ASSERT_TRUE(reps);
  for (const ExecReport& r : *reps) {
    // queue_ns stamps at least 1 once the request's first descriptor ran.
    EXPECT_GE(r.queue_ns, 1);
    EXPECT_LE(r.queue_ns, r.wall_ns);
    EXPECT_EQ(r.exec_ns, r.wall_ns - r.queue_ns);
  }
}

}  // namespace
}  // namespace vdep
