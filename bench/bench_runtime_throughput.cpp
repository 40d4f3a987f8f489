// E10: materialized vs streaming execution throughput, plus the
// skewed-extent scenario of the N-D descriptor splitter.
//
// The materialized path pays O(total_iterations x depth) memory and build
// time before the first loop body runs; the streaming runtime starts
// executing immediately and its schedule state is a handful of small
// descriptors. At sizes where both fit, streaming must match or beat the
// end-to-end materialized throughput; past ~hundreds of MB of schedule the
// materialized path is not runnable at all and is reported as skipped with
// its estimated footprint.
//
// The skewed-extent rows measure nests whose outer DOALL extent is 1-2 but
// whose inner DOALL extent is huge: the legacy outer-only splitter
// (reproduced with split_dims = 1) cannot feed more workers than the outer
// extent, while N-D boxes split the inner axis. `--gate` (CI bench-smoke
// leg) requires the N-D splitter at 8 workers to beat 1 worker AND the
// single-axis splitter at 8 workers by >= 2x, with all stores bit-identical
// to the sequential reference.
//
// The suite_scaling rows (informational, no gate) run every paper-suite
// kernel at the large bounds of perfbench's large_kernels workload through
// the public API (kJit when a C toolchain exists, else kCompiled) at 1 and
// at default_worker_count() workers, median of 5 interleaved runs each,
// and report speedup_hw_vs_1w: the kernels where parallelism still loses
// to one worker show up below 1.
//
// Output is one JSON object per line (scrapeable into BENCH_*.json):
//   {"bench":"runtime_throughput","name":...,"mode":"streaming","threads":2,
//    "n":250,"iterations":251001,"seconds":...,"iters_per_sec":...,
//    "tasks":...,"steals":...,"sched_bytes":...}
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <string>

#include "api/vdep.h"
#include "bench_common.h"
#include "core/suite.h"
#include "dep/pdm.h"
#include "exec/compiled.h"
#include "exec/interpreter.h"
#include "exec/runner.h"
#include "loopir/builder.h"
#include "obs/trace.h"
#include "runtime/stream_executor.h"
#include "topo/topology.h"
#include "trans/planner.h"

using namespace vdep;
using bench::hw_threads;
using bench::median;
using intlin::i64;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Estimated heap footprint of a materialized Schedule: one std::vector<i64>
// per iteration (header + depth coefficients) plus the per-item vectors.
i64 materialized_bytes(i64 iterations, int depth) {
  return iterations * (static_cast<i64>(sizeof(std::vector<i64>)) + 8 * depth);
}

void emit(const std::string& name, const std::string& mode,
          std::size_t threads, i64 n, i64 iterations, double secs, i64 tasks,
          i64 steals, i64 sched_bytes) {
  std::printf(
      "{\"bench\":\"runtime_throughput\",\"name\":\"%s\",\"mode\":\"%s\","
      "\"threads\":%zu,\"hw_threads\":%zu,\"n\":%lld,\"iterations\":%lld,"
      "\"seconds\":%.6f,"
      "\"iters_per_sec\":%.0f,\"tasks\":%lld,\"steals\":%lld,"
      "\"sched_bytes\":%lld}\n",
      name.c_str(), mode.c_str(), threads, hw_threads(),
      static_cast<long long>(n),
      static_cast<long long>(iterations), secs,
      secs > 0 ? static_cast<double>(iterations) / secs : 0.0,
      static_cast<long long>(tasks), static_cast<long long>(steals),
      static_cast<long long>(sched_bytes));
}

void emit_skipped(const std::string& name, std::size_t threads, i64 n,
                  i64 est_bytes) {
  std::printf(
      "{\"bench\":\"runtime_throughput\",\"name\":\"%s\","
      "\"mode\":\"materialized\",\"threads\":%zu,\"hw_threads\":%zu,"
      "\"n\":%lld,"
      "\"skipped\":\"schedule_too_large\",\"est_sched_bytes\":%lld}\n",
      name.c_str(), threads, hw_threads(), static_cast<long long>(n),
      static_cast<long long>(est_bytes));
}

double run_materialized(const std::string& name, const loopir::LoopNest& nest,
                        const trans::TransformPlan& plan, std::size_t threads,
                        i64 n) {
  ThreadPool pool(threads);
  exec::ArrayStore store(nest);
  store.fill_pattern();
  auto t0 = std::chrono::steady_clock::now();
  exec::Schedule sched = exec::build_schedule(nest, plan);
  exec::execute_schedule_compiled(nest, sched, store, pool);
  double secs = seconds_since(t0);
  i64 iters = sched.total_iterations();
  emit(name, "materialized", threads, n, iters, secs,
       static_cast<i64>(sched.items.size()), 0,
       materialized_bytes(iters, nest.depth()));
  return secs;
}

double run_streaming(const std::string& name, const loopir::LoopNest& nest,
                     const trans::TransformPlan& plan, std::size_t threads,
                     i64 n) {
  runtime::StreamOptions so;
  so.num_threads = threads;
  runtime::StreamExecutor ex(nest, plan, so);
  exec::ArrayStore store(nest);
  store.fill_pattern();
  auto t0 = std::chrono::steady_clock::now();
  runtime::RuntimeStats rs = ex.run(store);
  double secs = seconds_since(t0);
  // Schedule state: the descriptors that ever existed, 32 bytes each.
  emit(name, "streaming", threads, n, rs.total_iterations(), secs,
       rs.total_tasks(), rs.total_steals(),
       rs.total_tasks() * static_cast<i64>(sizeof(runtime::TaskDescriptor)));
  return secs;
}

struct Case {
  const char* name;
  loopir::LoopNest (*make)(i64);
  i64 both_n;       ///< size where materialized and streaming both run
  i64 streaming_n;  ///< size the materialized path cannot hold
};

// ------------------------------------------------- skewed-extent scenario

/// Per-point arithmetic weight: wraps the body value in `rounds` extra
/// multiply-add rounds (e = e*3 - 1, two integer ops each). The base body
/// is one load + one store per point — pure memory traffic — so worker
/// scaling saturates at bandwidth long before it runs out of cores; a few
/// rounds make the point compute-bound and let the scheduler's scaling
/// show. Capped at 24 rounds: |base| < 1.1e6 (value * 3 + index), and
/// 3^24 * 1.1e6 still fits i64, so the compiled kernel never hits signed
/// overflow and stays bit-identical to the interpreter.
constexpr int kMaxFlopsRounds = 24;

loopir::ExprPtr with_flops(loopir::ExprPtr e, int rounds) {
  rounds = std::min(std::max(rounds, 0), kMaxFlopsRounds);
  for (int k = 0; k < rounds; ++k)
    e = loopir::Expr::add(
        loopir::Expr::mul(std::move(e), loopir::Expr::constant(3)),
        loopir::Expr::constant(-1));
  return e;
}

/// skewed_extent with the outer loop collapsed to a single value: the
/// legacy outer-only splitter has exactly one unsplittable descriptor here.
loopir::LoopNest inner_only(i64 n, int flops_per_point = 0) {
  loopir::LoopNestBuilder b;
  b.loop("i1", 0, 0).loop("i2", 0, n);
  b.array("A", {{0, 0}, {0, n}});
  b.array("B", {{0, 0}, {0, n}});
  b.assign(b.ref("A", {b.idx(0), b.idx(1)}),
           with_flops(loopir::Expr::add(
                          loopir::Expr::mul(b.read("B", {b.idx(0), b.idx(1)}),
                                            loopir::Expr::constant(3)),
                          loopir::Expr::index(1)),
                      flops_per_point));
  return b.build();
}

/// core::skewed_extent (outer extent 2, huge inner extent) with the same
/// flops knob.
loopir::LoopNest skewed_two_rows(i64 n, int flops_per_point = 0) {
  loopir::LoopNestBuilder b;
  b.loop("i1", 0, 1).loop("i2", 0, n);
  b.array("A", {{0, 1}, {0, n}});
  b.array("B", {{0, 1}, {0, n}});
  b.assign(b.ref("A", {b.idx(0), b.idx(1)}),
           with_flops(loopir::Expr::add(
                          loopir::Expr::mul(b.read("B", {b.idx(0), b.idx(1)}),
                                            loopir::Expr::constant(3)),
                          loopir::Expr::index(1)),
                      flops_per_point));
  return b.build();
}

/// One timed streaming run; split_dims = 1 reproduces the pre-N-D
/// outer-only splitter as a measured baseline.
double run_streaming_split(const std::string& name, const loopir::LoopNest& nest,
                           const trans::TransformPlan& plan,
                           std::size_t threads, int split_dims, i64 n,
                           int flops_per_point,
                           exec::ArrayStore* final_store = nullptr) {
  runtime::StreamOptions so;
  so.num_threads = threads;
  so.split_dims = split_dims;
  runtime::StreamExecutor ex(nest, plan, so);
  // First-touch placement so multi-worker runs start with each worker's
  // slice on its own node (values identical; only pages move).
  exec::ArrayStore store(nest,
                         threads > 1 ? exec::ArrayStore::Placement::kFirstTouch
                                     : exec::ArrayStore::Placement::kSerial,
                         threads);
  store.fill_pattern();
  auto t0 = std::chrono::steady_clock::now();
  runtime::RuntimeStats rs = ex.run(store);
  double secs = seconds_since(t0);
  std::printf(
      "{\"bench\":\"runtime_throughput\",\"name\":\"%s\",\"mode\":\"%s\","
      "\"threads\":%zu,\"hw_threads\":%zu,\"n\":%lld,\"flops_per_point\":%d,"
      "\"iterations\":%lld,\"seconds\":%.6f,"
      "\"iters_per_sec\":%.0f,\"tasks\":%lld,\"steals\":%lld,"
      "\"inner_splits\":%lld}\n",
      name.c_str(), split_dims == 1 ? "streaming_single_axis" : "streaming",
      threads, hw_threads(), static_cast<long long>(n), flops_per_point,
      static_cast<long long>(rs.total_iterations()), secs,
      secs > 0 ? static_cast<double>(rs.total_iterations()) / secs : 0.0,
      static_cast<long long>(rs.total_tasks()),
      static_cast<long long>(rs.total_steals()),
      static_cast<long long>(rs.total_inner_splits()));
  if (final_store) *final_store = std::move(store);
  return secs;
}

double best_of(int reps, const std::function<double()>& fn) {
  double best = fn();
  for (int k = 1; k < reps; ++k) best = std::min(best, fn());
  return best;
}

/// The skewed-extent rows (always emitted) and the `--gate` checks: N-D
/// splitting at 8 workers must beat both 1 worker and the single-axis
/// baseline at 8 workers by >= 2x, bit-identically.
int run_skewed(bool gate) {
  const i64 n = 1 << 20;
  // Threshold decisions use the cpus this process may actually run on
  // (taskset/cgroup-aware), not the raw hardware count.
  const std::size_t usable = topo::Topology::system().num_cpus();
  const std::size_t threads = 8;
  int failures = 0;

  struct Shape {
    const char* name;
    loopir::LoopNest nest;
    int flops_per_point;
    bool gate_single_axis;  ///< outer extent 1: the baseline is serial
  };
  // The gate shapes carry 8 extra flops rounds per point: the plain body is
  // one load + one store and saturates memory bandwidth at 2-3 workers,
  // which makes a >= 2x-at-8-workers threshold measure the DRAM controller
  // rather than the scheduler.
  Shape shapes[] = {
      {"skewed_extent", skewed_two_rows(n, 8), 8, false},
      {"skewed_inner_only", inner_only(n, 8), 8, true},
  };

  for (Shape& s : shapes) {
    trans::TransformPlan plan = trans::plan_transform(dep::compute_pdm(s.nest));

    exec::ArrayStore ref(s.nest);
    ref.fill_pattern();
    exec::run_sequential(s.nest, ref);

    exec::ArrayStore got_nd(s.nest), got_one(s.nest), got_axis(s.nest);
    const int reps = gate ? 3 : 1;
    double t_one = best_of(reps, [&] {
      return run_streaming_split(s.name, s.nest, plan, 1, 0, n,
                                 s.flops_per_point, &got_one);
    });
    double t_nd = best_of(reps, [&] {
      return run_streaming_split(s.name, s.nest, plan, threads, 0, n,
                                 s.flops_per_point, &got_nd);
    });
    double t_axis = best_of(reps, [&] {
      return run_streaming_split(s.name, s.nest, plan, threads, 1, n,
                                 s.flops_per_point, &got_axis);
    });

    bool identical = ref == got_nd && ref == got_one && ref == got_axis;
    double speedup_workers = t_nd > 0 ? t_one / t_nd : 0.0;
    double speedup_axis = t_nd > 0 ? t_axis / t_nd : 0.0;
    std::printf(
        "{\"bench\":\"runtime_throughput\",\"name\":\"%s\","
        "\"mode\":\"skewed_comparison\",\"threads\":%zu,\"hw_threads\":%zu,"
        "\"n\":%lld,\"flops_per_point\":%d,"
        "\"speedup_8w_vs_1w\":%.3f,\"speedup_vs_single_axis\":%.3f,"
        "\"bit_identical\":%s}\n",
        s.name, threads, hw_threads(), static_cast<long long>(n),
        s.flops_per_point, speedup_workers, speedup_axis,
        identical ? "true" : "false");

    if (!identical) {
      std::fprintf(stderr, "FAIL: %s diverged from the sequential reference\n",
                   s.name);
      ++failures;
    }
    if (!gate) continue;
    // The worker-scaling check needs real cores; the single-axis check only
    // needs the baseline to be (nearly) serial, which outer extent 1
    // guarantees on any machine with >= 2 cores.
    if (usable >= 4 && speedup_workers < 2.0) {
      std::fprintf(stderr,
                   "FAIL: %s 8-worker speedup vs 1 worker %.2fx < 2x\n",
                   s.name, speedup_workers);
      ++failures;
    }
    if (s.gate_single_axis && usable >= 4 && speedup_axis < 2.0) {
      std::fprintf(stderr,
                   "FAIL: %s 8-worker speedup vs single-axis splitter "
                   "%.2fx < 2x\n",
                   s.name, speedup_axis);
      ++failures;
    }
  }
  if (gate && usable < 4) {
    // Structured skip row: scrapers see the gate ran, on what, and why its
    // thresholds did not apply, instead of an absent row.
    std::printf(
        "{\"bench\":\"runtime_throughput\",\"name\":\"speedup_gate\","
        "\"mode\":\"gate_skip\",\"threads\":%zu,\"hw_threads\":%zu,"
        "\"usable_cpus\":%zu,"
        "\"reason\":\"fewer than 4 usable cpus; speedup thresholds skipped, "
        "bit-identity still enforced\"}\n",
        threads, hw_threads(), usable);
    std::fprintf(stderr,
                 "gate: only %zu usable cpu(s); speedup thresholds "
                 "skipped (bit-identity still enforced)\n",
                 usable);
  }
  return failures;
}

// ------------------------------------------------ tracing overhead gate

/// Interleaved comparison of the same streaming run with tracing off and
/// on, on one pool built before any timed run, decided on the median of
/// the per-pair ratios. The recorder is enabled once, outside the timed
/// region, and the off side opts out per run (RunSwitches::trace), the
/// same hoisted-flag path a globally disabled recorder takes; so no timed
/// run registers a trace buffer. The instrumentation is per-leaf/per-split
/// (never per-iteration), so even the *enabled* run must stay within the
/// gate; the disabled configuration does strictly less (one cached-flag
/// branch per site), so passing here bounds the "compiled in but off"
/// overhead from above.
int run_trace_overhead(bool gate) {
  const i64 n = 1 << 22;
  const std::size_t threads = std::min<std::size_t>(hw_threads(), 8);
  loopir::LoopNest nest = inner_only(n);
  trans::TransformPlan plan = trans::plan_transform(dep::compute_pdm(nest));
  runtime::StreamOptions so;
  so.num_threads = threads;
  so.grain = (n + 1) / 2048;  // ~2k leaves: realistic event rate
  runtime::StreamExecutor ex(nest, plan, so);
  ThreadPool pool(threads);

  exec::ArrayStore init(nest);
  init.fill_pattern();
  exec::ArrayStore ref = init;
  exec::run_sequential(nest, ref);

  // One store, reset by copy before each run: no run pays page faults.
  exec::ArrayStore store = init;
  bool identical = true;
  auto time_run = [&](bool trace) {
    store = init;
    runtime::RunSwitches sw;
    sw.trace = trace;
    auto t0 = std::chrono::steady_clock::now();
    ex.run(store, pool, sw);
    double secs = seconds_since(t0);
    identical = identical && ref == store;
    return secs;
  };

  // A pair's ratio swings by 5-9% (MAD) on a shared 4-cpu host, so the
  // median needs on the order of a hundred pairs to sit well inside the
  // 2% bar. Each thread's ring (128Ki events, 10 MiB) holds about its
  // share of every traced run's ~4k events; a thread that serves more
  // runs than most drops its last few thousand (`dropped`), each at the
  // cost of an atomic add instead of the 80-byte event copy.
  obs::TraceRecorder& rec = obs::TraceRecorder::instance();
  rec.enable(std::size_t{1} << 17);
  const bench::Paired p = bench::paired_medians(
      101, [&] { return time_run(false); }, [&] { return time_run(true); });
  const std::size_t events = rec.event_count();
  const std::size_t dropped = rec.dropped_count();
  rec.disable();
  rec.clear();

  const double overhead_pct = (p.ratio - 1.0) * 100.0;
  std::printf(
      "{\"bench\":\"runtime_throughput\",\"name\":\"trace_overhead\","
      "\"mode\":\"trace_overhead\",\"threads\":%zu,\"hw_threads\":%zu,"
      "\"n\":%lld,\"pairs\":%d,\"seconds_trace_off\":%.6f,"
      "\"seconds_trace_on\":%.6f,\"enabled_overhead_pct\":%.2f,"
      "\"overhead_mad_pct\":%.2f,\"events\":%zu,\"dropped\":%zu,"
      "\"bit_identical\":%s,\"gate_pct\":2.0}\n",
      threads, hw_threads(), static_cast<long long>(n), p.pairs, p.a, p.b,
      overhead_pct, p.ratio_mad * 100.0, events, dropped,
      identical ? "true" : "false");

  int failures = 0;
  if (!identical) {
    std::fprintf(stderr,
                 "FAIL: trace_overhead diverged from the sequential "
                 "reference\n");
    ++failures;
  }
  if (gate && overhead_pct > 2.0) {
    std::fprintf(stderr,
                 "FAIL: tracing-enabled run %.2f%% slower than disabled in "
                 "the median of %d pairs (gate 2%%)\n",
                 overhead_pct, p.pairs);
    ++failures;
  }
  return failures;
}

// ------------------------------------------------------ suite scaling rows

/// perfbench's large_kernels bounds per suite kernel (perfbench.cpp
/// large_bound), so these rows time the same shapes per kernel.
i64 large_bound(const std::string& name) {
  static const std::map<std::string, i64> sizes = {
      {"example_4_1", 150},         {"example_4_2", 400},
      {"uniform_wavefront", 20},    {"uniform_blocked", 400},
      {"zero_column", 400},         {"parity_independent", 400},
      {"sequential_chain", 300000}, {"variable_3deep", 24},
      {"triangular_uniform", 400},  {"matmul_reduction", 64},
      {"skewed_extent", 200000},
  };
  return sizes.at(name);
}

/// One suite_scaling row per paper-suite kernel: 1 vs hw workers through
/// CompiledLoop::execute on the session pool, 5 interleaved timed runs per
/// worker count after one warm-up each (JIT build, executable memo, page
/// faults), each on a fresh copy of the pattern-filled store.
void run_suite_scaling() {
  constexpr int kReps = 5;
  const std::size_t hw = hw_threads();
  Compiler compiler(CompileOptions{}.pool_threads(hw));
  ThreadPool& pool = compiler.pool();
  for (const core::NamedNest& named : core::paper_suite(1)) {
    const i64 n = large_bound(named.name);
    loopir::LoopNest nest;
    for (core::NamedNest& c : core::paper_suite(n))
      if (c.name == named.name) nest = std::move(c.nest);
    CompiledLoop loop = compiler.compile(nest).value();
    exec::ArrayStore init(nest);
    init.fill_pattern();
    ExecReport last;
    auto time_run = [&](std::size_t threads) {
      exec::ArrayStore store = init;
      const ExecPolicy policy =
          ExecPolicy{}.threads(threads).backend(ExecBackend::kJit).digest(false);
      auto t0 = std::chrono::steady_clock::now();
      last = loop.execute(policy, store, pool).value();
      return seconds_since(t0) * 1e3;
    };
    time_run(1);
    time_run(hw);
    std::vector<double> one, many;
    for (int k = 0; k < kReps; ++k) {
      one.push_back(time_run(1));
      many.push_back(time_run(hw));
    }
    const double ms_1w = median(one), ms_hw = median(many);
    std::printf(
        "{\"bench\":\"runtime_throughput\",\"name\":\"%s\","
        "\"mode\":\"suite_scaling\",\"backend\":\"%s\",\"threads\":%zu,"
        "\"hw_threads\":%zu,\"n\":%lld,\"iterations\":%lld,\"reps\":%d,"
        "\"ms_1w\":%.4f,\"ms_hw\":%.4f,\"speedup_hw_vs_1w\":%.3f,"
        "\"workers_used_hw\":%lld,\"tasks_hw\":%lld}\n",
        named.name.c_str(), last.jit ? "jit" : "compiled", hw, hw,
        static_cast<long long>(n),
        static_cast<long long>(nest.iteration_count()), kReps, ms_1w, ms_hw,
        ms_hw > 0 ? ms_1w / ms_hw : 0.0,
        static_cast<long long>(last.workers_used),
        static_cast<long long>(last.tasks));
  }
}

}  // namespace

int main(int argc, char** argv) {
  // `--gate`: run only the skewed-extent scenario with its >= 2x checks
  // (CI bench-smoke leg). `--trace-overhead-gate`: interleaved tracing
  // on/off pairs, whose median ratio must stay within 2%. Otherwise an
  // optional scale factor (default 1): ./bench_runtime_throughput 2
  if (argc > 1 && std::strcmp(argv[1], "--gate") == 0)
    return run_skewed(/*gate=*/true) == 0 ? 0 : 1;
  if (argc > 1 && std::strcmp(argv[1], "--trace-overhead-gate") == 0)
    return run_trace_overhead(/*gate=*/true) == 0 ? 0 : 1;
  i64 scale = argc > 1 ? std::max(1L, std::atol(argv[1])) : 1;
  const std::size_t hw = hw_threads();

  const Case cases[] = {
      {"example_4_2", &core::example42, 250, 2000 * scale},
      {"matmul_reduction", &core::matmul_reduction, 48, 250 * scale},
  };

  for (const Case& c : cases) {
    loopir::LoopNest nest = c.make(c.both_n);
    trans::TransformPlan plan = trans::plan_transform(dep::compute_pdm(nest));
    for (std::size_t threads : {std::size_t{1}, hw}) {
      double mat = run_materialized(c.name, nest, plan, threads, c.both_n);
      double str = run_streaming(c.name, nest, plan, threads, c.both_n);
      std::printf(
          "{\"bench\":\"runtime_throughput\",\"name\":\"%s\","
          "\"mode\":\"comparison\",\"threads\":%zu,\"hw_threads\":%zu,"
          "\"n\":%lld,"
          "\"streaming_speedup\":%.3f}\n",
          c.name, threads, hw_threads(), static_cast<long long>(c.both_n),
          str > 0 ? mat / str : 0.0);
      if (threads == hw && hw == 1) break;  // avoid duplicate rows
    }

    // The size the materialized path cannot hold: streaming only.
    loopir::LoopNest big = c.make(c.streaming_n);
    trans::TransformPlan big_plan =
        trans::plan_transform(dep::compute_pdm(big));
    emit_skipped(c.name, hw, c.streaming_n,
                 materialized_bytes(big.iteration_count(), big.depth()));
    run_streaming(c.name, big, big_plan, hw, c.streaming_n);
  }

  run_skewed(/*gate=*/false);
  run_trace_overhead(/*gate=*/false);
  run_suite_scaling();
  return 0;
}
