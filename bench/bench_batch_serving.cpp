// Batch serving throughput: execute_batch vs loop-at-a-time execute().
//
// The serving scenario from the ROADMAP: one structure analyzed once, then
// many requests at assorted bounds driving one thread pool. The baseline
// runs the requests serially, each through a full CompiledLoop::execute()
// (one fork/join per request, parallelism limited to what a single small
// request exposes). The batch path hands all requests to execute_batch,
// which drives every request's descriptors as sources of one
// work-stealing run (runtime/driver.h): one fork/join per *batch* and the
// whole batch's parallelism keeping the workers fed.
//
// Output is one JSON object per line (scraped into BENCH_runtime.json):
//   {"bench":"batch_serving","scenario":...,"mode":"baseline|batch",
//    "requests":...,"threads":...,"n":...,"seconds":...,"requests_per_sec":...}
// plus a comparison line per scenario, an `outside_run` line per scenario
// and worker count (1 and hw_threads()): the median of execute_batch's
// wall time minus the run's own, the time a batch spends outside its run,
// and a final ALL line.
//
// `--gate` exits non-zero unless the 64-request same-structure serving
// scenario (small requests, kJit backend, report digest off — the
// configuration a server would run) shows >= 2.0x requests/sec over the
// baseline, every request actually ran natively, and every per-request
// final store is bit-identical to its loop-at-a-time twin.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "api/vdep.h"
#include "bench_common.h"
#include "core/suite.h"
#include "support/thread_pool.h"

using namespace vdep;
using bench::hw_threads;
using bench::median;
using intlin::i64;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Measure {
  double seconds = 0;
  i64 requests = 0;
  std::vector<i64> checksums;  ///< of the last repetition, request order
  bool ok = true;
  std::string error;

  double rps() const {
    return seconds > 0 ? static_cast<double>(requests) / seconds : 0.0;
  }
};

void emit(const char* scenario, const char* mode, std::size_t threads, i64 n,
          const Measure& m) {
  std::printf(
      "{\"bench\":\"batch_serving\",\"scenario\":\"%s\",\"mode\":\"%s\","
      "\"requests\":%lld,\"threads\":%zu,\"hw_threads\":%zu,\"n\":%lld,"
      "\"seconds\":%.6f,"
      "\"requests_per_sec\":%.0f}\n",
      scenario, mode, static_cast<long long>(m.requests), threads,
      hw_threads(), static_cast<long long>(n), m.seconds, m.rps());
}

// Runs `body(checksums)` repeatedly (each repetition = one full pass over
// all `per_rep` requests) until >= min_seconds of measured time or
// max_reps, accumulating request count and time.
template <typename Body>
Measure repeat(i64 per_rep, double min_seconds, int max_reps, Body&& body) {
  Measure m;
  for (int rep = 0; rep < max_reps && m.seconds < min_seconds; ++rep) {
    m.checksums.clear();
    auto t0 = Clock::now();
    if (!body(m.checksums)) {
      m.ok = false;
      m.error = "request failed";
      return m;
    }
    m.seconds += seconds_since(t0);
    m.requests += per_rep;
  }
  return m;
}

/// The batch time outside the run: execute_batch's wall time minus the
/// run's own makespan (the batch's latest ExecReport::wall_ns, run start
/// to last retirement), so binding, seeding, the hand-off to the workers,
/// their release and the reports. `batch(policy)` runs one batch and
/// returns its reports; `reset()` runs off the clock before each. Prints
/// the median over 31 batches at 1 and at `threads` workers, interleaved.
template <typename Reset, typename Batch>
void emit_outside_run(const char* scenario, const ExecPolicy& policy,
                      std::size_t threads, Reset&& reset, Batch&& batch) {
  constexpr int kReps = 31;
  std::vector<std::size_t> counts = {1};
  if (threads > 1) counts.push_back(threads);
  std::vector<std::vector<double>> outside(counts.size());
  std::vector<std::vector<double>> wall(counts.size());
  for (int rep = 0; rep <= kReps; ++rep) {
    for (std::size_t c = 0; c < counts.size(); ++c) {
      ExecPolicy p = policy;
      p.threads(counts[c]);
      reset();
      const auto t0 = Clock::now();
      Expected<std::vector<ExecReport>> r = batch(p);
      const double ms = seconds_since(t0) * 1e3;
      if (!r || rep == 0) continue;  // rep 0 warms each worker count
      i64 run_ns = 0;
      for (const ExecReport& req : *r) run_ns = std::max(run_ns, req.wall_ns);
      outside[c].push_back(ms - static_cast<double>(run_ns) * 1e-6);
      wall[c].push_back(ms);
    }
  }
  for (std::size_t c = 0; c < counts.size(); ++c)
    std::printf(
        "{\"bench\":\"batch_serving\",\"scenario\":\"%s\","
        "\"mode\":\"outside_run\",\"threads\":%zu,\"hw_threads\":%zu,"
        "\"reps\":%zu,\"batch_ms_p50\":%.4f,\"outside_run_ms_p50\":%.4f}\n",
        scenario, counts[c], hw_threads(), outside[c].size(),
        median(wall[c]), median(outside[c]));
}

}  // namespace

int main(int argc, char** argv) {
  bool gate = false;
  for (int k = 1; k < argc; ++k)
    if (std::strcmp(argv[k], "--gate") == 0) gate = true;

  // Serving worker-pool size: the host's real thread count. Forcing 4+
  // contexts on a 1-2 core host oversubscribes every measured mode and
  // quietly distorts the baseline-vs-batch comparison; the row's
  // hw_threads field is what makes small-host numbers interpretable.
  const std::size_t threads = hw_threads();
  const int reqs = 64;
  const i64 n = 32;  // example41: (2n+1)^2 iterations per request
  Compiler compiler(CompileOptions{}.pool_threads(threads));
  ThreadPool& pool = compiler.pool();
  ExecPolicy policy;
  policy.threads(threads);

  bool gate_ok = true;
  double gate_speedup = 0;

  // ---------------------------------- scenario 1: same structure, same
  // bounds, caller-owned stores, default backend + digest (end-to-end
  // serving cost; informative)
  {
    CompiledLoop loop = compiler.compile(core::example41(n)).value();
    exec::ArrayStore base(loop.nest());
    base.fill_pattern();

    // One store per request, reset by copy-assign from `base` at the top
    // of every repetition — inside the timed body for both modes, so the
    // comparison isolates execution strategy, not setup.
    std::vector<exec::ArrayStore> stores(static_cast<std::size_t>(reqs), base);
    auto reset = [&] {
      for (auto& s : stores) s = base;
    };

    Measure baseline = repeat(reqs, 0.2, 50, [&](std::vector<i64>& sums) {
      reset();
      for (auto& s : stores) {
        Expected<ExecReport> r = loop.execute(policy, s, pool);
        if (!r) return false;
        sums.push_back(r->checksum);
      }
      return true;
    });
    Measure batch = repeat(reqs, 0.2, 50, [&](std::vector<i64>& sums) {
      reset();
      std::vector<exec::ArrayStore*> ptrs;
      ptrs.reserve(stores.size());
      for (auto& s : stores) ptrs.push_back(&s);
      Expected<std::vector<ExecReport>> r = loop.execute_batch(ptrs, policy, pool);
      if (!r) return false;
      for (const ExecReport& rep : *r) sums.push_back(rep.checksum);
      return true;
    });

    emit("same_structure_64", "baseline", threads, n, baseline);
    emit("same_structure_64", "batch", threads, n, batch);
    std::vector<exec::ArrayStore*> ptrs;
    for (auto& s : stores) ptrs.push_back(&s);
    emit_outside_run("same_structure_64", policy, threads, reset,
                     [&](const ExecPolicy& p) {
                       return loop.execute_batch(ptrs, p, pool);
                     });
    bool identical = baseline.ok && batch.ok &&
                     baseline.checksums == batch.checksums;
    double speedup =
        baseline.rps() > 0 ? batch.rps() / baseline.rps() : 0.0;
    std::printf(
        "{\"bench\":\"batch_serving\",\"scenario\":\"same_structure_64\","
        "\"mode\":\"comparison\",\"requests\":%d,\"threads\":%zu,"
        "\"hw_threads\":%zu,\"n\":%lld,"
        "\"speedup\":%.3f,\"checksum_identical\":%s}\n",
        reqs, threads, hw_threads(), static_cast<long long>(n), speedup,
        identical ? "true" : "false");
    if (!identical) gate_ok = false;
  }

  // ---------------------------------- gate scenario: small same-structure
  // requests through the JIT backend with the report digest off — the
  // serving configuration (one .so shared across the batch, no per-request
  // store scan). Verification happens outside the timed region by a full
  // bitwise store comparison between the two modes.
  {
    const i64 gn = 4;  // 9x9 iterations: request cost is dominated by
                       // per-request setup, which is what batching amortizes
    CompiledLoop loop = compiler.compile(core::example41(gn)).value();
    ExecPolicy gp = policy;
    gp.backend(ExecBackend::kJit).digest(false);
    exec::ArrayStore base(loop.nest());
    base.fill_pattern();
    std::vector<exec::ArrayStore> stores(static_cast<std::size_t>(reqs), base);
    std::vector<exec::ArrayStore*> ptrs;
    ptrs.reserve(stores.size());
    for (auto& s : stores) ptrs.push_back(&s);
    auto reset = [&] {
      for (auto& s : stores) s = base;
    };

    // Warmup resolves (and memoizes) the .so once, off the clock, for
    // both modes — steady-state serving throughput is what the gate
    // compares, exactly like bench_jit_speedup.
    reset();
    bool native = true;
    {
      Expected<std::vector<ExecReport>> r = loop.execute_batch(ptrs, gp, pool);
      if (!r) {
        native = false;
      } else {
        for (const ExecReport& rep : *r) native = native && rep.jit;
      }
    }

    Measure baseline = repeat(reqs, 0.2, 200, [&](std::vector<i64>&) {
      reset();
      for (auto& s : stores)
        if (!loop.execute(gp, s, pool)) return false;
      return true;
    });
    // Keep the baseline's final stores for the bitwise comparison.
    std::vector<exec::ArrayStore> baseline_stores = stores;

    Measure batch = repeat(reqs, 0.2, 200, [&](std::vector<i64>&) {
      reset();
      return loop.execute_batch(ptrs, gp, pool).has_value();
    });

    bool identical = baseline.ok && batch.ok;
    for (std::size_t k = 0; identical && k < stores.size(); ++k)
      identical = stores[k] == baseline_stores[k];

    emit("same_structure_64_jit", "baseline", threads, gn, baseline);
    emit("same_structure_64_jit", "batch", threads, gn, batch);
    emit_outside_run("same_structure_64_jit", gp, threads, reset,
                     [&](const ExecPolicy& p) {
                       return loop.execute_batch(ptrs, p, pool);
                     });
    double speedup =
        baseline.rps() > 0 ? batch.rps() / baseline.rps() : 0.0;
    std::printf(
        "{\"bench\":\"batch_serving\",\"scenario\":\"same_structure_64_jit\","
        "\"mode\":\"comparison\",\"requests\":%d,\"threads\":%zu,"
        "\"hw_threads\":%zu,\"n\":%lld,"
        "\"speedup\":%.3f,\"native\":%s,\"store_identical\":%s,\"gate\":2.0}"
        "\n",
        reqs, threads, hw_threads(), static_cast<long long>(gn), speedup,
        native ? "true" : "false", identical ? "true" : "false");
    gate_ok = gate_ok && baseline.ok && batch.ok && native && identical &&
              speedup >= 2.0;
    gate_speedup = speedup;
  }

  // ---------------------------------- scenario 2: same structure, mixed
  // bounds (plan-cache serving: one artifact, 64 sizes)
  {
    CompiledLoop loop = compiler.compile(core::example41(16)).value();
    std::vector<loopir::LoopNest> bounds;
    for (int k = 0; k < reqs; ++k)
      bounds.push_back(core::example41(16 + (k % 24)));

    Measure baseline = repeat(reqs, 0.2, 20, [&](std::vector<i64>& sums) {
      for (const loopir::LoopNest& b : bounds) {
        Expected<CompiledLoop> h = loop.at(b);
        if (!h) return false;
        exec::ArrayStore store(h->nest());
        store.fill_pattern();
        Expected<ExecReport> r = h->execute(policy, store, pool);
        if (!r) return false;
        sums.push_back(r->checksum);
      }
      return true;
    });
    Measure batch = repeat(reqs, 0.2, 20, [&](std::vector<i64>& sums) {
      Expected<std::vector<ExecReport>> r =
          loop.execute_batch(bounds, policy, pool);
      if (!r) return false;
      for (const ExecReport& rep : *r) sums.push_back(rep.checksum);
      return true;
    });

    emit("mixed_bounds_64", "baseline", threads, 16, baseline);
    emit("mixed_bounds_64", "batch", threads, 16, batch);
    emit_outside_run("mixed_bounds_64", policy, threads, [] {},
                     [&](const ExecPolicy& p) {
                       return loop.execute_batch(bounds, p, pool);
                     });
    std::printf(
        "{\"bench\":\"batch_serving\",\"scenario\":\"mixed_bounds_64\","
        "\"mode\":\"comparison\",\"requests\":%d,\"threads\":%zu,"
        "\"hw_threads\":%zu,"
        "\"speedup\":%.3f,\"checksum_identical\":%s}\n",
        reqs, threads, hw_threads(),
        baseline.rps() > 0 ? batch.rps() / baseline.rps() : 0.0,
        (baseline.ok && batch.ok && baseline.checksums == batch.checksums)
            ? "true"
            : "false");
  }

  // ---------------------------------- scenario 3: mixed structures via
  // compile_all + free execute_batch (the whole suite as one batch)
  {
    std::vector<loopir::LoopNest> nests;
    for (core::NamedNest& c : core::paper_suite(24))
      if (c.name != "uniform_wavefront")  // binomial growth: overflow risk
        nests.push_back(c.nest);
    // Duplicate the set so the batch dedups structures 4:1.
    std::vector<loopir::LoopNest> batch_nests;
    for (int rep = 0; rep < 4; ++rep)
      for (const loopir::LoopNest& nn : nests) batch_nests.push_back(nn);

    CacheStats before = compiler.cache_stats();
    Expected<std::vector<CompiledLoop>> loops = compiler.compile_all(batch_nests);
    CacheStats after = compiler.cache_stats();
    if (!loops) {
      std::printf(
          "{\"bench\":\"batch_serving\",\"scenario\":\"mixed_structures\","
          "\"hw_threads\":%zu,\"error\":\"%s\"}\n",
          hw_threads(), loops.error().to_string().c_str());
      return gate && !gate_ok ? 1 : 0;
    }
    std::printf(
        "{\"bench\":\"batch_serving\",\"scenario\":\"mixed_structures\","
        "\"mode\":\"compile_all\",\"requests\":%zu,\"hw_threads\":%zu,"
        "\"analyses\":%lld,"
        "\"cache_hits\":%lld}\n",
        batch_nests.size(), hw_threads(),
        static_cast<long long>(after.misses - before.misses),
        static_cast<long long>(after.hits - before.hits));

    const i64 per_rep = static_cast<i64>(loops->size());
    Measure baseline = repeat(per_rep, 0.2, 20, [&](std::vector<i64>& sums) {
      for (const CompiledLoop& h : *loops) {
        exec::ArrayStore store(h.nest());
        store.fill_pattern();
        Expected<ExecReport> r = h.execute(policy, store, pool);
        if (!r) return false;
        sums.push_back(r->checksum);
      }
      return true;
    });
    Measure batch = repeat(per_rep, 0.2, 20, [&](std::vector<i64>& sums) {
      std::vector<BatchRequest> reqs2;
      reqs2.reserve(loops->size());
      for (const CompiledLoop& h : *loops)
        reqs2.push_back(BatchRequest{h, nullptr});
      Expected<std::vector<ExecReport>> r =
          vdep::execute_batch(reqs2, policy, pool);
      if (!r) return false;
      for (const ExecReport& rep : *r) sums.push_back(rep.checksum);
      return true;
    });

    emit("mixed_structures", "baseline", threads, 24, baseline);
    emit("mixed_structures", "batch", threads, 24, batch);
    std::vector<BatchRequest> all;
    for (const CompiledLoop& h : *loops)
      all.push_back(BatchRequest{h, nullptr});
    emit_outside_run("mixed_structures", policy, threads, [] {},
                     [&](const ExecPolicy& p) {
                       return vdep::execute_batch(all, p, pool);
                     });
    std::printf(
        "{\"bench\":\"batch_serving\",\"scenario\":\"mixed_structures\","
        "\"mode\":\"comparison\",\"requests\":%lld,\"threads\":%zu,"
        "\"hw_threads\":%zu,"
        "\"speedup\":%.3f,\"checksum_identical\":%s}\n",
        static_cast<long long>(per_rep), threads, hw_threads(),
        baseline.rps() > 0 ? batch.rps() / baseline.rps() : 0.0,
        (baseline.ok && batch.ok && baseline.checksums == batch.checksums)
            ? "true"
            : "false");
  }

  // ---------------------------------- scenario 4: the kCompiled body's
  // cost per iteration on every suite kernel at its largest serving bound
  // (40; 20 for uniform_wavefront, whose values leave int64 past ~28, and
  // 12 for variable_3deep, whose array grows as (10n)^2 * n), one worker,
  // digest off. Repetitions interleave the kernels round-robin; each row is
  // the median of exec_ns / iterations over them and its median absolute
  // deviation (the run-to-run swing on a shared host), with the iterations
  // the body ran as columns (ExecReport::column_iterations).
  // Informational.
  {
    constexpr int kReps = 15;
    struct Row {
      std::string name;
      i64 n = 0;
      CompiledLoop loop;
      exec::ArrayStore base;
      std::vector<double> ns;
      ExecReport last;
      bool ok = true;
    };
    std::vector<Row> rows;
    for (core::NamedNest& c : core::paper_suite(40)) {
      const i64 cap = c.name == "uniform_wavefront" ? 20
                      : c.name == "variable_3deep"  ? 12
                                                    : 40;
      loopir::LoopNest nest = cap == 40 ? std::move(c.nest)
                              : c.name == "uniform_wavefront"
                                  ? core::uniform_wavefront(cap)
                                  : core::variable_3deep(cap);
      CompiledLoop loop = compiler.compile(nest).value();
      exec::ArrayStore base(loop.nest());
      base.fill_pattern();
      rows.push_back(
          {c.name, cap, std::move(loop), std::move(base), {}, {}, true});
    }
    ExecPolicy cp;
    cp.threads(1).backend(ExecBackend::kCompiled).digest(false);
    for (int rep = 0; rep < kReps; ++rep) {
      for (Row& r : rows) {
        exec::ArrayStore store = r.base;
        Expected<ExecReport> rep_or = r.loop.execute(cp, store);
        if (!rep_or || rep_or->iterations == 0) {
          r.ok = false;
          continue;
        }
        r.last = *rep_or;
        r.ns.push_back(static_cast<double>(rep_or->exec_ns) /
                       static_cast<double>(rep_or->iterations));
      }
    }
    for (Row& r : rows) {
      const double med = median(r.ns);
      std::vector<double> dev;
      for (double x : r.ns) dev.push_back(std::abs(x - med));
      std::printf(
          "{\"bench\":\"batch_serving\",\"scenario\":\"compiled_ns_per_iter\","
          "\"kernel\":\"%s\",\"threads\":1,\"hw_threads\":%zu,"
          "\"n\":%lld,\"reps\":%d,\"iterations\":%lld,"
          "\"column_iterations\":%lld,\"ns_per_iter_p50\":%.2f,"
          "\"ns_per_iter_mad\":%.2f,\"ok\":%s}\n",
          r.name.c_str(), hw_threads(), static_cast<long long>(r.n), kReps,
          static_cast<long long>(r.last.iterations),
          static_cast<long long>(r.last.column_iterations), med, median(dev),
          r.ok ? "true" : "false");
    }
  }

  std::printf(
      "{\"bench\":\"batch_serving\",\"scenario\":\"ALL\",\"threads\":%zu,"
      "\"hw_threads\":%zu,"
      "\"gate_scenario_speedup\":%.2f,\"gate\":2.0,\"gate_ok\":%s}\n",
      threads, hw_threads(), gate_speedup, gate_ok ? "true" : "false");

  if (gate && !gate_ok) {
    std::fprintf(stderr,
                 "batch serving gate FAILED: speedup=%.2f (need >= 2.0 with "
                 "identical checksums)\n",
                 gate_speedup);
    return 1;
  }
  return 0;
}
