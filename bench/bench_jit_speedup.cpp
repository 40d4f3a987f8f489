// Interpreter vs JIT streaming throughput across the paper suite.
//
// Both backends run the identical streaming runtime (same descriptors,
// same work stealing); only leaf execution differs: the interpreter
// backend walks expression trees per iteration, the JIT backend hands each
// descriptor rectangle to a dlopen-ed native kernel compiled from
// emit_c_range_kernel by the system toolchain. The postfix CompiledKernel
// backend (the streaming default) is measured too, as the middle point.
//
// Output is one JSON object per line (scraped into BENCH_runtime.json):
//   {"bench":"jit_speedup","name":...,"backend":"interpreter|compiled|jit",
//    "threads":...,"n":...,"iterations":...,"seconds":...,"iters_per_sec":...}
// plus a per-kernel comparison line and a final ALL geomean line.
//
// `--gate` exits non-zero unless every suite kernel actually ran natively
// (no silent fallback) with a bit-identical checksum and the geomean
// JIT-vs-interpreter speedup is >= 2.0 — the acceptance bar of the JIT PR.
//
// `--partition-gate` instead compares the verified steady-state partitioned
// kernel (-O3, clamp-free steady region; its side passes -march=native
// through JitOptions::extra_flags, which a kernel the verifier refuses
// gets too) against the clamped JIT baseline (-O2) over
// steady-state-shaped nests plus the partitioning suite kernels, timing
// each request's kernel run (ExecReport::exec_ns; the store digest that
// feeds the checksum compare is left out): geomean >= 1.3, every
// partitioned run must actually take
// the partitioned fast path, and every checksum must be bit-identical to
// the clamped run. Hosts without a vector ISA (no AVX2 on x86, non-NEON)
// emit a skip line and exit 0 — the comparison is meaningless there.
// `--cold-start-gate` measures what the on-disk artifact cache buys a fresh
// process: session A populates an empty cache directory (cold: full
// analysis + cc subprocess), session B re-runs the same suite against the
// warm directory with cold in-memory state. The gate fails unless session B
// invoked cc exactly zero times (counter-verified via vdep_jit_builds_total)
// and produced bit-identical checksums.
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "api/vdep.h"
#include "bench_common.h"
#include "core/suite.h"
#include "jit/toolchain.h"
#include "loopir/builder.h"
#include "obs/metrics.h"

using namespace vdep;
using bench::hw_threads;
using intlin::i64;

namespace {

struct Sample {
  i64 iterations = 0;
  double seconds = 0;
  i64 checksum = 0;
  bool jit = false;
  bool ok = false;
  std::string error;
};

// Accumulates execute() runs (each from a fresh pattern-filled store) until
// the measured time is stable enough to compare: >= `min_seconds` or
// `max_reps`. Timing uses the report's own wall_ns, so store setup between
// repetitions is excluded.
Sample run_backend(const CompiledLoop& loop, ExecBackend backend,
                   std::size_t threads, double min_seconds, int max_reps) {
  Sample s;
  exec::ArrayStore base(loop.nest());
  base.fill_pattern();
  {
    // Warmup rep, untimed: the first kJit execute pays the toolchain
    // (~tens of ms); steady-state throughput is what the gate compares —
    // the amortization itself is bench_plan_cache / jit_test territory.
    exec::ArrayStore store = base;
    ExecPolicy policy;
    policy.threads(threads).backend(backend);
    Expected<ExecReport> r = loop.execute(policy, store);
    if (!r) {
      s.error = r.error().to_string();
      return s;
    }
  }
  for (int rep = 0; rep < max_reps && s.seconds < min_seconds; ++rep) {
    exec::ArrayStore store = base;
    ExecPolicy policy;
    policy.threads(threads).backend(backend);
    Expected<ExecReport> r = loop.execute(policy, store);
    if (!r) {
      s.error = r.error().to_string();
      return s;
    }
    s.iterations += r->iterations;
    s.seconds += static_cast<double>(r->wall_ns) * 1e-9;
    s.checksum = r->checksum;
    s.jit = r->jit;
  }
  s.ok = true;
  return s;
}

void emit(const std::string& name, const char* backend, std::size_t threads,
          i64 n, const Sample& s) {
  std::printf(
      "{\"bench\":\"jit_speedup\",\"name\":\"%s\",\"backend\":\"%s\","
      "\"hw_threads\":%zu,"
      "\"threads\":%zu,\"n\":%lld,\"iterations\":%lld,\"seconds\":%.6f,"
      "\"iters_per_sec\":%.0f,\"jit\":%s}\n",
      name.c_str(), backend, hw_threads(), threads, static_cast<long long>(n),
      static_cast<long long>(s.iterations), s.seconds,
      s.seconds > 0 ? static_cast<double>(s.iterations) / s.seconds : 0.0,
      s.jit ? "true" : "false");
}

double throughput(const Sample& s) {
  return s.seconds > 0 ? static_cast<double>(s.iterations) / s.seconds : 0.0;
}

// ---------------------------------------------------------- partition gate

// The partitioned kernel's steady-region advantage is vectorization of the
// constant-trip inner loops; without a vector ISA the -O3/-march=native vs
// -O2 comparison measures nothing the pass controls.
bool vector_isa_available() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2");
#elif defined(__aarch64__)
  return true;  // NEON is baseline on AArch64
#else
  return false;
#endif
}

// Ramp nest — the steady-state motif: i in [0,n], j in [0, min(w, i)].
// Dependence-free, so both levels are DOALL; the partition pass proves the
// steady sub-range i in [w, n] where the j clamp is the identity and the
// inner loop runs a constant w+1 trips.
loopir::LoopNest ramp_nest(i64 n, i64 w) {
  loopir::LoopNestBuilder b;
  b.loop("i", 0, n);
  loopir::Bound up = loopir::Bound::constant(2, w);
  up.add_term({loopir::AffineExpr(intlin::Vec{1, 0}, 0), 1});
  b.loop("j", loopir::Bound(loopir::AffineExpr::constant(2, 0)), up);
  b.array("A", {{0, n}, {0, w}});
  b.array("B", {{0, n}, {0, w}});
  b.assign(b.ref("A", {b.idx(0), b.idx(1)}),
           loopir::Expr::add(
               b.read("A", {b.idx(0), b.idx(1)}),
               loopir::Expr::mul(b.read("B", {b.idx(0), b.idx(1)}),
                                 loopir::Expr::constant(3))));
  return b.build();
}

Sample run_jit(const CompiledLoop& loop, const jit::JitOptions& jo,
               std::size_t threads, double min_seconds, int max_reps,
               bool* partitioned) {
  Sample s;
  exec::ArrayStore base(loop.nest());
  base.fill_pattern();
  *partitioned = false;
  for (int rep = -1; rep < max_reps && s.seconds < min_seconds; ++rep) {
    exec::ArrayStore store = base;
    ExecPolicy policy;
    policy.threads(threads).backend(ExecBackend::kJit).jit_options(jo);
    Expected<ExecReport> r = loop.execute(policy, store);
    if (!r) {
      s.error = r.error().to_string();
      return s;
    }
    s.jit = r->jit;
    *partitioned = r->jit_partitioned;
    if (rep < 0) continue;  // warmup rep pays the toolchain, untimed
    // The kernel run alone: wall_ns also holds the store digest (about
    // 48 MB per array on the ramps), the same on both sides, which would
    // pull every ratio toward 1. The digest stays on for the checksums.
    s.iterations += r->iterations;
    s.seconds += static_cast<double>(r->exec_ns) * 1e-9;
    s.checksum = r->checksum;
  }
  s.ok = true;
  return s;
}

int partition_gate_main(bool gate) {
  const std::size_t threads = hw_threads();
  if (!vector_isa_available()) {
    std::printf(
        "{\"bench\":\"jit_speedup\",\"mode\":\"partition_gate\","
        "\"name\":\"ALL\",\"hw_threads\":%zu,\"skipped\":true,"
        "\"reason\":\"no vector ISA (AVX2/NEON) on this host\"}\n",
        hw_threads());
    return 0;
  }

  // Steady-state ramps across inner widths (vector-register to L1-sized
  // rows) plus every suite kernel whose plan partitions. Sizes aim at a few
  // million iterations per run so a single rep is already measurable.
  struct GateNest {
    std::string name;
    loopir::LoopNest nest;
  };
  std::vector<GateNest> cases;
  for (auto [w, n] : std::vector<std::pair<i64, i64>>{
           {16, 350000}, {32, 180000}, {64, 90000}, {128, 46000}})
    cases.push_back({"ramp_w" + std::to_string(w), ramp_nest(n, w)});
  const std::map<std::string, i64> suite_sizes = {{"matmul_reduction", 120},
                                                  {"example_4_1", 1200}};
  for (const auto& [name, n] : suite_sizes)
    for (core::NamedNest& c : core::paper_suite(n))
      if (c.name == name) cases.push_back({name, c.nest});

  Compiler compiler;
  double log_sum = 0;
  int kernels = 0, fallbacks = 0, mismatches = 0;
  for (const GateNest& c : cases) {
    Expected<CompiledLoop> loop = compiler.compile(c.nest);
    if (!loop) {
      std::printf(
          "{\"bench\":\"jit_speedup\",\"mode\":\"partition_gate\","
          "\"name\":\"%s\",\"hw_threads\":%zu,\"error\":\"%s\"}\n",
          c.name.c_str(), hw_threads(), loop.error().to_string().c_str());
      ++fallbacks;
      continue;
    }
    jit::JitOptions clamped_opts;
    clamped_opts.partition = false;
    jit::JitOptions part_opts;
    part_opts.extra_flags = "-march=native";
    bool clamped_part = false, part_part = false;
    Sample clamped = run_jit(*loop, clamped_opts, threads, 0.1, 20,
                             &clamped_part);
    Sample part = run_jit(*loop, part_opts, threads, 0.1, 20, &part_part);
    if (!clamped.ok || !part.ok) {
      std::printf(
          "{\"bench\":\"jit_speedup\",\"mode\":\"partition_gate\","
          "\"name\":\"%s\",\"hw_threads\":%zu,\"error\":\"%s\"}\n",
          c.name.c_str(), hw_threads(),
          (!clamped.ok ? clamped : part).error.c_str());
      ++fallbacks;
      continue;
    }

    bool identical = clamped.checksum == part.checksum;
    bool native = clamped.jit && part.jit && part_part && !clamped_part;
    double speedup = throughput(part) / throughput(clamped);
    std::printf(
        "{\"bench\":\"jit_speedup\",\"mode\":\"partition_gate\","
        "\"name\":\"%s\",\"hw_threads\":%zu,\"threads\":%zu,"
        "\"iterations\":%lld,\"clamped_seconds\":%.6f,"
        "\"partitioned_seconds\":%.6f,\"partitioned_vs_clamped\":%.3f,"
        "\"partitioned\":%s,\"checksum_identical\":%s}\n",
        c.name.c_str(), hw_threads(), threads,
        static_cast<long long>(part.iterations), clamped.seconds, part.seconds,
        speedup, native ? "true" : "false", identical ? "true" : "false");

    ++kernels;
    if (!native) ++fallbacks;
    if (!identical) ++mismatches;
    log_sum += std::log(speedup);
  }

  double geomean = kernels ? std::exp(log_sum / kernels) : 0.0;
  std::printf(
      "{\"bench\":\"jit_speedup\",\"mode\":\"partition_gate\","
      "\"name\":\"ALL\",\"hw_threads\":%zu,\"kernels\":%d,\"threads\":%zu,"
      "\"partitioned_vs_clamped_geomean\":%.2f,\"fallbacks\":%d,"
      "\"checksum_mismatches\":%d,\"gate\":1.3}\n",
      hw_threads(), kernels, threads, geomean, fallbacks, mismatches);

  if (gate && (kernels == 0 || fallbacks > 0 || mismatches > 0 ||
               geomean < 1.3)) {
    std::fprintf(stderr,
                 "partition gate FAILED: kernels=%d fallbacks=%d "
                 "mismatches=%d geomean=%.2f (need >= 1.3)\n",
                 kernels, fallbacks, mismatches, geomean);
    return 1;
  }
  return 0;
}

// --------------------------------------------------------- cold-start gate

/// One "session": fresh Compiler (cold in-memory caches) against `cache_dir`.
/// Returns wall time of compile + JIT materialization, plus the execution
/// checksum, and reports how many cc subprocesses the session ran.
struct SessionResult {
  bool ok = false;
  std::string error;
  double seconds = 0;       ///< compile + jit() wall time
  i64 checksum = 0;
  i64 cc_invocations = 0;
  bool jit = false;
};

SessionResult run_session(const loopir::LoopNest& nest,
                          const std::string& cache_dir, std::size_t threads) {
  SessionResult out;
  i64 builds_before = obs::MetricsRegistry::instance()
                          .counter("vdep_jit_builds_total")
                          .value();
  Compiler compiler(CompileOptions{}.disk_cache(cache_dir));
  jit::JitOptions jo;
  jo.cache_dir = cache_dir;

  auto t0 = std::chrono::steady_clock::now();
  Expected<CompiledLoop> loop = compiler.compile(nest);
  if (!loop) {
    out.error = loop.error().to_string();
    return out;
  }
  auto kernel = loop->jit(jo);
  auto t1 = std::chrono::steady_clock::now();
  if (!kernel) {
    out.error = kernel.error().to_string();
    return out;
  }
  out.seconds = std::chrono::duration<double>(t1 - t0).count();

  exec::ArrayStore store(loop->nest());
  store.fill_pattern();
  ExecPolicy policy;
  policy.threads(threads).backend(ExecBackend::kJit).jit_options(jo);
  Expected<ExecReport> rep = loop->execute(policy, store);
  if (!rep) {
    out.error = rep.error().to_string();
    return out;
  }
  out.checksum = rep->checksum;
  out.jit = rep->jit;
  out.cc_invocations = obs::MetricsRegistry::instance()
                           .counter("vdep_jit_builds_total")
                           .value() -
                       builds_before;
  out.ok = true;
  return out;
}

int cold_start_gate_main(bool gate) {
  if (!jit::discover_toolchain()) {
    std::printf(
        "{\"bench\":\"jit_speedup\",\"mode\":\"cold_start\",\"name\":\"ALL\","
        "\"hw_threads\":%zu,\"skipped\":true,"
        "\"reason\":\"no C toolchain on this host\"}\n",
        hw_threads());
    return 0;
  }
  const std::size_t threads = hw_threads();
  obs::MetricsRegistry::instance().enable();

  std::string templ =
      (std::filesystem::temp_directory_path() / "vdep-coldstart-XXXXXX")
          .string();
  std::vector<char> buf(templ.begin(), templ.end());
  buf.push_back('\0');
  if (!::mkdtemp(buf.data())) {
    std::fprintf(stderr, "cold-start gate: mkdtemp failed\n");
    return 1;
  }
  std::string cache_dir = buf.data();

  double cold_total = 0, warm_total = 0;
  int kernels = 0, warm_cc = 0, mismatches = 0, fallbacks = 0;
  for (core::NamedNest& c : core::paper_suite(64)) {
    // Session A: empty cache entry for this structure — pays analysis + cc.
    SessionResult cold = run_session(c.nest, cache_dir, threads);
    // Session B: cold in-memory state, warm disk — must pay neither.
    SessionResult warm = run_session(c.nest, cache_dir, threads);
    if (!cold.ok || !warm.ok) {
      std::printf(
          "{\"bench\":\"jit_speedup\",\"mode\":\"cold_start\","
          "\"name\":\"%s\",\"hw_threads\":%zu,\"error\":\"%s\"}\n",
          c.name.c_str(), hw_threads(),
          (!cold.ok ? cold : warm).error.c_str());
      ++fallbacks;
      continue;
    }
    bool identical = cold.checksum == warm.checksum;
    std::printf(
        "{\"bench\":\"jit_speedup\",\"mode\":\"cold_start\",\"name\":\"%s\","
        "\"hw_threads\":%zu,\"cold_ms\":%.2f,\"warm_ms\":%.2f,"
        "\"cold_vs_warm\":%.1f,\"warm_cc_invocations\":%lld,"
        "\"checksum_identical\":%s}\n",
        c.name.c_str(), hw_threads(), cold.seconds * 1e3, warm.seconds * 1e3,
        warm.seconds > 0 ? cold.seconds / warm.seconds : 0.0,
        static_cast<long long>(warm.cc_invocations),
        identical ? "true" : "false");
    ++kernels;
    cold_total += cold.seconds;
    warm_total += warm.seconds;
    warm_cc += static_cast<int>(warm.cc_invocations);
    if (!identical) ++mismatches;
    if (!warm.jit) ++fallbacks;
  }

  std::error_code ec;
  std::filesystem::remove_all(cache_dir, ec);

  std::printf(
      "{\"bench\":\"jit_speedup\",\"mode\":\"cold_start\",\"name\":\"ALL\","
      "\"hw_threads\":%zu,\"kernels\":%d,\"cold_total_ms\":%.2f,"
      "\"warm_total_ms\":%.2f,\"cold_vs_warm\":%.1f,"
      "\"warm_cc_invocations\":%d,\"fallbacks\":%d,"
      "\"checksum_mismatches\":%d,\"gate\":\"warm_cc==0\"}\n",
      hw_threads(), kernels, cold_total * 1e3, warm_total * 1e3,
      warm_total > 0 ? cold_total / warm_total : 0.0, warm_cc, fallbacks,
      mismatches);

  if (gate &&
      (kernels == 0 || warm_cc > 0 || mismatches > 0 || fallbacks > 0)) {
    std::fprintf(stderr,
                 "cold-start gate FAILED: kernels=%d warm_cc=%d "
                 "mismatches=%d fallbacks=%d (warm session must invoke cc "
                 "zero times, bit-identically)\n",
                 kernels, warm_cc, mismatches, fallbacks);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool gate = false;
  bool partition_gate = false;
  bool cold_start_gate = false;
  for (int k = 1; k < argc; ++k) {
    if (std::strcmp(argv[k], "--gate") == 0) gate = true;
    if (std::strcmp(argv[k], "--partition-gate") == 0) partition_gate = true;
    if (std::strcmp(argv[k], "--cold-start-gate") == 0) cold_start_gate = true;
  }
  if (partition_gate) return partition_gate_main(/*gate=*/true);
  if (cold_start_gate) return cold_start_gate_main(/*gate=*/true);

  const std::size_t threads = hw_threads();
  // Per-kernel sizes: big enough for a measurable single run, small enough
  // that the tree-walking interpreter finishes the whole suite quickly.
  const std::map<std::string, i64> sizes = {
      {"sequential_chain", 300000}, {"variable_3deep", 50},
      {"matmul_reduction", 64},
      // Pascal-triangle value growth overflows the checked interpreter
      // past n ~ 28 (values |A| <= 99 * C(2n, n)).
      {"uniform_wavefront", 25},
  };
  const i64 default_n = 400;

  Compiler compiler;
  double log_sum_interp = 0, log_sum_compiled = 0;
  int kernels = 0, fallbacks = 0, mismatches = 0;

  for (core::NamedNest& c : core::paper_suite(default_n)) {
    auto it = sizes.find(c.name);
    i64 n = it != sizes.end() ? it->second : default_n;
    loopir::LoopNest nest = n == default_n ? c.nest : [&] {
      for (core::NamedNest& d : core::paper_suite(n))
        if (d.name == c.name) return d.nest;
      return c.nest;
    }();

    Expected<CompiledLoop> loop = compiler.compile(nest);
    if (!loop) {
      std::printf(
          "{\"bench\":\"jit_speedup\",\"name\":\"%s\",\"hw_threads\":%zu,"
          "\"error\":\"%s\"}\n",
          c.name.c_str(), hw_threads(), loop.error().to_string().c_str());
      ++fallbacks;
      continue;
    }

    Sample interp = run_backend(*loop, ExecBackend::kInterpreter, threads,
                                0.05, 50);
    Sample compiled = run_backend(*loop, ExecBackend::kCompiled, threads,
                                  0.05, 50);
    Sample jit = run_backend(*loop, ExecBackend::kJit, threads, 0.05, 50);
    if (!interp.ok || !compiled.ok || !jit.ok) {
      std::printf(
          "{\"bench\":\"jit_speedup\",\"name\":\"%s\",\"hw_threads\":%zu,"
          "\"error\":\"%s\"}\n",
          c.name.c_str(), hw_threads(),
          (!interp.ok ? interp : !compiled.ok ? compiled : jit).error.c_str());
      ++fallbacks;
      continue;
    }
    emit(c.name, "interpreter", threads, n, interp);
    emit(c.name, "compiled", threads, n, compiled);
    emit(c.name, "jit", threads, n, jit);

    bool identical = interp.checksum == jit.checksum &&
                     interp.checksum == compiled.checksum;
    double vs_interp = throughput(jit) / throughput(interp);
    double vs_compiled = throughput(jit) / throughput(compiled);
    std::printf(
        "{\"bench\":\"jit_speedup\",\"name\":\"%s\",\"mode\":\"comparison\","
        "\"hw_threads\":%zu,"
        "\"threads\":%zu,\"n\":%lld,\"jit_vs_interpreter\":%.3f,"
        "\"jit_vs_compiled\":%.3f,\"native\":%s,\"checksum_identical\":%s}\n",
        c.name.c_str(), hw_threads(), threads, static_cast<long long>(n),
        vs_interp,
        vs_compiled, jit.jit ? "true" : "false", identical ? "true" : "false");

    ++kernels;
    if (!jit.jit) ++fallbacks;
    if (!identical) ++mismatches;
    log_sum_interp += std::log(vs_interp);
    log_sum_compiled += std::log(vs_compiled);
  }

  double geo_interp = kernels ? std::exp(log_sum_interp / kernels) : 0.0;
  double geo_compiled = kernels ? std::exp(log_sum_compiled / kernels) : 0.0;
  std::printf(
      "{\"bench\":\"jit_speedup\",\"name\":\"ALL\",\"hw_threads\":%zu,"
      "\"kernels\":%d,"
      "\"threads\":%zu,\"jit_vs_interpreter_geomean\":%.2f,"
      "\"jit_vs_compiled_geomean\":%.2f,\"fallbacks\":%d,"
      "\"checksum_mismatches\":%d,\"gate\":2.0}\n",
      hw_threads(), kernels, threads, geo_interp, geo_compiled, fallbacks,
      mismatches);

  if (gate && (kernels == 0 || fallbacks > 0 || mismatches > 0 ||
               geo_interp < 2.0)) {
    std::fprintf(stderr,
                 "jit gate FAILED: kernels=%d fallbacks=%d mismatches=%d "
                 "geomean=%.2f (need >= 2.0)\n",
                 kernels, fallbacks, mismatches, geo_interp);
    return 1;
  }
  return 0;
}
