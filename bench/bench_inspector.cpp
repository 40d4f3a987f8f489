// Inspector–executor cost model: what runtime inspection costs and what
// the dynamic partition buys on nests the static pipeline cannot analyze.
//
// Scenario "sparse_scatter" is the inspector's home turf: a scatter-
// accumulate A[B[i]] = A[B[i]] + C[i] with a duplicate-heavy index array
// (mean chain length ~4), the access pattern of sparse assembly. The PDM
// rejects the nest, sequential interpretation is the only static option,
// and the inspector's components are exactly the per-target-cell chains.
// Scenario "permutation" is the degenerate best case — B a permutation, so
// every class is a singleton and the space is fully parallel.
//
// Output is one JSON object per line (scraped into BENCH_runtime.json):
//   {"bench":"inspector","name":"sparse_scatter","mode":"sequential",...}
//   {"bench":"inspector","name":...,"mode":"sequential_compiled",...}
//   {"bench":"inspector","name":...,"mode":"sequential_native",...}
//   {"bench":"inspector","name":...,"mode":"inspect","threads":1,"n":...,
//    "seconds":...,"classes":...,"chains":...,"max_component":...}
//   {"bench":"inspector","name":...,"mode":"inspect","threads":8,...}
//   {"bench":"inspector","name":...,"mode":"executor","threads":8,...}
//   {"bench":"inspector","name":...,"mode":"api_jit","threads":8,...,
//    "jit":...,"bit_identical":...,"amortized_speedup_vs_compiled_8w":...,
//    "amortized_speedup_vs_native_8w":...}
//   {"bench":"inspector","name":...,"mode":"api_jit_reused",...}
//   {"bench":"inspector","name":...,"mode":"summary","threads":8,
//    "speedup_8w_vs_seq":...,"inspect_overhead_pct":...,
//    "amortized_speedup_8w":...,"amortized_speedup_vs_compiled_8w":...,
//    "amortized_speedup_vs_native_8w":...}
//
// "sequential" is the exact interpreter; "sequential_compiled" runs the
// same nest through exec::CompiledKernel::run_sequential (kernel built and
// proved off the clock; the run binds the store, index scan included), the
// baseline a caller who knows the nest is safe
// to run in order would use. amortized_speedup_8w divides the interpreted
// run by one single-worker inspection plus one 8-worker execution;
// amortized_speedup_vs_compiled_8w divides the compiled run by what an
// 8-worker request pays: an 8-worker inspection plus the 8-worker
// execution. Both are informational. The "api_jit" row is the whole
// request as a caller issues it: CompiledLoop::execute under
// ExecBackend::kJit at 8 workers, i.e. an 8-worker inspection plus native
// row-kernel leaves (the row kernel's cc run and one warm-up request stay
// off the clock); its amortized_speedup_vs_compiled_8w divides the compiled
// run by that request. Its repetitions alternate two index arrays (the
// scenario's and its reverse), so each one inspects afresh instead of
// reusing the memoized partition. "api_jit_reused" repeats one index
// array, so each request proves the memoized partition for its store and
// skips inspection; its own ratio keeps a cache hit from hiding a cold
// regression in the row above. "sequential_native" runs the nest's kJit
// row kernel over every rank in rank order on one worker (rows and the
// resolved-offset table built off the clock; printed only where a C
// toolchain exists), the native sequential loop; every
// amortized_speedup_vs_native_8w divides it the way the compiled ratios
// divide sequential_compiled (0 without a row kernel). Informational, like
// the other ratios; its bit-identity counts toward --gate.
//
// `--gate` (CI bench-smoke and jit-smoke legs) re-runs both scenarios and
// fails unless every parallel store is bit-identical to the sequential
// reference, unless the api_jit rows ran native (ExecReport::jit) and
// inspected (api_jit) or reused (api_jit_reused) as intended, and
// unless a single-worker inspection costs less than one sequential
// interpreted run (inspect_overhead_pct < 100) on each scenario. Speedup
// is reported, never gated (inspection amortizes over re-execution and CI
// machines vary), but correctness is absolute.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "api/vdep.h"
#include "bench_common.h"
#include "exec/compiled.h"
#include "exec/interpreter.h"
#include "inspect/executor.h"
#include "inspect/inspector.h"
#include "jit/native_kernel.h"
#include "loopir/builder.h"

using namespace vdep;
using bench::hw_threads;
using intlin::i64;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double best_of(int reps, const std::function<double()>& fn) {
  double best = fn();
  for (int k = 1; k < reps; ++k) best = std::min(best, fn());
  return best;
}

/// A[B[i]] = A[B[i]] + C[i] over i in [0, n-1], A sized [0, a_hi].
loopir::LoopNest scatter_nest(i64 n, i64 a_hi) {
  loopir::LoopNestBuilder b;
  b.loop("i", 0, n - 1);
  b.array("A", {{0, a_hi}});
  b.array("B", {{0, n - 1}});
  b.array("C", {{0, n - 1}});
  loopir::ArrayRef a_ind;
  a_ind.array = "A";
  a_ind.subscripts = {b.cst(0)};
  a_ind.indirect = {loopir::IndirectSubscript{"B", b.idx(0)}};
  b.assign(a_ind, loopir::Expr::add(loopir::Expr::read(a_ind),
                                    loopir::Expr::read(b.ref("C", {b.idx(0)}))));
  return b.build();
}

struct Scenario {
  const char* name;
  i64 a_hi;                       ///< target extent (conflict density knob)
  std::function<i64(i64)> index;  ///< i -> B[i]
};

int run_scenario(const Scenario& sc, i64 n, int reps, bool gate) {
  loopir::LoopNest nest = scatter_nest(n, sc.a_hi);
  exec::ArrayStore init(nest);
  init.fill_pattern();
  for (i64 i = 0; i < n; ++i) init.write("B", intlin::Vec{i}, sc.index(i));

  // Sequential reference (the only static execution for a non-affine nest).
  exec::ArrayStore ref = init;
  double t_seq = [&] {
    auto t0 = std::chrono::steady_clock::now();
    exec::run_sequential(nest, ref);
    return seconds_since(t0);
  }();
  std::printf(
      "{\"bench\":\"inspector\",\"name\":\"%s\",\"mode\":\"sequential\","
      "\"threads\":1,\"hw_threads\":%zu,\"n\":%lld,\"seconds\":%.6f,"
      "\"iters_per_sec\":%.0f}\n",
      sc.name, hw_threads(), static_cast<long long>(n), t_seq,
      t_seq > 0 ? static_cast<double>(n) / t_seq : 0.0);

  // The compiled sequential baseline (informational; must still agree).
  int failures = 0;
  exec::ArrayStore compiled = init;
  const exec::CompiledKernel kernel(nest);
  double t_seq_compiled = best_of(reps, [&] {
    compiled = init;
    auto t0 = std::chrono::steady_clock::now();
    kernel.run_sequential(compiled);
    return seconds_since(t0);
  });
  const bool compiled_identical = compiled == ref;
  if (!compiled_identical) {
    std::fprintf(stderr,
                 "FAIL: %s compiled sequential run diverged from the "
                 "interpreter\n",
                 sc.name);
    ++failures;
  }
  std::printf(
      "{\"bench\":\"inspector\",\"name\":\"%s\","
      "\"mode\":\"sequential_compiled\",\"threads\":1,\"hw_threads\":%zu,"
      "\"n\":%lld,\"seconds\":%.6f,\"iters_per_sec\":%.0f,"
      "\"bit_identical\":%s}\n",
      sc.name, hw_threads(), static_cast<long long>(n), t_seq_compiled,
      t_seq_compiled > 0 ? static_cast<double>(n) / t_seq_compiled : 0.0,
      compiled_identical ? "true" : "false");

  // Inspection on 1 and 8 pass-1 workers: timed separately (best-of),
  // stats from the last run (identical at any worker count).
  inspect::DynamicPartition part = inspect::inspect(nest, init);
  auto time_inspect = [&](std::size_t threads) {
    double t = best_of(reps, [&] {
      auto t0 = std::chrono::steady_clock::now();
      part = inspect::inspect(nest, init, threads);
      return seconds_since(t0);
    });
    const inspect::InspectStats& st = part.stats();
    std::printf(
        "{\"bench\":\"inspector\",\"name\":\"%s\",\"mode\":\"inspect\","
        "\"threads\":%zu,\"hw_threads\":%zu,\"n\":%lld,\"seconds\":%.6f,"
        "\"iterations_per_sec\":%.0f,\"classes\":%lld,\"chains\":%lld,"
        "\"max_component\":%lld,\"dependent\":%lld,\"written_cells\":%lld}\n",
        sc.name, threads, hw_threads(), static_cast<long long>(n), t,
        t > 0 ? static_cast<double>(n) / t : 0.0,
        static_cast<long long>(st.classes), static_cast<long long>(st.chains),
        static_cast<long long>(st.max_component),
        static_cast<long long>(st.dependent_iterations),
        static_cast<long long>(st.written_cells));
    return t;
  };
  const double t_inspect = time_inspect(1);
  const double t_inspect_8w = time_inspect(8);

  double t_8w = 0;
  for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    inspect::InspectorExecOptions io;
    io.num_threads = threads;
    inspect::InspectorExecutor ex(nest, part, io);
    exec::ArrayStore got(nest);
    runtime::RuntimeStats rs;
    double t_exec = best_of(reps, [&] {
      got = init;
      auto t0 = std::chrono::steady_clock::now();
      rs = ex.run(got);
      return seconds_since(t0);
    });
    if (threads == 8) t_8w = t_exec;
    bool identical = got == ref;
    if (!identical) {
      std::fprintf(stderr,
                   "FAIL: %s inspector executor at %zu worker(s) diverged "
                   "from sequential\n",
                   sc.name, threads);
      ++failures;
    }
    std::printf(
        "{\"bench\":\"inspector\",\"name\":\"%s\",\"mode\":\"executor\","
        "\"threads\":%zu,\"hw_threads\":%zu,\"n\":%lld,\"seconds\":%.6f,"
        "\"iters_per_sec\":%.0f,\"tasks\":%lld,\"steals\":%lld,"
        "\"bit_identical\":%s}\n",
        sc.name, threads, hw_threads(), static_cast<long long>(n), t_exec,
        t_exec > 0 ? static_cast<double>(n) / t_exec : 0.0,
        static_cast<long long>(rs.total_tasks()),
        static_cast<long long>(rs.total_steals()),
        identical ? "true" : "false");
  }

  // The kJit request through the public API (see the header): api_jit
  // alternates two index arrays, so every timed request inspects afresh;
  // api_jit_reused repeats one, so every timed request reuses the
  // memoized partition.
  double t_seq_native = 0;  // 0: no row kernel (no C toolchain)
  {
    exec::ArrayStore init2 = init;
    for (i64 i = 0; i < n; ++i)
      init2.write("B", intlin::Vec{i}, sc.index(n - 1 - i));
    exec::ArrayStore ref2 = init2;
    exec::run_sequential(nest, ref2);

    Compiler compiler;
    CompiledLoop loop = compiler.compile(nest).value();
    const ExecPolicy policy =
        ExecPolicy{}.threads(8).backend(ExecBackend::kJit).digest(false);
    exec::ArrayStore got = init;
    bool native = true, identical = true, reuse_as_expected = true;
    // One request over `from`; `reused` is whether it must reuse the
    // memoized partition (true) or must not (false).
    auto request = [&](const exec::ArrayStore& from,
                       const exec::ArrayStore& expect, bool reused) {
      got = from;
      auto t0 = std::chrono::steady_clock::now();
      Expected<ExecReport> rep = loop.execute(policy, got);
      const double t = seconds_since(t0);
      if (!rep)
        std::fprintf(stderr, "FAIL: %s kJit request failed: %s\n", sc.name,
                     rep.error().to_string().c_str());
      native &= rep && rep->jit;
      identical &= got == expect;
      reuse_as_expected &=
          rep && (rep->inspection == Inspection::kReused) == reused;
      return t;
    };
    request(init, ref, false);  // builds the row kernel

    // sequential_native: the same row kernel over every rank in rank
    // order on one worker, the native sequential loop a caller who knows
    // the nest is safe would run. Its rows and resolved-offset table (each
    // rank's A[B[i]] offset) are built off the clock.
    Expected<std::shared_ptr<const jit::NativeKernel>> row_kernel =
        loop.jit();
    if (row_kernel) {
      const std::vector<loopir::ArrayRef> refs = nest.indirect_refs();
      std::vector<i64> rows, resolved;
      nest.for_each_iteration([&](const intlin::Vec& it) {
        rows.insert(rows.end(), it.begin(), it.end());
        for (const loopir::ArrayRef& r : refs) {
          const loopir::ArrayDecl& decl = nest.array(r.array);
          const intlin::Vec cell = exec::element_coords(r, it, init);
          i64 flat = 0;
          for (std::size_t d = 0; d < cell.size(); ++d)
            flat = flat * (decl.dims[d].second - decl.dims[d].first + 1) +
                   (cell[d] - decl.dims[d].first);
          resolved.push_back(flat);
        }
      });
      exec::ArrayStore native_store = init;
      t_seq_native = best_of(reps, [&] {
        native_store = init;
        const exec::BufferTable bufs(nest, native_store);
        auto t0 = std::chrono::steady_clock::now();
        (*row_kernel)->execute_rows(bufs, rows.data(), resolved.data(),
                                    nest.depth(), 0, n);
        return seconds_since(t0);
      });
      const bool native_identical = native_store == ref;
      if (!native_identical) {
        std::fprintf(stderr,
                     "FAIL: %s native sequential run diverged from the "
                     "interpreter\n",
                     sc.name);
        ++failures;
      }
      std::printf(
          "{\"bench\":\"inspector\",\"name\":\"%s\","
          "\"mode\":\"sequential_native\",\"threads\":1,\"hw_threads\":%zu,"
          "\"n\":%lld,\"seconds\":%.6f,\"iters_per_sec\":%.0f,"
          "\"bit_identical\":%s}\n",
          sc.name, hw_threads(), static_cast<long long>(n), t_seq_native,
          t_seq_native > 0 ? static_cast<double>(n) / t_seq_native : 0.0,
          native_identical ? "true" : "false");
    }

    bool second = false;  // the index array of the last request
    const double t_api = best_of(reps, [&] {
      second = !second;
      return request(second ? init2 : init, second ? ref2 : ref, false);
    });
    const double t_reused = best_of(reps, [&] {
      return request(second ? init2 : init, second ? ref2 : ref, true);
    });
    if (!identical) {
      std::fprintf(stderr,
                   "FAIL: %s kJit request at 8 workers diverged from "
                   "sequential\n",
                   sc.name);
      ++failures;
    }
    if (!reuse_as_expected) {
      std::fprintf(stderr,
                   "FAIL: %s api_jit reused a partition across index arrays, "
                   "or api_jit_reused re-inspected an unchanged one\n",
                   sc.name);
      ++failures;
    }
    if (gate && !native) {
      std::fprintf(stderr,
                   "FAIL: %s kJit request did not run native row-kernel "
                   "leaves (no C toolchain, or the build failed)\n",
                   sc.name);
      ++failures;
    }
    for (const auto& [mode, t] :
         {std::pair{"api_jit", t_api}, std::pair{"api_jit_reused", t_reused}})
      std::printf(
          "{\"bench\":\"inspector\",\"name\":\"%s\",\"mode\":\"%s\","
          "\"threads\":8,\"hw_threads\":%zu,\"n\":%lld,\"seconds\":%.6f,"
          "\"iters_per_sec\":%.0f,\"jit\":%s,\"bit_identical\":%s,"
          "\"amortized_speedup_vs_compiled_8w\":%.3f,"
          "\"amortized_speedup_vs_native_8w\":%.3f}\n",
          sc.name, mode, hw_threads(), static_cast<long long>(n), t,
          t > 0 ? static_cast<double>(n) / t : 0.0, native ? "true" : "false",
          identical ? "true" : "false", t > 0 ? t_seq_compiled / t : 0.0,
          t > 0 ? t_seq_native / t : 0.0);
  }

  const double overhead_pct = t_seq > 0 ? t_inspect / t_seq * 100.0 : 0.0;
  std::printf(
      "{\"bench\":\"inspector\",\"name\":\"%s\",\"mode\":\"summary\","
      "\"threads\":8,\"hw_threads\":%zu,\"n\":%lld,"
      "\"speedup_8w_vs_seq\":%.3f,\"inspect_overhead_pct\":%.2f,"
      "\"amortized_speedup_8w\":%.3f,"
      "\"amortized_speedup_vs_compiled_8w\":%.3f,"
      "\"amortized_speedup_vs_native_8w\":%.3f}\n",
      sc.name, hw_threads(), static_cast<long long>(n),
      t_8w > 0 ? t_seq / t_8w : 0.0, overhead_pct,
      t_inspect + t_8w > 0 ? t_seq / (t_inspect + t_8w) : 0.0,
      t_inspect_8w + t_8w > 0 ? t_seq_compiled / (t_inspect_8w + t_8w) : 0.0,
      t_inspect_8w + t_8w > 0 ? t_seq_native / (t_inspect_8w + t_8w) : 0.0);

  if (gate && overhead_pct >= 100.0) {
    std::fprintf(stderr,
                 "FAIL: %s inspection costs %.2f%% of a sequential run "
                 "(gate: < 100%%)\n",
                 sc.name, overhead_pct);
    ++failures;
  }
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  const bool gate = argc > 1 && std::strcmp(argv[1], "--gate") == 0;
  const i64 n = gate ? i64{1} << 18 : i64{1} << 20;
  const int reps = gate ? 2 : 3;

  const Scenario scenarios[] = {
      // ~4 iterations per target cell: sparse-assembly conflict density.
      {"sparse_scatter", n / 4 - 1,
       [n](i64 i) { return (i * 2654435761ll) % (n / 4); }},
      // Bijective: every class a singleton, fully parallel space.
      // 7919 is odd and n a power of two, so i*7919+13 mod n is a bijection.
      {"permutation", n - 1, [n](i64 i) { return (i * 7919 + 13) % n; }},
  };

  int failures = 0;
  for (const Scenario& sc : scenarios) failures += run_scenario(sc, n, reps, gate);
  return failures == 0 ? 0 : 1;
}
