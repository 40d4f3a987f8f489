#include "api/compiled_loop.h"

#include <chrono>
#include <memory>
#include <optional>
#include <sstream>

#include "api/batch.h"
#include "api/executable.h"
#include "codegen/rewrite.h"
#include "exec/array_store.h"
#include "exec/interpreter.h"
#include "inspect/executor.h"
#include "obs/metrics.h"
#include "obs/phase.h"
#include "obs/trace.h"
#include "runtime/stream_executor.h"
#include "support/error.h"
#include "support/keyenc.h"

namespace vdep {

namespace {

i64 elapsed_ns(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

// ------------------------------------------------------------- options

const char* inspection_name(Inspection i) {
  switch (i) {
    case Inspection::kNone: return "none";
    case Inspection::kFresh: return "fresh";
    case Inspection::kReused: return "reused";
    case Inspection::kReinspected: return "reinspected";
  }
  VDEP_UNREACHABLE("inspection kind");
}

std::string CodegenOptions::memo_key() const {
  std::string key = target_ == CodegenTarget::kTransformed ? "trans" : "orig";
  key += ";omp=";
  key += openmp_ ? '1' : '0';
  key += ";main=";
  key += with_main_ ? '1' : '0';
  key += ";name=";
  // kernel_name_ is free-form caller text: length-prefix it so a crafted
  // name cannot forge the framing of any key built on top of this one.
  keyenc::append_field(&key, kernel_name_);
  return key;
}

// ------------------------------------------------------------ artifact

const std::string& PlanArtifact::codegen(const loopir::LoopNest& nest,
                                         const CodegenOptions& opts) const {
  // The artifact is bounds-free but emitted C is not (loop bounds, the
  // body and the array dims appear verbatim), so the memo key is the
  // option key plus the full bounds rendering. Handles at the same bounds
  // share the emitted string.
  std::string key = opts.memo_key();
  key += '\n';
  key += bounds_render(nest);

  {
    std::lock_guard<std::mutex> lock(memo_mu_);
    auto it = codegen_memo_.find(key);
    if (it != codegen_memo_.end()) return it->second;
  }

  // Emit outside the lock: transformed bounds run Fourier–Motzkin. A racing
  // thread may emit the same string; emplace keeps the first.
  codegen::EmitOptions eo;
  eo.openmp = opts.openmp();
  eo.with_main = opts.with_main();
  eo.kernel_name = opts.kernel_name();
  std::string c;
  {
    obs::ScopedSpan span(obs::EventKind::kCodegen, /*layer_enabled=*/true,
                         obs::Phase::kCodegen);
    c = opts.target() == CodegenTarget::kOriginal
            ? codegen::emit_c_original(nest, eo)
            : codegen::emit_c_transformed(nest, plan_.transform, eo);
  }

  std::lock_guard<std::mutex> lock(memo_mu_);
  return codegen_memo_.emplace(std::move(key), std::move(c)).first->second;
}

Expected<std::shared_ptr<const jit::NativeKernel>> PlanArtifact::jit_kernel(
    const loopir::LoopNest& nest, const jit::JitOptions& opts) const {
  // Keyed like the codegen memo: options + the bounds rendering (loop
  // bounds AND array dims). Handles at the same bounds share the loaded
  // .so.
  std::string key = opts.memo_key();
  key += '\n';
  key += bounds_render(nest);

  {
    std::lock_guard<std::mutex> lock(memo_mu_);
    if (auto it = jit_memo_.find(key); it != jit_memo_.end())
      return it->second;
    if (auto it = jit_fail_memo_.find(key); it != jit_fail_memo_.end())
      return it->second;
  }

  // No toolchain is a cheap, environment-level answer: never memoized, so
  // a host that gains a compiler starts JITting without a new session.
  jit::ToolchainCompiler tc(opts);
  if (!tc.available())
    return ApiError{ErrorKind::kUnsupported,
                    "jit: no C toolchain found (set $VDEP_CC or put cc/gcc/"
                    "clang on PATH)"};

  // Emit + cc + dlopen outside the lock (the toolchain run dominates); a
  // racing thread may build the same kernel, emplace keeps the first and
  // the loser's .so unloads with its last shared_ptr.
  Expected<std::shared_ptr<const jit::NativeKernel>> kernel =
      tc.compile(nest, plan_.transform);

  std::lock_guard<std::mutex> lock(memo_mu_);
  if (!kernel) {
    // Deterministic failures (range proof, cc error on these flags) would
    // re-run a full toolchain subprocess on every execute(): memoize them
    // per key so backend kJit degrades once, not per call.
    return jit_fail_memo_.emplace(std::move(key), kernel.error())
        .first->second;
  }
  return jit_memo_.emplace(std::move(key), std::move(*kernel)).first->second;
}

std::string PlanArtifact::executable_key(const loopir::LoopNest& nest,
                                         const ExecPolicy& policy,
                                         std::size_t threads) {
  // Everything that shapes the executor, its compiled body or its native
  // kernel; the per-run switches stay out (each run passes its own).
  std::string key = "t=";
  key += std::to_string(threads);
  key += ";g=";
  key += std::to_string(policy.grain());
  key += ';';
  key += inspected_key(nest, policy);
  return key;
}

std::string PlanArtifact::inspected_key(const loopir::LoopNest& nest,
                                        const ExecPolicy& policy) {
  std::string key = "b=";
  key += std::to_string(static_cast<int>(policy.backend()));
  if (policy.backend() == ExecBackend::kJit) {
    key += ';';
    key += policy.jit_options().memo_key();
  }
  key += '\n';
  key += bounds_render(nest);
  return key;
}

std::shared_ptr<const detail::Executable> PlanArtifact::find_executable(
    const std::string& key) const {
  std::lock_guard<std::mutex> lock(memo_mu_);
  auto it = exec_memo_.find(key);
  return it != exec_memo_.end() ? it->second : nullptr;
}

void PlanArtifact::publish_executable(
    std::string key, std::shared_ptr<const detail::Executable> entry) const {
  std::lock_guard<std::mutex> lock(memo_mu_);
  exec_memo_[std::move(key)] = std::move(entry);
}

std::shared_ptr<const detail::Executable> PlanArtifact::executable(
    const loopir::LoopNest& nest, const ExecPolicy& policy,
    std::size_t threads) const {
  std::string key = executable_key(nest, policy, threads);
  if (std::shared_ptr<const detail::Executable> hit = find_executable(key))
    return hit;

  // Build outside the lock (rewrite + Fourier–Motzkin hull); a racing
  // thread may build the same executor, emplace keeps the first.
  std::shared_ptr<const detail::Executable> built;
  {
    obs::ScopedSpan span(obs::EventKind::kExecutorBuild, policy.trace(),
                         obs::Phase::kAnalyze);
    runtime::StreamOptions so;
    so.num_threads = threads;
    so.grain = policy.grain();
    so.force_interpreter = policy.backend() == ExecBackend::kInterpreter;
    built = std::make_shared<const detail::Executable>(nest, plan_.transform,
                                                       so);
  }
  std::lock_guard<std::mutex> lock(memo_mu_);
  return exec_memo_.emplace(std::move(key), std::move(built)).first->second;
}

// -------------------------------------------------------------- handle

detail::BoundSource CompiledLoop::bind(const ExecPolicy& policy,
                                       std::size_t threads,
                                       exec::ArrayStore& store,
                                       vdep::ThreadPool* pool) const {
  detail::BoundSource b;
  // Non-affine nests have no provable static plan: the inspector is the
  // only backend that can run them, whatever the policy says. Affine
  // nests take the inspector path only on explicit request.
  if (!art_->analysis().affine ||
      policy.backend() == ExecBackend::kInspector) {
    // The memoized partition holds for this store when prove() finds its
    // index arrays equal, byte for byte, to the ones that inspection read:
    // then this request runs no inspect() and builds no executor. The
    // compare is split across the request's pool at its worker count and
    // finishes before any leaf is driven. Any other store is inspected
    // here, and a hostile index array fails typed before any write,
    // leaving the memo as it was.
    const std::string key = PlanArtifact::inspected_key(*nest_, policy);
    std::shared_ptr<const detail::Executable> memo =
        art_->find_executable(key);
    std::optional<inspect::ProvenStore> proven;
    // A fresh inspection lands where the new memo entry keeps it, so the
    // evidence inspect() hands back names the entry's own partition.
    std::unique_ptr<inspect::DynamicPartition> fresh;
    {
      obs::ScopedSpan span(obs::EventKind::kInspect, policy.trace(),
                           obs::Phase::kInspect);
      const i64 t0 = obs::now_ns();
      if (memo) proven = memo->partition().prove(store, pool, threads);
      if (proven) {
        b.executable = std::move(memo);
        b.inspection = Inspection::kReused;
      } else {
        b.inspection = memo ? Inspection::kReinspected : Inspection::kFresh;
        fresh = std::make_unique<inspect::DynamicPartition>();
        proven = inspect::inspect(*nest_, store, *fresh, threads, pool);
      }
      b.inspect_ns = obs::now_ns() - t0;
      if (span.tracing()) {
        const inspect::InspectStats& st =
            fresh ? fresh->stats() : b.executable->partition().stats();
        span.set_arg(0, st.iterations);
        span.set_arg(1, st.classes);
        span.set_arg(2, st.chains);
        span.set_arg(3, st.max_component);
        span.set_arg(4, st.dependent_iterations);
        span.set_arg(5, st.written_cells);
        span.set_arg(6, static_cast<i64>(b.inspection));
      }
    }
    if (policy.metrics() && obs::MetricsRegistry::enabled()) {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
      reg.counter("vdep_inspector_runs_total",
                  "inspected requests, by where their partition came from",
                  {"inspection", inspection_name(b.inspection)})
          .inc();
      // The histograms count inspections, so a reused partition, observed
      // when it was inspected, is not observed again.
      if (fresh) {
        const inspect::InspectStats& st = fresh->stats();
        reg.histogram("vdep_inspector_classes", obs::exp_buckets(1, 4.0, 16),
                      "dynamic partition classes per inspection")
            .observe(st.classes);
        reg.histogram("vdep_inspector_component_size",
                      obs::exp_buckets(1, 4.0, 16),
                      "largest dependence component per inspection")
            .observe(st.max_component);
      }
    }
    if (fresh) {
      // The executor build (its CompiledKernel body's range proof
      // included) is executor construction, like an affine memo miss. The
      // new entry replaces the old one whole, so a request still running
      // the old partition keeps it.
      obs::PhaseTimer build_timer(obs::Phase::kAnalyze);
      inspect::InspectorExecOptions io;
      io.force_interpreter = policy.backend() == ExecBackend::kInterpreter;
      b.executable = std::make_shared<const detail::Executable>(
          *nest_, std::move(fresh), io);
      art_->publish_executable(key, b.executable);
    }
    // kJit runs the leaves through the nest's native row kernel, fetched
    // only now: a hostile index array has already failed typed above,
    // before any write and before any cc run. The row kernel's unchecked
    // accesses are sound because an inspection checked every one of them
    // against index arrays equal to this store's. No kernel (no
    // toolchain, a cc failure, a memoized failure) leaves the
    // CompiledKernel body.
    if (policy.backend() == ExecBackend::kJit)
      b.native = b.executable->native(*art_, policy.jit_options());
    // The source's binding (its index scan) is analysis time too.
    obs::PhaseTimer build_timer(obs::Phase::kAnalyze);
    b.source = b.executable->inspector().source(*proven, b.native.get(),
                                                threads, policy.grain());
    return b;
  }
  b.executable = art_->executable(*nest_, policy, threads);
  // kJit leaves run the native kernel; a JIT failure (no toolchain, range
  // proof, cc error) degrades to the scan path through the executor's
  // compiled body. Either way the source binds this store once.
  if (policy.backend() == ExecBackend::kJit)
    b.native = b.executable->native(*art_, policy.jit_options());
  // Analysis time like the build: the binding, and on an executor's first
  // scan-path source its body and column order.
  obs::PhaseTimer build_timer(obs::Phase::kAnalyze);
  b.source = b.executable->executor().source(store, b.native.get());
  return b;
}

exec::RunStats CompiledLoop::measure() const {
  return exec::measure_schedule(*nest_, art_->plan().transform);
}

Expected<CompiledLoop> CompiledLoop::at(const loopir::LoopNest& bounds) const {
  return try_invoke([&]() -> CompiledLoop {
    Fingerprint fp = structural_fingerprint(bounds);
    if (fp != art_->fingerprint())
      throw PreconditionError(
          "CompiledLoop::at: nest structure differs from the compiled "
          "structure (recompile instead)");
    return CompiledLoop(art_, bounds);
  });
}

Expected<ExecReport> CompiledLoop::execute(const ExecPolicy& policy,
                                           exec::ArrayStore& store) const {
  return execute_impl(policy, store, nullptr);
}

Expected<ExecReport> CompiledLoop::execute(const ExecPolicy& policy,
                                           exec::ArrayStore& store,
                                           vdep::ThreadPool& pool) const {
  return execute_impl(policy, store, &pool);
}

Expected<ExecReport> CompiledLoop::check(const ExecPolicy& policy) const {
  return check_impl(policy, nullptr);
}

Expected<ExecReport> CompiledLoop::check(const ExecPolicy& policy,
                                         vdep::ThreadPool& pool) const {
  return check_impl(policy, &pool);
}

Expected<ExecReport> CompiledLoop::execute_impl(const ExecPolicy& policy,
                                                exec::ArrayStore& store,
                                                vdep::ThreadPool* pool) const {
  // Collects the phase breakdown from every instrumented site this call
  // reaches (executor build, inspection, codegen, cc, the run itself) —
  // including sites inside memoized artifacts, which correctly report ~0
  // on hits.
  obs::PhaseScope phases;
  auto t0 = std::chrono::steady_clock::now();
  const BatchRequest request{*this, &store};
  Expected<std::vector<ExecReport>> reports =
      detail::run_requests({&request, 1}, policy, pool);
  // A single call has no request index to report.
  if (!reports) return ApiError{reports.error().kind, reports.error().message};
  ExecReport rep = reports->front();
  rep.analyze_ns = phases.ns(obs::Phase::kAnalyze);
  rep.codegen_ns = phases.ns(obs::Phase::kCodegen);
  rep.jit_compile_ns = phases.ns(obs::Phase::kJitCompile);
  rep.inspect_ns = phases.ns(obs::Phase::kInspect);
  rep.exec_ns = phases.ns(obs::Phase::kExec);
  rep.wall_ns = elapsed_ns(t0);
  return rep;
}

Expected<ExecReport> CompiledLoop::check_impl(const ExecPolicy& policy,
                                              vdep::ThreadPool* pool) const {
  return try_invoke([&]() -> ExecReport {
    exec::ArrayStore ref(*nest_);
    ref.fill_pattern();
    // The parallel store is built fresh and refilled with the same
    // deterministic pattern.
    exec::ArrayStore par(*nest_);
    par.fill_pattern();
    exec::run_sequential(*nest_, ref);
    // value() re-raises the typed error so the outer try_invoke recaptures
    // it — execution failures and divergence surface the same way.
    ExecReport rep = execute_impl(policy, par, pool).value();
    if (!(ref == par))
      throw InternalError(
          "parallel execution diverged from the sequential reference");
    rep.verified = true;
    rep.checksum = par.checksum();
    return rep;
  });
}

std::string CompiledLoop::summary() const {
  const LoopAnalysis& a = art_->analysis();
  const LoopPlan& p = art_->plan();
  std::ostringstream os;
  os << "=== vdep compiled loop ===\n";
  os << "-- structure --\n";
  os << "fingerprint " << std::hex << fingerprint().hash << std::dec
     << ", depth " << nest_->depth() << ", PDM rank " << a.rank
     << (a.affine ? (a.all_uniform ? " [uniform]" : " [variable]")
                  : " [non-affine]")
     << "\n";
  os << "-- original nest --\n" << nest_->to_string();
  if (!a.affine) {
    os << "-- dependence analysis --\n";
    os << "indirect subscripts: dependences depend on index-array contents;\n"
       << "no static PDM exists. Execution partitions at runtime via the\n"
       << "inspector backend (ExecBackend::kInspector).\n";
    return os.str();
  }
  os << "-- dependence analysis --\n";
  if (a.pdm.pairs().empty()) {
    os << "no dependent reference pairs\n";
  } else {
    for (const dep::DepPair& pr : a.pdm.pairs()) {
      os << dep::to_string(pr.kind) << ": S" << pr.stmt_a + 1 << " "
         << pr.a.to_string(nest_->index_names()) << "  <->  S" << pr.stmt_b + 1
         << " " << pr.b.to_string(nest_->index_names())
         << (pr.solution.is_uniform() ? "  [uniform]" : "  [variable]") << "\n";
    }
  }
  os << a.pdm.to_string() << "\n";
  os << "-- plan (Theorem 1 " << (p.legal ? "certified" : "NOT CERTIFIED")
     << ") --\n";
  os << "T = " << p.transform.t.to_string()
     << ",  H*T = " << p.transform.transformed_pdm.to_string() << "\n";
  if (!p.transform.algorithm1_ops.empty()) {
    os << "Algorithm 1 ops:";
    for (const std::string& op : p.transform.algorithm1_ops) os << " " << op;
    os << "\n";
  }
  os << "-- parallel structure --\n";
  os << p.doall_loops << " outer DOALL loop(s), " << p.partition_classes
     << " independent partition class(es)\n";
  if (p.partition_classes > 1) {
    os << "class range "
       << (runtime::classes_share_lines(*nest_, p.transform)
               ? "kept on one worker (classes write cells within a cache "
                 "line of each other)"
               : "may split across workers")
       << "\n";
  }
  const codegen::TransformedNest tn =
      codegen::rewrite_nest(*nest_, p.transform);
  if (p.doall_loops > 0) {
    const int column =
        runtime::doall_locality(*nest_, tn.t_inverse, p.doall_loops).column;
    os << "column runs: compiled scans run DOALL level "
       << tn.nest.level(column).name
       << ", permuted innermost, as one independent column per point of "
          "the other levels (ExecReport::column_iterations)\n";
  } else {
    os << "column runs: none (no DOALL level; every compiled scan runs per "
          "point)\n";
  }
  os << "-- transformed nest --\n" << tn.nest.to_string();
  return os.str();
}

}  // namespace vdep
