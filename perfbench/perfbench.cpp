// perfbench — one seeded benchmark for vdep's whole request path.
//
// Three workloads, each a closed loop driven by one client thread that waits
// for every reply; the library runs on min(nproc, 4) workers:
//
//   compile_tiers  every paper-suite kernel as DSL text at a small seeded
//                  bound, compile + execute with backend(kJit), served three
//                  ways per round: cold (fresh Compiler, empty disk cache),
//                  disk-warm (second fresh Compiler on the populated cache)
//                  and memory-warm (that session again).
//   large_kernels  every suite kernel at large bounds through
//                  CompiledLoop::execute(kJit), plus the sparse_scatter and
//                  permutation indirect nests at n = 2^18 (auto-routed to
//                  the inspector). Plans and .so files are built in set-up.
//   serve_batches  64-request batches drawn from suite structures x bounds,
//                  compile_all + execute_batch(kCompiled, digest off) on
//                  Compiler::pool(), caller-owned stores reset off the clock.
//
// Every output is checked against exec::run_sequential on an identical
// initial store (one reference per distinct input, computed in set-up and
// off the clock) by a digest this file computes over the raw buffers.
//
// --trace 0 measures the end-to-end metrics. --trace 1 spends half the time
// untraced and half traced: the traced half wraps each public call a request
// makes in a span, then probes each layer's public functions on the same
// inputs, and reports per-layer metrics, the share of request wall time no
// layer covers ("unattributed", see Spans::print_shares) and the tracing
// overhead.
//
// Usage (normally through perfbench/run.py, which builds this program, fixes
// the environment and owns the private temp directory):
//   vdep_perfbench --workload W --seed N --seconds S --trace 0|1 --tmp DIR
//                  [--git-sha SHA] [--inject-mismatch]
// The last line of stdout is the JSON result; the lines before it are the
// human-readable report.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/kernel_verifier.h"
#include "analysis/loop_partition.h"
#include "api/vdep.h"
#include "cache/disk_cache.h"
#include "cache/serialize.h"
#include "codegen/emit_c.h"
#include "codegen/rewrite.h"
#include "core/suite.h"
#include "dep/pdm.h"
#include "dsl/parser.h"
#include "exec/interpreter.h"
#include "inspect/executor.h"
#include "inspect/inspector.h"
#include "jit/toolchain.h"
#include "loopir/builder.h"
#include "obs/metrics.h"
#include "runtime/stream_executor.h"
#include "topo/affinity.h"
#include "topo/topology.h"
#include "trans/planner.h"

using namespace vdep;
using intlin::i64;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

constexpr const char* kEntry = "vdep_range_kernel";
/// Set-up runs at least kSetupMinReps times per run, and more (up to
/// kSetupMaxReps) while the repetitions so far took under kSetupBudgetS of
/// real time; setup_s is the median. Sub-millisecond set-ups thus get enough
/// repetitions for a steady median, second-long ones stay affordable.
constexpr int kSetupMinReps = 7;
constexpr int kSetupMaxReps = 201;
constexpr double kSetupBudgetS = 1.5;
/// Layer probes: repetitions per input (the median is kept).
constexpr int kProbeReps = 5;

// ------------------------------------------------------------ statistics

/// Nearest-rank quantile.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double geomean(const std::vector<double>& v) {
  double s = 0;
  int n = 0;
  for (double x : v)
    if (x > 0) {
      s += std::log(x);
      ++n;
    }
  return n ? std::exp(s / n) : 0;
}

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

/// The highest percentile with at least ten samples above it.
double tail_quantile(std::size_t n) {
  for (double q : {0.999, 0.99, 0.9, 0.75})
    if (static_cast<double>(n) * (1 - q) >= 10) return q;
  return 0.5;
}

std::string percentile_label(double q) {
  return q == 0.999 ? "p99.9" : "p" + std::to_string(static_cast<int>(q * 100 + 0.5));
}

const std::vector<double>& samples(const std::map<std::string, std::vector<double>>& m,
                                   const std::string& key) {
  static const std::vector<double> none;
  auto it = m.find(key);
  return it == m.end() ? none : it->second;
}

/// Latency samples grouped into request classes (a compile tier, a kernel,
/// a batch). The summaries factor the class mix out, so no class dominates.
struct Latencies {
  std::map<std::string, std::vector<double>> by_class;

  void add(const std::string& cls, double ms) { by_class[cls].push_back(ms); }
  double total_ms() const {
    double t = 0;
    for (const auto& [c, v] : by_class) t += sum(v);
    return t;
  }
  /// Geomean over classes of the class median.
  double p50() const {
    std::vector<double> m;
    for (const auto& [c, v] : by_class) m.push_back(median(v));
    return geomean(m);
  }
};

// ------------------------------------------------------------ reporting

struct JsonMetric {
  std::string name;
  double value;
  std::string unit;
};

struct Result {
  i64 attempted = 0;
  i64 failed = 0;
  bool self_check_ok = false;
  std::vector<JsonMetric> json;  ///< the final line's metrics

  void metric(const std::string& name, double v, const std::string& unit) {
    json.push_back({name, v, unit});
  }
};

/// An end-to-end metric line of the human-readable report.
void e2e(const std::string& name, double v, const char* unit, std::size_t n) {
  std::printf("e2e   %-26s = %-14.6g %-8s (n=%zu)\n", name.c_str(), v, unit, n);
}

/// A timing: its median, its p90 when that is a named metric, and the
/// highest percentile with ten samples beyond it.
void e2e_timing(const std::string& base, const std::vector<double>& ms, bool with_p90) {
  e2e(base + "_p50", median(ms), "ms", ms.size());
  if (with_p90) {
    e2e(base + "_p90", quantile(ms, 0.9), "ms", ms.size());
    if (ms.size() < 100)
      std::printf("note  %s_p90 has fewer than 10 samples beyond it\n", base.c_str());
  }
  double tq = tail_quantile(ms.size());
  if (tq > 0.9 || (!with_p90 && tq > 0.5))
    e2e(base + "_" + percentile_label(tq), quantile(ms, tq), "ms", ms.size());
}

/// A per-layer metric line, with the end-to-end metric and workload it
/// should move.
void layer(const std::string& name, double v, const char* unit, const char* moves) {
  std::printf("layer %-28s = %-14.6g %-6s -> %s\n", name.c_str(), v, unit, moves);
}

void emit_overhead(const std::string& name, double untraced, double traced) {
  std::printf("trace overhead %-22s untraced=%.6g traced=%.6g delta=%.6g (%.4f)\n",
              name.c_str(), untraced, traced, traced - untraced,
              untraced > 0 ? (traced - untraced) / untraced : 0);
}

// --------------------------------------------------------------- tracing

/// Spans around the public calls a traced request makes. Off, operator()
/// is a plain call, so untraced code paths pay one branch.
class Spans {
 public:
  explicit Spans(bool on) : on_(on) {}
  bool on() const { return on_; }

  template <typename F>
  auto operator()(const std::string& name, const std::string& cls, F&& f) -> decltype(f()) {
    if (!on_) return f();
    auto t0 = Clock::now();
    auto r = f();
    double d = ms_since(t0);
    recs_.push_back({name, cls, d});
    covered_ += d;
    return r;
  }

  void begin_request() { covered_ = 0; }
  void end_request(double wall_ms) {
    wall_total_ += wall_ms;
    covered_total_ += covered_;
  }
  /// Request wall minus the summed top-level spans, over request wall.
  double unattributed() const {
    return wall_total_ > 0 ? (wall_total_ - covered_total_) / wall_total_ : 0;
  }

  std::vector<double> of(const std::string& name, const std::string& cls = "") const {
    std::vector<double> v;
    for (const Rec& r : recs_)
      if (r.name == name && (cls.empty() || r.cls == cls)) v.push_back(r.ms);
    return v;
  }
  /// Median over classes of the per-class median of one span.
  double class_median(const std::string& name) const {
    std::map<std::string, std::vector<double>> per;
    for (const Rec& r : recs_)
      if (r.name == name) per[r.cls].push_back(r.ms);
    std::vector<double> m;
    for (const auto& [c, v] : per) m.push_back(median(v));
    return median(m);
  }
  /// Each span's share of request wall, then the workload's unattributed
  /// share: unattributed() where the spans split a request (compile_tiers),
  /// an estimate from layer probes where they cover it whole.
  void print_shares(double unattributed_share) const {
    std::map<std::string, double> tot;
    for (const Rec& r : recs_) tot[r.name] += r.ms;
    for (const auto& [name, t] : tot)
      std::printf("span  %-28s share of request wall = %.4f\n", name.c_str(),
                  wall_total_ > 0 ? t / wall_total_ : 0);
    std::printf("span  %-28s share of request wall = %.4f\n", "unattributed",
                unattributed_share);
  }

 private:
  struct Rec {
    std::string name;
    std::string cls;
    double ms;
  };
  bool on_;
  std::vector<Rec> recs_;
  double covered_ = 0;
  double wall_total_ = 0;
  double covered_total_ = 0;
};

/// Layer probes: timed calls into one layer's public function on one input,
/// outside any request. One value per input (the median of the reps).
class Probes {
 public:
  template <typename F>
  auto time(const std::string& name, int reps, F&& f) -> decltype(f()) {
    std::vector<double> t;
    for (int k = 0; k + 1 < reps; ++k) {
      auto t0 = Clock::now();
      (void)f();
      t.push_back(ms_since(t0));
    }
    auto t0 = Clock::now();
    auto r = f();
    t.push_back(ms_since(t0));
    ms_[name].push_back(median(t));
    return r;
  }
  void value(const std::string& name, double v) { ms_[name].push_back(v); }

  /// Median over inputs.
  double med(const std::string& name) const { return median(samples(ms_, name)); }
  double total(const std::string& name) const { return sum(samples(ms_, name)); }
  /// One value per probed input, in probe order.
  const std::vector<double>& values(const std::string& name) const { return samples(ms_, name); }

 private:
  std::map<std::string, std::vector<double>> ms_;
};

/// RuntimeStats counters summed over runs.
struct RunCounters {
  double runs = 0, tasks = 0, inner_splits = 0, steals = 0, failed_steals = 0;
  double idle_ns = 0, capacity_ns = 0;

  void add(const runtime::RuntimeStats& rs, std::size_t workers) {
    runs += 1;
    tasks += static_cast<double>(rs.total_tasks());
    inner_splits += static_cast<double>(rs.total_inner_splits());
    steals += static_cast<double>(rs.total_steals());
    failed_steals += static_cast<double>(rs.total_failed_steals());
    idle_ns += static_cast<double>(rs.total_idle_ns());
    capacity_ns += static_cast<double>(workers) * static_cast<double>(rs.wall_ns);
  }
  double idle_frac() const { return capacity_ns > 0 ? idle_ns / capacity_ns : 0; }
  double steal_success() const {
    return steals + failed_steals > 0 ? steals / (steals + failed_steals) : 0;
  }
  void print(const char* moves) const {
    double r = runs > 0 ? runs : 1;
    layer("runtime.tasks", tasks / r, "count", moves);
    layer("runtime.inner_splits", inner_splits / r, "count", moves);
    layer("runtime.steals", steals / r, "count", moves);
    layer("runtime.steal_success", steal_success(), "frac", moves);
    layer("runtime.idle_frac", idle_frac(), "frac", moves);
  }
};

// ---------------------------------------------------------------- inputs

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

i64 uniform(std::mt19937_64& rng, i64 lo, i64 hi) {
  return std::uniform_int_distribution<i64>(lo, hi)(rng);
}

/// One distinct input: a nest at concrete bounds plus its index-array
/// contents, and the digest of its sequential reference output.
struct Input {
  std::string name;
  loopir::LoopNest nest;
  bool indirect = false;
  std::vector<i64> index;  ///< contents of B for the indirect nests
  std::uint64_t ref = 0;
};

/// The benchmark's own output digest (word-wise FNV-1a over every array's
/// raw contents in name order) — independent of ArrayStore::checksum.
std::uint64_t digest(const exec::ArrayStore& s, const loopir::LoopNest& nest) {
  std::vector<std::string> names;
  for (const loopir::ArrayDecl& a : nest.arrays()) names.push_back(a.name);
  std::sort(names.begin(), names.end());
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::string& n : names) {
    for (char c : n) h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
    for (i64 v : s.raw(n)) h = (h ^ static_cast<std::uint64_t>(v)) * 0x100000001b3ull;
  }
  return h;
}

void apply_index(exec::ArrayStore& s, const Input& in) {
  if (!in.indirect) return;
  exec::ArrayStore::Buffer& b = s.raw_mutable("B");
  std::copy(in.index.begin(), in.index.end(), b.begin());
}

/// Restores `s` to `from` in place: the buffers keep their pages, so
/// resetting allocates nothing and peak RSS does not depend on the draw.
void reset_store(exec::ArrayStore& s, const exec::ArrayStore& from, const Input& in) {
  for (const loopir::ArrayDecl& a : in.nest.arrays()) {
    const exec::ArrayStore::Buffer& src = from.raw(a.name);
    std::copy(src.begin(), src.end(), s.raw_mutable(a.name).begin());
  }
}

exec::ArrayStore initial_store(const Input& in) {
  exec::ArrayStore s(in.nest);
  s.fill_pattern();
  apply_index(s, in);
  return s;
}

std::uint64_t reference_digest(const Input& in) {
  exec::ArrayStore s = initial_store(in);
  exec::run_sequential(in.nest, s);
  return digest(s, in.nest);
}

/// Flips one element: the --inject-mismatch fault and the self-check.
void corrupt(exec::ArrayStore& s, const loopir::LoopNest& nest) {
  exec::ArrayStore::Buffer& b = s.raw_mutable(nest.arrays().front().name);
  b[b.size() / 2] ^= 1;
}

/// The checker must count a corrupted store: run the reference path on a
/// fresh store, confirm it matches, corrupt it, confirm it no longer does.
bool self_check(const Input& in) {
  exec::ArrayStore s = initial_store(in);
  exec::run_sequential(in.nest, s);
  bool clean = digest(s, in.nest) == in.ref;
  corrupt(s, in.nest);
  bool caught = digest(s, in.nest) != in.ref;
  std::printf("check self_check clean_matches=%d corrupted_store_counted=%d\n", clean ? 1 : 0,
              caught ? 1 : 0);
  return clean && caught;
}

std::vector<std::string> suite_names() {
  std::vector<std::string> names;
  for (const core::NamedNest& c : core::paper_suite(4)) names.push_back(c.name);
  return names;
}

Input suite_input(const std::string& name, i64 n) {
  for (core::NamedNest& c : core::paper_suite(n))
    if (c.name == name) return Input{name, std::move(c.nest), false, {}, 0};
  std::fprintf(stderr, "perfbench: unknown suite kernel %s\n", name.c_str());
  std::exit(2);
}

/// A[B[i]] = A[B[i]] + C[i] over i in [0, n-1] (bench_inspector's nest).
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

/// The two indirect nests at n (a power of two). sparse_scatter: about four
/// iterations per target cell; permutation: a seeded bijection, so every
/// class is a singleton.
std::vector<Input> indirect_inputs(i64 n, std::mt19937_64& rng) {
  std::vector<Input> out;
  const std::uint64_t salt = rng();
  Input scatter{"sparse_scatter", scatter_nest(n, n / 4 - 1), true, {}, 0};
  scatter.index.resize(static_cast<std::size_t>(n));
  for (i64 i = 0; i < n; ++i)
    scatter.index[static_cast<std::size_t>(i)] = static_cast<i64>(
        mix(salt, static_cast<std::uint64_t>(i)) % static_cast<std::uint64_t>(n / 4));
  out.push_back(std::move(scatter));

  // A uniformly random permutation, so every seed scatters equally badly.
  Input perm{"permutation", scatter_nest(n, n - 1), true, {}, 0};
  perm.index.resize(static_cast<std::size_t>(n));
  std::iota(perm.index.begin(), perm.index.end(), i64{0});
  std::shuffle(perm.index.begin(), perm.index.end(), rng);
  out.push_back(std::move(perm));
  return out;
}

/// Digest of the generated inputs (bounds and index data), printed so a
/// reader (and the self-test) can see that a different seed changes them.
std::uint64_t inputs_digest(const std::vector<Input>& inputs) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto feed = [&](const std::string& s) {
    for (char c : s) h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
  };
  for (const Input& in : inputs) {
    feed(in.name);
    feed(bounds_render(in.nest));
    for (i64 v : in.index) h = (h ^ static_cast<std::uint64_t>(v)) * 0x100000001b3ull;
  }
  return h;
}

/// DSL text of a nest: explicit array declarations, then the nest.
std::string to_dsl(const loopir::LoopNest& nest) {
  std::string s;
  for (const loopir::ArrayDecl& a : nest.arrays()) {
    s += "array " + a.name + "[";
    for (std::size_t d = 0; d < a.dims.size(); ++d) {
      if (d) s += ", ";
      s += std::to_string(a.dims[d].first) + ":" + std::to_string(a.dims[d].second);
    }
    s += "]\n";
  }
  return s + nest.to_string();
}

// -------------------------------------------------------------- context

struct Ctx {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool inject = false;
  fs::path tmp;
  std::string git_sha = "unknown";
  std::size_t workers = 1;
};

std::size_t online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  return std::max(1u, std::thread::hardware_concurrency());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string first_line_of(const std::string& cmd) {
  std::string out;
  if (FILE* p = ::popen(cmd.c_str(), "r")) {
    char buf[256];
    if (std::fgets(buf, sizeof(buf), p)) out = buf;
    ::pclose(p);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) out.pop_back();
  return out;
}

void print_stamp(const Ctx& ctx) {
  std::optional<std::string> cc = jit::discover_toolchain();
  std::string cc_version = cc ? first_line_of("'" + *cc + "' --version 2>/dev/null") : "none";
  std::printf("stamp workload=%s seed=%llu seconds=%g trace=%d\n", ctx.workload.c_str(),
              static_cast<unsigned long long>(ctx.seed), ctx.seconds, ctx.trace ? 1 : 0);
  std::printf("stamp nproc=%zu workers=%zu compiler=\"%s\" build_type=%s git_sha=%s\n",
              online_cpus(), ctx.workers, __VERSION__, PERFBENCH_BUILD_TYPE,
              ctx.git_sha.c_str());
  std::printf("stamp cc=%s cc_identity=\"%s\"\n", cc ? cc->c_str() : "none",
              cc_version.c_str());
}

/// Counts request failures for error_rate: typed errors, output mismatches,
/// kJit requests that did not run native, indirect requests that did not run
/// the inspector. The first few are described on stderr.
struct Errors {
  i64 attempted = 0;
  i64 failed = 0;

  void count(const std::string& problem) {
    ++attempted;
    if (problem.empty()) return;
    if (failed++ < 5) std::fprintf(stderr, "perfbench: %s\n", problem.c_str());
  }
};

std::string verdict(const Expected<ExecReport>& rep, std::uint64_t got, const Input& in,
                    bool want_native) {
  if (!rep) return in.name + ": " + rep.error().to_string();
  if (got != in.ref) return in.name + ": output differs from the sequential reference";
  if (in.indirect && !rep->inspector)
    return in.name + ": indirect request did not run the inspector";
  if (!in.indirect && want_native && !rep->jit)
    return in.name + ": kJit request did not run native";
  return "";
}

void finish_errors(const Errors& err, Result& res) {
  res.attempted += err.attempted;
  res.failed += err.failed;
  e2e("error_rate",
      err.attempted ? static_cast<double>(err.failed) / static_cast<double>(err.attempted) : 0,
      "ratio", static_cast<std::size_t>(err.attempted));
  std::printf("check failed=%lld attempted=%lld\n", static_cast<long long>(err.failed),
              static_cast<long long>(err.attempted));
}

/// Runs body(k) for k in [0, n) on the pool. large_kernels' cc-heavy
/// set-up runs this way, as a server warms up: a serial set-up would time
/// only the cpu the client thread runs on, and on a shared host one cpu's
/// speed changes from run to run while the average over all of them holds
/// still. serve_batches's set-up is allocator-bound, so it rotates over the
/// cpus instead.
template <typename F>
void on_pool(ThreadPool& pool, std::size_t n, F&& body) {
  pool.parallel_for(static_cast<std::int64_t>(n),
                    [&](std::int64_t k) { body(static_cast<std::size_t>(k)); });
}

CompiledLoop compile_or_throw(const Compiler& c, const Input& in) {
  Expected<CompiledLoop> loop = c.compile(in.nest);
  if (!loop)
    throw std::runtime_error("set-up compile of " + in.name + " failed: " +
                             loop.error().to_string());
  return std::move(*loop);
}

struct SetupTime {
  double seconds = 0;  ///< median over the repetitions
  int reps = 0;
};

/// Runs `f` repeatedly (see kSetupMinReps); `f` rebuilds the workload's
/// library-side state from scratch (the last build is kept for measurement)
/// and returns the milliseconds it spent in library calls.
template <typename F>
SetupTime timed_setup(F&& f) {
  std::vector<double> s;
  const auto start = Clock::now();
  while (s.size() < static_cast<std::size_t>(kSetupMinReps) ||
         (s.size() < static_cast<std::size_t>(kSetupMaxReps) &&
          ms_since(start) < kSetupBudgetS * 1000)) {
    s.push_back(f() / 1000.0);
  }
  std::printf("note  setup repetitions: min %.6g s  p25 %.6g s  p75 %.6g s  max %.6g s\n",
              quantile(s, 0), quantile(s, 0.25), quantile(s, 0.75), quantile(s, 1));
  return {median(s), static_cast<int>(s.size())};
}

void print_setup(const SetupTime& st) {
  e2e("setup_s", st.seconds, "s", static_cast<std::size_t>(st.reps));
  e2e("peak_rss_mb", peak_rss_mb(), "MB", 1);
}

void json_end_to_end(Result& res, double latency_ms_p50, double throughput,
                     const SetupTime& st) {
  res.metric("latency_ms_p50", latency_ms_p50, "ms");
  res.metric("throughput_per_s", throughput, "1/s");
  res.metric("setup_s", st.seconds, "s");
  res.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

/// The per-layer metrics every workload reports in its JSON line (the
/// workload-specific ones are in the human-readable report only).
/// `unattributed` is the share Spans::print_shares reports.
void json_per_layer(Result& res, double unattributed, double overhead, const Probes& pr,
                    const RunCounters& probe_runs) {
  const double runs = probe_runs.runs > 0 ? probe_runs.runs : 1;
  res.metric("unattributed_frac", unattributed, "frac");
  res.metric("trace_overhead_frac", overhead, "frac");
  res.metric("loopir.validate_us", pr.med("loopir.validate") * 1e3, "us");
  res.metric("api.fingerprint_us", pr.med("api.fingerprint") * 1e3, "us");
  res.metric("dep.pdm_us", pr.med("dep.pdm") * 1e3, "us");
  res.metric("trans.plan_us", pr.med("trans.plan") * 1e3, "us");
  res.metric("codegen.rewrite_us", pr.med("codegen.rewrite") * 1e3, "us");
  res.metric("codegen.emit_us", pr.med("codegen.emit") * 1e3, "us");
  res.metric("analysis.partition_us", pr.med("analysis.partition") * 1e3, "us");
  res.metric("analysis.verify_us", pr.med("analysis.verify") * 1e3, "us");
  res.metric("runtime.executor_build_us", pr.med("runtime.executor_build") * 1e3, "us");
  res.metric("runtime.run_ms", pr.med("runtime.run"), "ms");
  res.metric("runtime.tasks", probe_runs.tasks / runs, "count");
  res.metric("runtime.inner_splits", probe_runs.inner_splits / runs, "count");
  res.metric("runtime.steals", probe_runs.steals / runs, "count");
  res.metric("runtime.steal_success", probe_runs.steal_success(), "frac");
  res.metric("runtime.idle_frac", probe_runs.idle_frac(), "frac");
  res.metric("exec.store_build_ms", pr.med("exec.store_build"), "ms");
  res.metric("exec.checksum_ms", pr.med("exec.checksum"), "ms");
}

/// The compile layers' products for one affine nest.
struct CompileProducts {
  trans::TransformPlan plan;
  std::string source;    ///< the C the JIT would compile
  jit::CompileMeta meta; ///< partitioned + -O3 when the verifier admitted it
};

/// Probes the compile layers on one affine nest, in the order the JIT runs
/// them: validate, fingerprint, PDM, plan, rewrite, partition analysis,
/// emission and (for partitioned kernels) the static verifier.
CompileProducts probe_compile_layers(Probes& pr, const loopir::LoopNest& nest) {
  pr.time("loopir.validate", kProbeReps, [&] {
    nest.validate();
    return 0;
  });
  pr.time("api.fingerprint", kProbeReps, [&] {
    return structural_fingerprint(nest).key.size() + bounds_render(nest).size();
  });
  dep::Pdm pdm = pr.time("dep.pdm", kProbeReps, [&] { return dep::compute_pdm(nest); });
  CompileProducts out;
  out.plan = pr.time("trans.plan", kProbeReps, [&] { return trans::plan_transform(pdm); });
  const trans::TransformPlan& plan = out.plan;
  codegen::TransformedNest tn =
      pr.time("codegen.rewrite", kProbeReps, [&] { return codegen::rewrite_nest(nest, plan); });
  std::optional<analysis::LoopPartition> part;
  if (plan.num_doall > 0)
    part = pr.time("analysis.partition", kProbeReps,
                   [&] { return analysis::analyze_partition(tn.nest, plan.num_doall); });
  out.source = pr.time("codegen.emit", kProbeReps, [&] {
    return part ? codegen::emit_c_partitioned_range_kernel(nest, plan, *part, kEntry)
                : codegen::emit_c_range_kernel(nest, plan, kEntry);
  });
  if (part) {
    analysis::VerifierReport vr = pr.time("analysis.verify", kProbeReps, [&] {
      return analysis::verify_partitioned_kernel(nest, tn.nest, plan.num_doall, *part,
                                                 out.source);
    });
    if (vr.ok) {
      out.meta.opt_flags = "-O3";
      out.meta.partitioned = true;
    } else {
      out.source = codegen::emit_c_range_kernel(nest, plan, kEntry);
    }
  }
  return out;
}

/// Probes store build, executor build, one runtime run (through `kernel`
/// when given, else the scan path) and the store checksum on one input.
void probe_runtime_layers(Probes& pr, RunCounters& rc, const Ctx& ctx, const Input& in,
                          const trans::TransformPlan& plan, const jit::NativeKernel* kernel,
                          ThreadPool& pool) {
  runtime::StreamOptions so;
  so.num_threads = ctx.workers;
  pr.time("runtime.executor_build", kProbeReps,
          [&] { return std::make_unique<runtime::StreamExecutor>(in.nest, plan, so); });
  runtime::StreamExecutor ex(in.nest, plan, so);
  exec::ArrayStore store = pr.time("exec.store_build", kProbeReps, [&] {
    exec::ArrayStore s(in.nest);
    s.fill_pattern();
    return s;
  });
  const exec::ArrayStore init = store;
  std::vector<double> t;
  for (int k = 0; k < kProbeReps; ++k) {
    store = init;
    auto t0 = Clock::now();
    runtime::RuntimeStats rs = kernel ? ex.run(store, *kernel, pool) : ex.run(store, pool);
    t.push_back(ms_since(t0));
    rc.add(rs, ctx.workers);
  }
  pr.value("runtime.run", median(t));
  pr.time("exec.checksum", kProbeReps, [&] { return store.checksum(); });
}

// ========================================================= compile_tiers

struct TierPhase {
  Latencies lat;  ///< request ms; classes = tiers
  double requests = 0;
  double jit_runs = 0, partitioned_runs = 0;
  double cc_builds_cold = 0, cc_builds_disk = 0;
  double cold_requests = 0, disk_requests = 0;
  double disk_hits = 0, disk_probes = 0;
  double plan_hits = 0, plan_lookups = 0;
};

/// Largest compile_tiers bound: 20, except variable_3deep, whose arrays grow
/// as (10n)^2 * n; a larger draw there would make peak RSS depend on the seed.
i64 tier_cap(const std::string& name) { return name == "variable_3deep" ? 8 : 20; }

int run_compile_tiers(const Ctx& ctx, Result& res) {
  std::mt19937_64 rng(mix(ctx.seed, 1));
  std::vector<Input> inputs;
  for (const std::string& name : suite_names())
    inputs.push_back(suite_input(name, uniform(rng, 4, tier_cap(name))));
  std::vector<std::string> texts;
  for (const Input& in : inputs) texts.push_back(to_dsl(in.nest));
  std::printf("stamp inputs=%016llx kernels=%zu load=closed-loop clients=1 backend=kJit\n",
              static_cast<unsigned long long>(inputs_digest(inputs)), inputs.size());

  jit::JitOptions jo;
  jo.work_dir = (ctx.tmp / "jit").string();
  std::unique_ptr<ThreadPool> pool;
  // The library's own start-up before a first request: the worker pool,
  // toolchain discovery (ToolchainCompiler's constructor, which also sweeps
  // stale work directories) and the toolchain identity disk-cache keys use.
  const SetupTime setup = timed_setup([&] {
    pool.reset();
    auto t0 = Clock::now();
    pool = std::make_unique<ThreadPool>(ctx.workers);
    jit::ToolchainCompiler tc(jo);
    if (tc.available()) (void)jit::toolchain_identity(*tc.compiler_path());
    return ms_since(t0);
  });
  for (Input& in : inputs) in.ref = reference_digest(in);
  res.self_check_ok = self_check(inputs.front());

  Errors err;
  int phase_id = 0;
  // One measurement phase: whole rounds until `seconds` have passed.
  auto phase = [&](double seconds, Spans& sp) {
    TierPhase ph;
    const int id = phase_id++;
    if (sp.on()) obs::MetricsRegistry::instance().enable();
    obs::Counter& builds = obs::MetricsRegistry::instance().counter("vdep_jit_builds_total");
    std::vector<std::size_t> order(inputs.size());
    std::iota(order.begin(), order.end(), 0);
    auto start = Clock::now();
    for (int round = 0; round == 0 || ms_since(start) < seconds * 1000; ++round) {
      std::shuffle(order.begin(), order.end(), rng);
      fs::path dir = ctx.tmp / ("tiers-" + std::to_string(id) + "-" + std::to_string(round));
      jit::JitOptions rj = jo;
      rj.cache_dir = dir.string();
      ExecPolicy policy;
      policy.threads(ctx.workers).backend(ExecBackend::kJit).jit_options(rj);
      CompileOptions co;
      co.disk_cache(dir.string()).pool_threads(ctx.workers);
      bool injected = !ctx.inject;

      auto serve = [&](const Compiler& c, std::size_t idx, const std::string& tier) {
        const Input& in = inputs[idx];
        Expected<ExecReport> rep = ApiError{ErrorKind::kInternal, "not executed"};
        std::optional<exec::ArrayStore> store;
        sp.begin_request();
        auto t0 = Clock::now();
        // compile(text) + execute(kJit), issued as the public calls they
        // make first (parse, compile(nest), jit), so spans can split them.
        Expected<loopir::LoopNest> nest =
            sp("dsl.parse", in.name, [&] { return dsl::try_parse_loop_nest(texts[idx]); });
        Expected<CompiledLoop> loop =
            nest ? sp("api.compile." + tier, in.name, [&] { return c.compile(*nest); })
                 : Expected<CompiledLoop>(nest.error());
        if (loop) {
          (void)sp("api.jit." + tier, in.name, [&] { return loop->jit(rj); });
          store.emplace(sp("exec.store_build", in.name, [&] {
            exec::ArrayStore s(loop->nest());
            s.fill_pattern();
            return s;
          }));
          rep = sp("api.execute", in.name, [&] { return loop->execute(policy, *store, *pool); });
        } else {
          rep = loop.error();
        }
        double ms = ms_since(t0);
        sp.end_request(ms);
        ph.lat.add(tier, ms);
        ph.requests += 1;
        if (store && !injected) {
          corrupt(*store, in.nest);
          injected = true;
        }
        err.count(verdict(rep, store ? digest(*store, in.nest) : 0, in, true));
        if (rep) {
          ph.jit_runs += rep->jit ? 1 : 0;
          ph.partitioned_runs += rep->jit_partitioned ? 1 : 0;
        }
      };

      {
        Compiler cold(co);
        i64 b0 = builds.value();
        for (std::size_t idx : order) serve(cold, idx, "cold");
        ph.cc_builds_cold += static_cast<double>(builds.value() - b0);
        ph.cold_requests += static_cast<double>(inputs.size());
        CacheStats cs = cold.cache_stats();
        ph.plan_hits += static_cast<double>(cs.hits);
        ph.plan_lookups += static_cast<double>(cs.hits + cs.misses);
      }
      {
        Compiler warm(co);
        i64 b0 = builds.value();
        for (std::size_t idx : order) serve(warm, idx, "disk_warm");
        ph.cc_builds_disk += static_cast<double>(builds.value() - b0);
        ph.disk_requests += static_cast<double>(inputs.size());
        for (std::size_t idx : order) serve(warm, idx, "mem_warm");
        CacheStats cs = warm.cache_stats();
        ph.plan_hits += static_cast<double>(cs.hits);
        ph.plan_lookups += static_cast<double>(cs.hits + cs.misses);
      }
      if (auto disk = cache::DiskCache::resolve(dir.string(), true)) {
        cache::DiskCacheStats ds = disk->stats();
        ph.disk_hits += static_cast<double>(ds.hits);
        ph.disk_probes += static_cast<double>(ds.hits + ds.misses);
      }
      std::error_code ec;
      fs::remove_all(dir, ec);
    }
    return ph;
  };

  auto print_e2e = [&](const TierPhase& ph) {
    e2e_timing("cold_ms", samples(ph.lat.by_class, "cold"), true);
    e2e_timing("disk_warm_ms", samples(ph.lat.by_class, "disk_warm"), true);
    e2e_timing("mem_warm_ms", samples(ph.lat.by_class, "mem_warm"), false);
  };

  Spans off(false);
  TierPhase base = phase(ctx.trace ? ctx.seconds / 2 : ctx.seconds, off);
  print_e2e(base);
  print_setup(setup);

  if (!ctx.trace) {
    finish_errors(err, res);
    json_end_to_end(res, base.lat.p50(), base.requests / (base.lat.total_ms() / 1000.0),
                    setup);
    return 0;
  }

  Spans sp(true);
  TierPhase tr = phase(ctx.seconds / 2, sp);
  std::printf("traced run (spans around each public call of a request):\n");
  print_e2e(tr);
  for (const char* tier : {"cold", "disk_warm", "mem_warm"})
    emit_overhead(std::string(tier) + "_ms_p50", median(samples(base.lat.by_class, tier)),
                  median(samples(tr.lat.by_class, tier)));
  const double overhead = base.lat.p50() > 0 ? tr.lat.p50() / base.lat.p50() - 1 : 0;

  // Layer probes on the same inputs, outside any request.
  Probes pr;
  RunCounters probe_runs;
  jit::JitOptions keep = jo;
  keep.keep_artifacts = true;
  keep.disk_cache = false;
  jit::ToolchainCompiler tc(keep);
  std::shared_ptr<cache::DiskCache> probe_cache =
      cache::DiskCache::open((ctx.tmp / "probe-cache").string());
  for (const Input& in : inputs) {
    const CompileProducts cp = probe_compile_layers(pr, in.nest);
    const trans::TransformPlan& plan = cp.plan;
    const std::string& src = cp.source;
    pr.time("jit.toolchain_probe", kProbeReps, [&] {
      std::optional<std::string> cc = jit::discover_toolchain();
      return cc ? jit::toolchain_identity(*cc) : std::string();
    });
    std::vector<std::string> arrays;
    for (const loopir::ArrayDecl& a : in.nest.arrays()) arrays.push_back(a.name);
    auto kernel =
        pr.time("jit.cc", 1, [&] { return tc.compile_source(src, kEntry, arrays, cp.meta); });
    if (probe_cache) {
      const std::string fp = structural_fingerprint(in.nest).key;
      const std::string pkey = cache::plan_cache_key("perfbench", fp);
      LoopAnalysis la;
      la.pdm = dep::compute_pdm(in.nest);
      la.rank = la.pdm.rank();
      LoopPlan lp;
      lp.transform = plan;
      lp.legal = true;
      auto t0 = Clock::now();
      probe_cache->store_plan(pkey, la, lp);
      double store_ms = ms_since(t0);
      pr.time("cache.plan_load", kProbeReps, [&] { return probe_cache->load_plan(pkey); });
      if (kernel) {
        const std::string kkey =
            cache::kernel_cache_key("perfbench", fp, bounds_render(in.nest), "", "probe");
        cache::KernelMeta km;
        km.entry = kEntry;
        km.arrays = arrays;
        km.source = src;
        t0 = Clock::now();
        probe_cache->store_kernel(kkey, km, (*kernel)->library_path());
        store_ms += ms_since(t0);
        pr.time("cache.kernel_load", kProbeReps, [&] { return probe_cache->load_kernel(kkey); });
      }
      pr.value("cache.store", store_ms);
    }
    probe_runtime_layers(pr, probe_runs, ctx, in, plan, kernel ? kernel->get() : nullptr,
                         *pool);
  }

  const char* mem = "mem_warm_ms_p50 on compile_tiers";
  const char* cold = "cold_ms_p50 on compile_tiers";
  const char* cold90 = "cold_ms_p50/cold_ms_p90 on compile_tiers";
  const char* disk = "disk_warm_ms_p50 on compile_tiers";
  std::printf("per-layer metrics (traced run; probes are medians over kernels):\n");
  layer("dsl.parse_us", sp.class_median("dsl.parse") * 1e3, "us", mem);
  layer("loopir.validate_us", pr.med("loopir.validate") * 1e3, "us", mem);
  layer("api.fingerprint_us", pr.med("api.fingerprint") * 1e3, "us", mem);
  layer("api.compile_us", sp.class_median("api.compile.mem_warm") * 1e3, "us", mem);
  layer("api.plan_cache_hit_rate", tr.plan_lookups > 0 ? tr.plan_hits / tr.plan_lookups : 0,
        "frac", "requests_per_s on serve_batches");
  layer("cache.plan_load_us", pr.med("cache.plan_load") * 1e3, "us", disk);
  layer("cache.kernel_load_us", pr.med("cache.kernel_load") * 1e3, "us", disk);
  layer("cache.store_us", pr.med("cache.store") * 1e3, "us", disk);
  layer("cache.hit_rate", tr.disk_probes > 0 ? tr.disk_hits / tr.disk_probes : 0, "frac", disk);
  layer("api.jit_disk_ms", sp.class_median("api.jit.disk_warm"), "ms", disk);
  layer("dep.pdm_us", pr.med("dep.pdm") * 1e3, "us", cold);
  layer("trans.plan_us", pr.med("trans.plan") * 1e3, "us", cold);
  layer("codegen.rewrite_us", pr.med("codegen.rewrite") * 1e3, "us", cold);
  layer("codegen.emit_us", pr.med("codegen.emit") * 1e3, "us", cold);
  layer("analysis.partition_us", pr.med("analysis.partition") * 1e3, "us", cold);
  layer("analysis.verify_us", pr.med("analysis.verify") * 1e3, "us", cold);
  {
    double analysis_ms = pr.total("dep.pdm") + pr.total("trans.plan") +
                         pr.total("codegen.rewrite") + pr.total("codegen.emit") +
                         pr.total("analysis.partition") + pr.total("analysis.verify");
    double cold_ms = 0;
    for (const Input& in : inputs)
      cold_ms += median(sp.of("api.compile.cold", in.name)) +
                 median(sp.of("api.jit.cold", in.name));
    std::printf("share of cold compile+jit spent in pdm+plan+rewrite+emit+partition+verify "
                "= %.4f\n",
                cold_ms > 0 ? analysis_ms / cold_ms : 0);
  }
  layer("jit.toolchain_probe_us", pr.med("jit.toolchain_probe") * 1e3, "us", cold);
  layer("jit.cc_ms", pr.med("jit.cc"), "ms", cold90);
  layer("jit.cc_invocations", tr.cold_requests > 0 ? tr.cc_builds_cold / tr.cold_requests : 0,
        "count", cold90);
  std::printf("check jit.cc_invocations per disk-warm request = %.4f (expect 0)\n",
              tr.disk_requests > 0 ? tr.cc_builds_disk / tr.disk_requests : 0);
  layer("api.jit_cold_ms", sp.class_median("api.jit.cold"), "ms", cold90);
  {
    double jit_cold = sp.class_median("api.jit.cold");
    double inside = pr.med("codegen.rewrite") + pr.med("analysis.partition") +
                    pr.med("codegen.emit") + pr.med("analysis.verify") + pr.med("jit.cc") +
                    pr.med("cache.store");
    std::printf("span  api.jit.cold unattributed inside (not rewrite, partition, emit, verify, "
                "cc, cache store) = %.4f\n",
                jit_cold > 0 ? 1 - inside / jit_cold : 0);
  }
  layer("analysis.partitioned_frac", tr.jit_runs > 0 ? tr.partitioned_runs / tr.jit_runs : 0,
        "frac", "affine_points_per_s on large_kernels");
  layer("runtime.executor_build_us", pr.med("runtime.executor_build") * 1e3, "us", mem);
  layer("exec.store_build_ms", sp.class_median("exec.store_build"), "ms", mem);
  layer("exec.checksum_ms", pr.med("exec.checksum"), "ms", mem);
  {
    double exec_ms = sp.class_median("api.execute");
    double inside =
        pr.med("runtime.executor_build") + pr.med("runtime.run") + pr.med("exec.checksum");
    layer("api.execute_glue_frac", exec_ms > 0 ? 1 - inside / exec_ms : 0, "frac", mem);
  }
  layer("runtime.run_ms", pr.med("runtime.run"), "ms", mem);
  probe_runs.print(mem);
  sp.print_shares(sp.unattributed());

  finish_errors(err, res);
  json_per_layer(res, sp.unattributed(), overhead, pr, probe_runs);
  return 0;
}

// ========================================================= large_kernels

/// Large bounds per suite kernel: a few hundred thousand iterations where
/// the arrays stay small. example_4_1 and variable_3deep declare arrays far
/// larger than their iteration spaces, so they run smaller;
/// uniform_wavefront stays at its overflow-safe limit.
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

/// The indirect nests' trip count. 2^18 rather than bench_inspector's 2^20:
/// inspection plus interpreted execution at 2^20 takes about a second per
/// request and 340 MB, which would leave a run a handful of samples.
constexpr i64 kIndirectN = i64{1} << 18;
/// Each affine kernel runs this many times per round (an indirect request
/// costs about as much as all of them together).
constexpr int kAffineRepeats = 8;

int run_large_kernels(const Ctx& ctx, Result& res) {
  std::mt19937_64 rng(mix(ctx.seed, 2));
  std::vector<Input> inputs;
  for (const std::string& name : suite_names()) {
    // A seeded bound at most 2% below the base: inputs change, work barely.
    i64 base = large_bound(name);
    inputs.push_back(suite_input(name, base - uniform(rng, 0, base / 50)));
  }
  for (Input& in : indirect_inputs(kIndirectN, rng)) inputs.push_back(std::move(in));
  std::printf("stamp inputs=%016llx kernels=%zu load=closed-loop clients=1 "
              "backend=kJit(affine)/inspector(indirect)\n",
              static_cast<unsigned long long>(inputs_digest(inputs)), inputs.size());

  jit::JitOptions jo;
  jo.work_dir = (ctx.tmp / "jit").string();
  std::unique_ptr<Compiler> compiler;
  std::vector<CompiledLoop> loops;
  std::vector<exec::ArrayStore> init;
  int setup_id = 0;
  const SetupTime setup = timed_setup([&] {
    loops.clear();
    compiler.reset();
    fs::path dir = ctx.tmp / ("large-cache-" + std::to_string(setup_id++));
    jo.cache_dir = dir.string();
    auto t0 = Clock::now();
    compiler = std::make_unique<Compiler>(
        CompileOptions{}.disk_cache(dir.string()).pool_threads(ctx.workers));
    std::vector<std::optional<CompiledLoop>> built(inputs.size());
    on_pool(compiler->pool(), inputs.size(), [&](std::size_t k) {
      const Input& in = inputs[k];
      built[k].emplace(compile_or_throw(*compiler, in));
      if (!in.indirect) (void)built[k]->jit(jo);
    });
    for (std::optional<CompiledLoop>& loop : built) loops.push_back(std::move(*loop));
    return ms_since(t0);
  });
  // The input stores (about 150 MB) are built once, off the set-up clock:
  // rebuilt per repetition, their time would follow the allocator's reuse
  // of the freed ones, and built on the pool, the workers' malloc arenas
  // would make peak RSS vary.
  for (const Input& in : inputs) init.push_back(initial_store(in));
  for (Input& in : inputs) in.ref = reference_digest(in);
  res.self_check_ok = self_check(inputs.front());

  ExecPolicy policy;
  policy.threads(ctx.workers).backend(ExecBackend::kJit).jit_options(jo).digest(false);
  ThreadPool& pool = compiler->pool();
  std::vector<exec::ArrayStore> work = init;
  std::vector<i64> iterations;
  for (const Input& in : inputs) iterations.push_back(in.nest.iteration_count());
  Errors err;

  struct Phase {
    Latencies lat;                                   ///< classes = kernels
    std::map<std::string, std::vector<double>> pps;  ///< points/s per kernel
    double jit_runs = 0, partitioned_runs = 0;
    std::map<std::string, double> classes, chains;  ///< per indirect nest
  };
  auto phase = [&](double seconds, Spans& sp) {
    Phase ph;
    std::vector<std::size_t> order;
    for (std::size_t idx = 0; idx < inputs.size(); ++idx)
      order.insert(order.end(), inputs[idx].indirect ? 1 : kAffineRepeats, idx);
    auto start = Clock::now();
    for (int round = 0; round == 0 || ms_since(start) < seconds * 1000; ++round) {
      std::shuffle(order.begin(), order.end(), rng);
      bool injected = !ctx.inject;
      for (std::size_t idx : order) {
        const Input& in = inputs[idx];
        reset_store(work[idx], init[idx], in);
        sp.begin_request();
        auto t0 = Clock::now();
        Expected<ExecReport> rep = sp("api.execute", in.name,
                                      [&] { return loops[idx].execute(policy, work[idx], pool); });
        double ms = ms_since(t0);
        sp.end_request(ms);
        ph.lat.add(in.name, ms);
        if (!injected) {
          corrupt(work[idx], in.nest);
          injected = true;
        }
        err.count(verdict(rep, digest(work[idx], in.nest), in, true));
        if (!rep) continue;
        ph.pps[in.name].push_back(static_cast<double>(rep->iterations) / (ms / 1000.0));
        if (!in.indirect) {
          ph.jit_runs += 1;
          ph.partitioned_runs += rep->jit_partitioned ? 1 : 0;
        } else {
          ph.classes[in.name] = static_cast<double>(rep->inspector_classes);
          ph.chains[in.name] = static_cast<double>(rep->inspector_chains);
        }
      }
    }
    return ph;
  };
  // Geomean over one group's kernels (affine or indirect) of each kernel's
  // median, of points/s (ph.pps) or of request ms (ph.lat.by_class).
  auto group = [&](const std::map<std::string, std::vector<double>>& per_kernel,
                   bool indirect) {
    std::vector<double> m;
    for (const Input& in : inputs)
      if (in.indirect == indirect) m.push_back(median(samples(per_kernel, in.name)));
    return geomean(m);
  };
  // The JSON metrics weigh the two groups equally, so a 2x change in either
  // moves them by about 41%; over all 13 kernels, the 2 indirect nests would
  // move them by only 11%.
  auto balanced = [&](const std::map<std::string, std::vector<double>>& per_kernel) {
    return std::sqrt(group(per_kernel, false) * group(per_kernel, true));
  };
  auto count = [&](const Phase& ph, bool indirect) {
    std::size_t n = 0;
    for (const Input& in : inputs)
      if (in.indirect == indirect) n += samples(ph.pps, in.name).size();
    return n;
  };
  auto print_e2e = [&](const Phase& ph) {
    e2e("affine_points_per_s", group(ph.pps, false), "points/s", count(ph, false));
    e2e("indirect_points_per_s", group(ph.pps, true), "points/s", count(ph, true));
    for (std::size_t k = 0; k < inputs.size(); ++k) {
      const std::vector<double>& v = samples(ph.lat.by_class, inputs[k].name);
      double tq = tail_quantile(v.size());
      std::printf("kernel %-20s iterations=%-9lld p50 %.4f ms  %s %.4f ms  (n=%zu)\n",
                  inputs[k].name.c_str(), static_cast<long long>(iterations[k]), median(v),
                  percentile_label(tq).c_str(), quantile(v, tq), v.size());
    }
  };

  Spans off(false);
  Phase base = phase(ctx.trace ? ctx.seconds / 2 : ctx.seconds, off);
  print_e2e(base);
  print_setup(setup);

  if (!ctx.trace) {
    finish_errors(err, res);
    json_end_to_end(res, balanced(base.lat.by_class), balanced(base.pps), setup);
    return 0;
  }

  Spans sp(true);
  Phase tr = phase(ctx.seconds / 2, sp);
  std::printf("traced run (spans around each public call of a request):\n");
  print_e2e(tr);
  emit_overhead("affine_points_per_s", group(base.pps, false), group(tr.pps, false));
  emit_overhead("indirect_points_per_s", group(base.pps, true), group(tr.pps, true));
  const double base_latency = balanced(base.lat.by_class);
  const double overhead = base_latency > 0 ? balanced(tr.lat.by_class) / base_latency - 1 : 0;

  Probes pr;
  RunCounters probe_runs;
  RunCounters inspect_runs;
  for (std::size_t idx = 0; idx < inputs.size(); ++idx) {
    const Input& in = inputs[idx];
    if (!in.indirect) {
      const trans::TransformPlan plan = probe_compile_layers(pr, in.nest).plan;
      auto kernel = loops[idx].jit(jo);
      probe_runtime_layers(pr, probe_runs, ctx, in, plan, kernel ? kernel->get() : nullptr,
                           pool);
      continue;
    }
    exec::ArrayStore store = init[idx];
    inspect::DynamicPartition part =
        pr.time("inspect.inspect", 3, [&] { return inspect::inspect(in.nest, store); });
    inspect::InspectorExecOptions io;
    io.num_threads = ctx.workers;
    inspect::InspectorExecutor ex(in.nest, part, io);
    std::vector<double> t;
    for (int k = 0; k < 3; ++k) {
      store = init[idx];
      auto t0 = Clock::now();
      runtime::RuntimeStats rs = ex.run(store, pool);
      t.push_back(ms_since(t0));
      inspect_runs.add(rs, ctx.workers);
    }
    pr.value("inspect.exec", median(t));
  }

  const char* affine = "affine_points_per_s on large_kernels";
  const char* indirect = "indirect_points_per_s on large_kernels";
  const char* setup_on = "setup_s on large_kernels";
  std::printf("per-layer metrics (traced run; probes are medians over kernels):\n");
  layer("loopir.validate_us", pr.med("loopir.validate") * 1e3, "us", setup_on);
  layer("api.fingerprint_us", pr.med("api.fingerprint") * 1e3, "us", setup_on);
  layer("dep.pdm_us", pr.med("dep.pdm") * 1e3, "us", setup_on);
  layer("trans.plan_us", pr.med("trans.plan") * 1e3, "us", setup_on);
  layer("codegen.rewrite_us", pr.med("codegen.rewrite") * 1e3, "us", affine);
  layer("codegen.emit_us", pr.med("codegen.emit") * 1e3, "us", setup_on);
  layer("analysis.partition_us", pr.med("analysis.partition") * 1e3, "us", setup_on);
  layer("analysis.verify_us", pr.med("analysis.verify") * 1e3, "us", setup_on);
  layer("analysis.partitioned_frac", tr.jit_runs > 0 ? tr.partitioned_runs / tr.jit_runs : 0,
        "frac", affine);
  layer("runtime.executor_build_us", pr.med("runtime.executor_build") * 1e3, "us", affine);
  layer("exec.store_build_ms", pr.med("exec.store_build"), "ms", setup_on);
  layer("exec.checksum_ms", pr.med("exec.checksum"), "ms", "nothing here (digest off)");
  layer("runtime.run_ms", pr.med("runtime.run"), "ms", affine);
  {
    double exec_ms = 0;
    for (const Input& in : inputs)
      if (!in.indirect) exec_ms += median(sp.of("api.execute", in.name));
    double inside = pr.total("runtime.executor_build") + pr.total("runtime.run");
    layer("api.execute_glue_frac", exec_ms > 0 ? 1 - inside / exec_ms : 0, "frac", affine);
  }
  probe_runs.print(affine);
  layer("inspect.inspect_ms", pr.med("inspect.inspect"), "ms", indirect);
  layer("inspect.exec_ms", pr.med("inspect.exec"), "ms", indirect);
  // Summed over the two indirect nests; the breakdown follows.
  double classes = 0, chains = 0;
  for (const auto& [name, v] : tr.classes) classes += v;
  for (const auto& [name, v] : tr.chains) chains += v;
  layer("inspect.classes", classes, "count", indirect);
  layer("inspect.chains", chains, "count", indirect);
  for (const auto& [name, v] : tr.classes)
    std::printf("note  %s: inspect.classes=%.0f inspect.chains=%.0f\n", name.c_str(), v,
                tr.chains.at(name));
  layer("inspect.idle_frac", inspect_runs.idle_frac(), "frac", indirect);

  // One span (execute) covers each request, so the unattributed share is
  // estimated from the probes: each kernel's median execute time, weighted
  // by its requests per round, minus the probed executor build + run
  // (affine) or inspection + inspected run (indirect).
  double request_ms = 0;
  for (const Input& in : inputs)
    request_ms += (in.indirect ? 1 : kAffineRepeats) * median(sp.of("api.execute", in.name));
  const double layers_ms =
      kAffineRepeats * (pr.total("runtime.executor_build") + pr.total("runtime.run")) +
      pr.total("inspect.inspect") + pr.total("inspect.exec");
  const double unattributed = request_ms > 0 ? 1 - layers_ms / request_ms : 0;
  sp.print_shares(unattributed);

  finish_errors(err, res);
  json_per_layer(res, unattributed, overhead, pr, probe_runs);
  return 0;
}

// ========================================================= serve_batches

constexpr std::size_t kBatch = 64;
constexpr int kBoundsPerKernel = 8;
/// Batches per requests_per_s window (about 0.2 s of serving).
constexpr std::size_t kRpsWindow = 64;

/// Largest serving bound per kernel: 40, except uniform_wavefront (int64
/// overflow past ~28) and variable_3deep (its array grows as (10n)^2 * n).
i64 serve_cap(const std::string& name) {
  if (name == "uniform_wavefront") return 20;
  if (name == "variable_3deep") return 12;
  return 40;
}

int run_serve_batches(const Ctx& ctx, Result& res) {
  std::mt19937_64 rng(mix(ctx.seed, 3));
  // Per kernel, kBoundsPerKernel bounds stratified over [4, cap], the top
  // one pinned at cap, so every seed draws a similar size mix and the same
  // largest working set.
  std::vector<Input> inputs;
  for (const std::string& name : suite_names()) {
    const i64 lo = 4, cap = serve_cap(name), span = cap - lo + 1;
    for (int s = 0; s + 1 < kBoundsPerKernel; ++s)
      inputs.push_back(suite_input(name, uniform(rng, lo + span * s / kBoundsPerKernel,
                                                 lo + span * (s + 1) / kBoundsPerKernel - 1)));
    inputs.push_back(suite_input(name, cap));
  }
  std::printf("stamp inputs=%016llx distinct=%zu batch=%zu load=closed-loop clients=1 "
              "backend=kCompiled digest=off\n",
              static_cast<unsigned long long>(inputs_digest(inputs)), inputs.size(), kBatch);

  std::unique_ptr<Compiler> compiler;
  std::vector<exec::ArrayStore> init;
  // The first min(nproc, 4) allowed cpus, as many as there are workers, so
  // set-up cost does not grow with the host's cpu count.
  std::vector<int> cpus = topo::allowed_cpus();
  if (cpus.size() > ctx.workers) cpus.resize(ctx.workers);
  const std::size_t passes = std::max<std::size_t>(1, cpus.size());
  (void)topo::Topology::system();  // memoize the full mask before pinning below
  const SetupTime setup = timed_setup([&] {
    // The serial part (plans and stores; parallel building would contend on
    // the allocator) runs once pinned to each of those cpus and is charged
    // at its mean: on a shared host one cpu's speed changes from run to run,
    // the average over several holds still.
    double ms = 0;
    for (std::size_t c = 0; c < passes; ++c) {
      init.clear();
      compiler.reset();
      std::optional<topo::AffinityGuard> pin;
      if (!cpus.empty()) pin.emplace(cpus[c]);
      auto t0 = Clock::now();
      compiler = std::make_unique<Compiler>(CompileOptions{}.pool_threads(ctx.workers));
      for (const Input& in : inputs) {
        (void)compile_or_throw(*compiler, in);
        init.push_back(initial_store(in));
      }
      ms += ms_since(t0) / static_cast<double>(passes);
    }
    auto t0 = Clock::now();
    compiler->pool();  // unpinned, so the workers keep the full mask
    return ms + ms_since(t0);
  });
  for (Input& in : inputs) in.ref = reference_digest(in);
  res.self_check_ok = self_check(inputs.front());

  ExecPolicy policy;
  policy.threads(ctx.workers).backend(ExecBackend::kCompiled).digest(false);
  ThreadPool& pool = compiler->pool();
  std::vector<exec::ArrayStore> work = init;  ///< one per distinct input
  std::vector<std::size_t> order(inputs.size());
  std::iota(order.begin(), order.end(), 0);
  Errors err;

  struct Phase {
    std::vector<double> batch_ms;
    std::vector<double> queue_ms;
    double hits = 0, lookups = 0;
    double run_batch_ms = 0;     ///< summed per-batch max ExecReport::wall_ns
    std::vector<double> picked;  ///< batches each input was drawn into
  };
  auto phase = [&](double seconds, Spans& sp) {
    Phase ph;
    ph.picked.assign(inputs.size(), 0);
    CacheStats before = compiler->cache_stats();
    auto start = Clock::now();
    for (int round = 0; round == 0 || ms_since(start) < seconds * 1000; ++round) {
      // Draw the batch (distinct inputs, so each request owns its input's
      // store) and reset its stores off the clock.
      std::shuffle(order.begin(), order.end(), rng);
      const std::vector<std::size_t> pick(order.begin(),
                                          order.begin() + static_cast<std::ptrdiff_t>(kBatch));
      std::vector<loopir::LoopNest> nests;
      for (std::size_t idx : pick) {
        nests.push_back(inputs[idx].nest);
        reset_store(work[idx], init[idx], inputs[idx]);
      }
      Expected<std::vector<ExecReport>> reps = ApiError{ErrorKind::kInternal, "not executed"};
      sp.begin_request();
      auto t0 = Clock::now();
      Expected<std::vector<CompiledLoop>> loops =
          sp("api.compile_all", "batch", [&] { return compiler->compile_all(nests); });
      if (loops) {
        std::vector<BatchRequest> reqs;
        reqs.reserve(kBatch);
        for (std::size_t k = 0; k < kBatch; ++k)
          reqs.push_back(BatchRequest{(*loops)[k], &work[pick[k]]});
        reps = sp("runtime.batch_exec", "batch",
                  [&] { return vdep::execute_batch(reqs, policy, pool); });
      } else {
        reps = loops.error();
      }
      double ms = ms_since(t0);
      sp.end_request(ms);
      ph.batch_ms.push_back(ms);
      if (reps) {
        i64 last = 0;
        for (const ExecReport& r : *reps) last = std::max(last, r.wall_ns);
        ph.run_batch_ms += static_cast<double>(last) / 1e6;
      }
      for (std::size_t idx : pick) ph.picked[idx] += 1;
      for (std::size_t k = 0; k < kBatch; ++k) {
        const Input& in = inputs[pick[k]];
        if (ctx.inject && k == 0) corrupt(work[pick[k]], in.nest);
        Expected<ExecReport> rep =
            reps ? Expected<ExecReport>((*reps)[k]) : Expected<ExecReport>(reps.error());
        err.count(verdict(rep, digest(work[pick[k]], in.nest), in, false));
        if (rep) ph.queue_ms.push_back(static_cast<double>(rep->queue_ns) / 1e6);
      }
    }
    CacheStats after = compiler->cache_stats();
    ph.hits = static_cast<double>(after.hits - before.hits);
    ph.lookups = ph.hits + static_cast<double>(after.misses - before.misses);
    return ph;
  };
  // Requests over busy wall time per window of kRpsWindow consecutive
  // batches, median over windows: a stall on a shared host then moves the
  // windows it falls in, not the whole run's figure.
  auto rps = [](const Phase& ph) {
    std::vector<double> w;
    for (std::size_t b = 0; b < ph.batch_ms.size(); b += kRpsWindow) {
      const std::size_t e = std::min(ph.batch_ms.size(), b + kRpsWindow);
      double ms = 0;
      for (std::size_t k = b; k < e; ++k) ms += ph.batch_ms[k];
      w.push_back(static_cast<double>((e - b) * kBatch) / (ms / 1000.0));
    }
    return median(w);
  };
  auto print_e2e = [&](const Phase& ph) {
    e2e("requests_per_s", rps(ph), "1/s", ph.batch_ms.size());
    e2e_timing("batch_ms", ph.batch_ms, true);
  };

  Spans off(false);
  Phase base = phase(ctx.trace ? ctx.seconds / 2 : ctx.seconds, off);
  print_e2e(base);
  print_setup(setup);

  if (!ctx.trace) {
    finish_errors(err, res);
    json_end_to_end(res, median(base.batch_ms), rps(base), setup);
    return 0;
  }

  Spans sp(true);
  Phase tr = phase(ctx.seconds / 2, sp);
  std::printf("traced run (spans around each public call of a request):\n");
  print_e2e(tr);
  emit_overhead("requests_per_s", rps(base), rps(tr));
  emit_overhead("batch_ms_p50", median(base.batch_ms), median(tr.batch_ms));
  const double overhead = median(tr.batch_ms) / median(base.batch_ms) - 1;

  Probes pr;
  RunCounters probe_runs;
  for (const Input& in : inputs) {
    const trans::TransformPlan plan = probe_compile_layers(pr, in.nest).plan;
    probe_runtime_layers(pr, probe_runs, ctx, in, plan, nullptr, pool);
  }

  const char* rps_on = "requests_per_s on serve_batches";
  const char* p50 = "batch_ms_p50 on serve_batches";
  const char* p90 = "batch_ms_p90 on serve_batches";
  const char* setup_on = "setup_s on serve_batches";
  std::printf("per-layer metrics (traced run; probes are medians over distinct inputs):\n");
  layer("api.compile_all_us", median(sp.of("api.compile_all")) * 1e3, "us", rps_on);
  layer("api.plan_cache_hit_rate", tr.lookups > 0 ? tr.hits / tr.lookups : 0, "frac", rps_on);
  layer("loopir.validate_us", pr.med("loopir.validate") * 1e3, "us", rps_on);
  layer("api.fingerprint_us", pr.med("api.fingerprint") * 1e3, "us", rps_on);
  layer("dep.pdm_us", pr.med("dep.pdm") * 1e3, "us", setup_on);
  layer("trans.plan_us", pr.med("trans.plan") * 1e3, "us", setup_on);
  layer("codegen.rewrite_us", pr.med("codegen.rewrite") * 1e3, "us", p50);
  layer("codegen.emit_us", pr.med("codegen.emit") * 1e3, "us", "nothing here (kCompiled)");
  layer("analysis.partition_us", pr.med("analysis.partition") * 1e3, "us",
        "nothing here (kCompiled)");
  layer("analysis.verify_us", pr.med("analysis.verify") * 1e3, "us", "nothing here (kCompiled)");
  layer("runtime.batch_exec_ms", median(sp.of("runtime.batch_exec")), "ms", rps_on);
  layer("runtime.queue_ms_p50", median(tr.queue_ms), "ms", rps_on);
  layer("runtime.executor_build_us", pr.med("runtime.executor_build") * 1e3, "us", p50);
  layer("exec.store_build_ms", pr.med("exec.store_build"), "ms", setup_on);
  layer("exec.checksum_ms", pr.med("exec.checksum"), "ms", "nothing here (digest off)");
  layer("runtime.run_ms", pr.med("runtime.run"), "ms", p90);
  probe_runs.print(p90);

  // Two spans (compile_all, execute_batch) cover each request, so the
  // unattributed share is estimated inside execute_batch: its wall minus
  // run_batch's (the batch's latest ExecReport::wall_ns) and each request's
  // executor build (the probe on its input). What remains is the rest of
  // the per-group set-up (scan-prototype builds and rebinds), root seeding
  // and report assembly.
  const double request_ms = sum(tr.batch_ms);
  const std::vector<double>& builds = pr.values("runtime.executor_build");
  double layers_ms = sum(sp.of("api.compile_all")) + tr.run_batch_ms;
  for (std::size_t idx = 0; idx < builds.size(); ++idx) layers_ms += tr.picked[idx] * builds[idx];
  const double unattributed = request_ms > 0 ? 1 - layers_ms / request_ms : 0;
  std::printf("span  %-28s share of request wall = %.4f (from ExecReport::wall_ns)\n",
              "runtime.run_batch", request_ms > 0 ? tr.run_batch_ms / request_ms : 0);
  sp.print_shares(unattributed);

  finish_errors(err, res);
  json_per_layer(res, unattributed, overhead, pr, probe_runs);
  return 0;
}

// ------------------------------------------------------------------ main

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: vdep_perfbench --workload "
               "compile_tiers|large_kernels|serve_batches --seed N --seconds S "
               "--trace 0|1 --tmp DIR [--git-sha SHA] [--inject-mismatch]\n",
               why.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  // Nothing outside the command may change what is measured. The library
  // reads these at static-init or call time, so they must already be unset.
  for (const char* var : {"VDEP_CACHE_DIR", "VDEP_CACHE_MAX_BYTES", "VDEP_TRACE",
                          "VDEP_METRICS", "VDEP_PIN", "VDEP_CC"})
    if (std::getenv(var)) {
      std::fprintf(stderr, "perfbench: %s is set; run through perfbench/run.py\n", var);
      return 2;
    }

  Ctx ctx;
  for (int k = 1; k < argc; ++k) {
    const std::string a = argv[k];
    auto next = [&]() -> std::string {
      if (k + 1 >= argc) usage("missing value for " + a);
      return argv[++k];
    };
    if (a == "--workload") ctx.workload = next();
    else if (a == "--seed") ctx.seed = std::stoull(next());
    else if (a == "--seconds") ctx.seconds = std::stod(next());
    else if (a == "--trace") ctx.trace = next() != "0";
    else if (a == "--tmp") ctx.tmp = next();
    else if (a == "--git-sha") ctx.git_sha = next();
    else if (a == "--inject-mismatch") ctx.inject = true;
    else usage("unknown argument " + a);
  }
  if (ctx.tmp.empty() || !fs::is_directory(ctx.tmp)) usage("--tmp must name a directory");
  if (!(ctx.seconds > 0)) usage("--seconds must be positive");
  ctx.workers = std::min<std::size_t>(online_cpus(), 4);

  int (*run)(const Ctx&, Result&) = nullptr;
  if (ctx.workload == "compile_tiers") run = run_compile_tiers;
  else if (ctx.workload == "large_kernels") run = run_large_kernels;
  else if (ctx.workload == "serve_batches") run = run_serve_batches;
  else usage("unknown workload '" + ctx.workload + "'");

  print_stamp(ctx);
  Result res;
  try {
    if (int rc = run(ctx, res); rc != 0) return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              res.failed == 0 && res.self_check_ok ? "true" : "false",
              static_cast<long long>(res.attempted), static_cast<long long>(res.failed));
  for (std::size_t k = 0; k < res.json.size(); ++k)
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", k ? ", " : "",
                res.json[k].name.c_str(), res.json[k].value, res.json[k].unit.c_str());
  std::printf("}}\n");
  return 0;
}
