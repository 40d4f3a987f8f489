// Tests for the on-disk artifact cache (src/cache/): envelope integrity,
// plan/kernel round trips across fresh sessions, counter-verified zero-cc
// warm starts, corruption and toolchain-upgrade behaviour, LRU eviction,
// multi-process fork stress with bit-identical execution, and the
// cold-start bugfixes that ride along (stale workdir sweep, PATH hygiene).
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "api/vdep.h"
#include "cache/disk_cache.h"
#include "cache/serialize.h"
#include "core/suite.h"
#include "exec/array_store.h"
#include "dep/pdm.h"
#include "exec/interpreter.h"
#include "jit/toolchain.h"
#include "obs/metrics.h"
#include "trans/planner.h"

namespace vdep {
namespace {

namespace fs = std::filesystem;
using intlin::i64;

bool have_toolchain() { return jit::discover_toolchain().has_value(); }

/// Restores an environment variable on scope exit.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_ = old != nullptr;
    if (had_) old_ = old;
    if (value)
      ::setenv(name, value, 1);
    else
      ::unsetenv(name);
  }
  ~ScopedEnv() {
    if (had_)
      ::setenv(name_.c_str(), old_.c_str(), 1);
    else
      ::unsetenv(name_.c_str());
  }

 private:
  std::string name_, old_;
  bool had_ = false;
};

/// A fresh directory under the system temp root, removed on scope exit.
class TempDir {
 public:
  explicit TempDir(const char* tag) {
    std::string templ =
        (fs::temp_directory_path() / (std::string("vdep-") + tag + "-XXXXXX"))
            .string();
    std::vector<char> buf(templ.begin(), templ.end());
    buf.push_back('\0');
    path_ = ::mkdtemp(buf.data());
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// A 1-D indirect nest `A[B[i]] = A[B[i]] + C[i]`: no static PDM, the plan
/// degrades to the inspector identity plan — which must round-trip too.
loopir::LoopNest indirect_nest(i64 n) {
  loopir::LoopNestBuilder b;
  b.loop("i", 0, n - 1);
  b.array("A", {{0, n}});
  b.array("B", {{0, n - 1}});
  b.array("C", {{0, n - 1}});
  loopir::ArrayRef lhs;
  lhs.array = "A";
  lhs.subscripts = {b.cst(0)};
  lhs.indirect = {loopir::IndirectSubscript{"B", b.idx(0)}};
  loopir::ArrayRef rhs_a = lhs;
  b.assign(lhs, loopir::Expr::add(loopir::Expr::read(rhs_a),
                                  loopir::Expr::read(b.ref("C", {b.idx(0)}))));
  return b.build();
}

i64 counter_value(const char* name) {
  return obs::MetricsRegistry::instance().counter(name).value();
}

/// Enables metrics for the test body and restores the prior state.
class ScopedMetrics {
 public:
  ScopedMetrics() : was_(obs::MetricsRegistry::enabled()) {
    obs::MetricsRegistry::instance().enable();
  }
  ~ScopedMetrics() {
    if (!was_) obs::MetricsRegistry::instance().disable();
  }

 private:
  bool was_;
};

// -------------------------------------------------------------- envelope

TEST(Envelope, RoundTripsAndRejectsDamage) {
  std::string body = "the artifact body \0 with embedded nul";
  std::string enc = cache::envelope(body);
  auto back = cache::open_envelope(enc);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, body);

  // Truncation at every point fails the length or digest check.
  for (std::size_t cut : {enc.size() - 1, enc.size() / 2, std::size_t{3}})
    EXPECT_FALSE(cache::open_envelope(enc.substr(0, cut)).has_value());
  // Appended garbage is not silently ignored.
  EXPECT_FALSE(cache::open_envelope(enc + "x").has_value());
  // A single flipped body bit fails the digest.
  std::string flipped = enc;
  flipped[flipped.size() - 1] ^= 0x40;
  EXPECT_FALSE(cache::open_envelope(flipped).has_value());
  // Wrong magic is a different format, not a parse attempt.
  std::string magic = enc;
  magic[0] = 'X';
  EXPECT_FALSE(cache::open_envelope(magic).has_value());
}

// ------------------------------------------------------- plan round trips

TEST(PlanDiskCache, SecondSessionLoadsPlanFromDisk) {
  TempDir dir("plancache");
  loopir::LoopNest nest = core::example42(12);

  Compiler first(CompileOptions{}.disk_cache(dir.path()));
  auto a = first.compile(nest);
  ASSERT_TRUE(a.has_value()) << a.error().to_string();

  auto disk = cache::DiskCache::resolve(dir.path(), true);
  ASSERT_NE(disk, nullptr);
  auto before = disk->stats();

  // A fresh session has a cold in-memory cache; the plan must come off
  // disk, not from a second full analysis.
  Compiler second(CompileOptions{}.disk_cache(dir.path()));
  auto b = second.compile(nest);
  ASSERT_TRUE(b.has_value()) << b.error().to_string();
  EXPECT_GT(disk->stats().hits, before.hits);

  // The loaded plan is the same certified plan, not a lookalike.
  EXPECT_TRUE(b->plan().legal);
  EXPECT_EQ(b->plan().doall_loops, a->plan().doall_loops);
  EXPECT_EQ(b->plan().partition_classes, a->plan().partition_classes);
  EXPECT_EQ(b->plan().transform.t.to_string(), a->plan().transform.t.to_string());
  EXPECT_EQ(b->analysis().pdm.matrix().to_string(),
            a->analysis().pdm.matrix().to_string());
  EXPECT_EQ(b->analysis().rank, a->analysis().rank);
}

TEST(PlanDiskCache, NonAffinePlansRoundTripToo) {
  TempDir dir("planindirect");
  loopir::LoopNest nest = indirect_nest(16);

  Compiler first(CompileOptions{}.disk_cache(dir.path()));
  auto a = first.compile(nest);
  ASSERT_TRUE(a.has_value()) << a.error().to_string();
  ASSERT_FALSE(a->analysis().affine);

  auto disk = cache::DiskCache::resolve(dir.path(), true);
  ASSERT_NE(disk, nullptr);
  auto before = disk->stats();
  Compiler second(CompileOptions{}.disk_cache(dir.path()));
  auto b = second.compile(nest);
  ASSERT_TRUE(b.has_value()) << b.error().to_string();
  EXPECT_GT(disk->stats().hits, before.hits);
  EXPECT_FALSE(b->analysis().affine);
  EXPECT_EQ(b->plan().doall_loops, 0);
}

TEST(PlanDiskCache, CorruptedPlanFilesAreRecompiledNotCrashed) {
  TempDir dir("plancorrupt");
  loopir::LoopNest nest = core::example41(10);

  {
    Compiler c(CompileOptions{}.disk_cache(dir.path()));
    ASSERT_TRUE(c.compile(nest).has_value());
  }

  // Damage every stored plan three ways across three rounds: truncate,
  // bit-flip, replace with garbage. Every round must compile fine and
  // repopulate the cache.
  for (int round = 0; round < 3; ++round) {
    for (const auto& de : fs::directory_iterator(dir.path() + "/plans")) {
      fs::path p = de.path();
      std::ifstream in(p, std::ios::binary);
      std::string bytes((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
      in.close();
      if (round == 0 && bytes.size() > 8) bytes.resize(bytes.size() / 2);
      if (round == 1 && !bytes.empty()) bytes[bytes.size() / 2] ^= 0x20;
      if (round == 2) bytes = "not an artifact at all";
      std::ofstream out(p, std::ios::binary | std::ios::trunc);
      out << bytes;
    }
    Compiler c(CompileOptions{}.disk_cache(dir.path()));
    auto loop = c.compile(nest);
    ASSERT_TRUE(loop.has_value()) << "round " << round;
    EXPECT_TRUE(loop->plan().legal);
  }
}

TEST(PlanDiskCache, DisabledSwitchAndMissingEnvMeanNoDiskTraffic) {
  TempDir dir("plandisabled");
  ScopedEnv env("VDEP_CACHE_DIR", nullptr);
  Compiler off(CompileOptions{}.disk_cache(dir.path()).disk_cache_enabled(false));
  ASSERT_TRUE(off.compile(core::example42(8)).has_value());
  EXPECT_TRUE(!fs::exists(dir.path() + "/plans") ||
              fs::is_empty(dir.path() + "/plans"));

  // No directory configured anywhere: resolve yields no cache.
  EXPECT_EQ(cache::DiskCache::resolve("", true), nullptr);
}

TEST(PlanDiskCache, EnvHookEngagesTheCache) {
  TempDir dir("planenv");
  ScopedEnv env("VDEP_CACHE_DIR", dir.path().c_str());
  Compiler c;  // no explicit dir: $VDEP_CACHE_DIR drives it
  ASSERT_TRUE(c.compile(core::example42(9)).has_value());
  bool stored = false;
  for (const auto& de : fs::directory_iterator(dir.path() + "/plans"))
    stored |= de.path().extension() == ".plan";
  EXPECT_TRUE(stored);
}

// --------------------------------------------------------------- kernels

TEST(KernelDiskCache, FreshSessionServesKernelWithZeroCcInvocations) {
  if (!have_toolchain()) GTEST_SKIP() << "no C toolchain";
  TempDir dir("kerncache");
  ScopedMetrics metrics;
  loopir::LoopNest nest = core::example42(16);
  jit::JitOptions jo;
  jo.cache_dir = dir.path();

  exec::ArrayStore ref(nest);
  ref.fill_pattern();
  exec::ArrayStore init = ref;
  exec::run_sequential(nest, ref);

  i64 cold_checksum = 0;
  {
    Compiler c(CompileOptions{}.disk_cache(dir.path()));
    auto loop = c.compile(nest);
    ASSERT_TRUE(loop.has_value());
    auto k = loop->jit(jo);
    ASSERT_TRUE(k.has_value()) << k.error().to_string();
    exec::ArrayStore got = init;
    ExecPolicy policy;
    policy.threads(2).backend(ExecBackend::kJit).jit_options(jo);
    auto rep = loop->execute(policy, got);
    ASSERT_TRUE(rep.has_value());
    EXPECT_TRUE(rep->jit);
    EXPECT_TRUE(ref == got);
    cold_checksum = rep->checksum;
  }

  // Fresh session: cold in-memory memos, warm disk. The kernel must load
  // with ZERO cc subprocesses — that is the whole point of the cache.
  i64 builds_before = counter_value("vdep_jit_builds_total");
  {
    Compiler c(CompileOptions{}.disk_cache(dir.path()));
    auto loop = c.compile(nest);
    ASSERT_TRUE(loop.has_value());
    auto k = loop->jit(jo);
    ASSERT_TRUE(k.has_value()) << k.error().to_string();
    EXPECT_TRUE((*k)->library_path().empty());  // default lifecycle holds
    exec::ArrayStore got = init;
    ExecPolicy policy;
    policy.threads(2).backend(ExecBackend::kJit).jit_options(jo);
    auto rep = loop->execute(policy, got);
    ASSERT_TRUE(rep.has_value());
    EXPECT_TRUE(rep->jit);
    EXPECT_TRUE(ref == got);           // bit-identical store
    EXPECT_EQ(rep->checksum, cold_checksum);
  }
  EXPECT_EQ(counter_value("vdep_jit_builds_total"), builds_before)
      << "warm-disk start still invoked cc";
}

/// indirect_nest(n) with B holding `value_of(i)`; fill_pattern() data.
exec::ArrayStore indirect_store(const loopir::LoopNest& nest,
                                i64 (*value_of)(i64)) {
  exec::ArrayStore store(nest);
  store.fill_pattern();
  const i64 b_len = nest.array("B").dims.front().second + 1;
  for (i64 i = 0; i < b_len; ++i)
    store.write("B", intlin::Vec{i}, value_of(i));
  return store;
}

// Indirect nests' row kernels take the same disk-cache path as range
// kernels: a fresh session runs kJit natively with zero cc subprocesses.
TEST(KernelDiskCache, FreshSessionServesRowKernelWithZeroCcInvocations) {
  if (!have_toolchain()) GTEST_SKIP() << "no C toolchain";
  TempDir dir("rowcache");
  ScopedMetrics metrics;
  loopir::LoopNest nest = indirect_nest(256);
  jit::JitOptions jo;
  jo.cache_dir = dir.path();
  const exec::ArrayStore init =
      indirect_store(nest, [](i64 i) { return i * 7 % 64; });
  exec::ArrayStore ref = init;
  exec::run_sequential(nest, ref);

  auto run_session = [&] {
    Compiler c(CompileOptions{}.disk_cache(dir.path()));
    CompiledLoop loop = c.compile(nest).value();
    exec::ArrayStore got = init;
    auto rep = loop.execute(
        ExecPolicy{}.threads(4).backend(ExecBackend::kJit).jit_options(jo),
        got);
    ASSERT_TRUE(rep.has_value()) << rep.error().to_string();
    EXPECT_TRUE(rep->inspector);
    EXPECT_TRUE(rep->jit);
    EXPECT_TRUE(ref == got);
  };
  const i64 cold_before = counter_value("vdep_jit_builds_total");
  run_session();
  EXPECT_EQ(counter_value("vdep_jit_builds_total"), cold_before + 1)
      << "the cold session did not build the row kernel";
  const i64 warm_before = counter_value("vdep_jit_builds_total");
  run_session();
  EXPECT_EQ(counter_value("vdep_jit_builds_total"), warm_before)
      << "warm-disk start still invoked cc";
}

// A cached library for an indirect nest whose metadata names another
// entry than the row kernel's (here the earlier "vdep_row_kernel", whose
// third argument meant something else) must miss: the cache key can stay
// the same across such a change (a build outside git keeps the build id
// "dev"), so the entry name is what tells the two ABIs apart. The planted
// library exports that entry and returns -1 at once, so a run that called
// it would fail; the request must rebuild, run native and bit-identical,
// and the store must overwrite the planted entry.
TEST(KernelDiskCache, RowKernelHitNamingAnotherEntryIsRebuilt) {
  const std::optional<std::string> cc = jit::discover_toolchain();
  if (!cc) GTEST_SKIP() << "no C toolchain";
  TempDir dir("rowentry");
  ScopedMetrics metrics;
  loopir::LoopNest nest = indirect_nest(256);
  jit::JitOptions jo;
  jo.cache_dir = dir.path();
  const exec::ArrayStore init =
      indirect_store(nest, [](i64 i) { return i * 5 % 64; });
  exec::ArrayStore ref = init;
  exec::run_sequential(nest, ref);
  auto run_session = [&] {
    Compiler c(CompileOptions{}.disk_cache(dir.path()));
    CompiledLoop loop = c.compile(nest).value();
    exec::ArrayStore got = init;
    auto rep = loop.execute(
        ExecPolicy{}.threads(4).backend(ExecBackend::kJit).jit_options(jo),
        got);
    ASSERT_TRUE(rep.has_value()) << rep.error().to_string();
    EXPECT_TRUE(rep->jit);
    EXPECT_TRUE(ref == got);
  };
  run_session();

  // The one cached kernel's key, from its metadata.
  std::optional<cache::KernelMeta> meta;
  for (const auto& de : fs::directory_iterator(dir.path() + "/kernels")) {
    if (de.path().extension() != ".meta") continue;
    std::ifstream f(de.path(), std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(f)),
                            std::istreambuf_iterator<char>());
    meta = cache::deserialize_kernel_meta(bytes);
  }
  ASSERT_TRUE(meta && meta->ok);
  ASSERT_EQ(meta->entry, "vdep_resolved_row_kernel");

  const std::string c_file = dir.path() + "/old.c";
  const std::string so_file = dir.path() + "/old.so";
  std::ofstream(c_file)
      << "#include <stdint.h>\n"
         "int64_t vdep_row_kernel(int64_t** a, const int64_t* r,\n"
         "    const int64_t* m, int64_t d, int64_t lo, int64_t hi) {\n"
         "  (void)a; (void)r; (void)m; (void)d; (void)lo; (void)hi;\n"
         "  return -1;\n}\n";
  ASSERT_EQ(std::system((*cc + " -O2 -fPIC -shared -x c " + c_file + " -o " +
                         so_file)
                            .c_str()),
            0);
  cache::KernelMeta old = *meta;
  old.entry = "vdep_row_kernel";
  std::shared_ptr<cache::DiskCache> disk = cache::DiskCache::open(dir.path());
  ASSERT_TRUE(disk);
  ASSERT_TRUE(disk->store_kernel(meta->key, old, so_file));
  ASSERT_EQ(disk->load_kernel(meta->key)->meta.entry, "vdep_row_kernel");

  const i64 builds = counter_value("vdep_jit_builds_total");
  run_session();
  EXPECT_EQ(counter_value("vdep_jit_builds_total"), builds + 1)
      << "the planted entry was not rebuilt";
  EXPECT_EQ(disk->load_kernel(meta->key)->meta.entry,
            "vdep_resolved_row_kernel");
  const i64 warm = counter_value("vdep_jit_builds_total");
  run_session();
  EXPECT_EQ(counter_value("vdep_jit_builds_total"), warm)
      << "the rebuilt entry was not served from disk";
}

// The row kernel indexes buffers unchecked, so inspection must stop a
// hostile index array — an index value outside A, or a position outside B —
// typed, before any write and before the kernel is even built: the first
// kJit request of a cold structure must not start cc when it fails.
TEST(KernelDiskCache, HostileIndexArrayUnderJitFailsTypedBeforeAnyCc) {
  if (!have_toolchain()) GTEST_SKIP() << "no C toolchain";
  constexpr i64 n = 4096;
  ScopedMetrics metrics;
  for (bool bad_position : {false, true}) {
    TempDir dir("rowhostile");  // an empty cache: any kernel would need cc
    jit::JitOptions jo;
    jo.cache_dir = dir.path();
    const ExecPolicy policy =
        ExecPolicy{}.backend(ExecBackend::kJit).jit_options(jo);
    // indirect_nest(n) with B cut to half the trip count for a position
    // outside B.
    loopir::LoopNest nest = indirect_nest(n);
    if (bad_position) {
      std::vector<loopir::ArrayDecl> arrays = nest.arrays();
      for (loopir::ArrayDecl& a : arrays)
        if (a.name == "B") a.dims = {{0, n / 2 - 1}};
      nest = loopir::LoopNest(nest.levels(), arrays, nest.body());
    }
    Compiler compiler;
    CompiledLoop loop = compiler.compile(nest).value();
    exec::ArrayStore store =
        indirect_store(nest, [](i64 i) { return i % 8; });
    // A value far past A's declared [0, n].
    if (!bad_position) store.write("B", intlin::Vec{n / 2}, i64{1} << 40);
    const exec::ArrayStore before = store;
    const i64 builds = counter_value("vdep_jit_builds_total");
    for (std::size_t threads : {1u, 8u}) {
      auto rep = loop.execute(ExecPolicy(policy).threads(threads), store);
      const std::string where =
          std::string(bad_position ? "position" : "value") + " @" +
          std::to_string(threads);
      ASSERT_FALSE(rep.has_value()) << where;
      EXPECT_EQ(rep.error().kind, ErrorKind::kPrecondition) << where;
      EXPECT_TRUE(store == before) << where << " wrote before failing";
    }
    EXPECT_EQ(counter_value("vdep_jit_builds_total"), builds)
        << "a failed inspection started cc";
    // Not vacuous: with the index array repaired, the same request builds
    // the kernel and runs native.
    if (!bad_position) {
      store.write("B", intlin::Vec{n / 2}, 0);
      exec::ArrayStore ref = store;
      exec::run_sequential(nest, ref);
      auto rep = loop.execute(ExecPolicy(policy).threads(8), store);
      ASSERT_TRUE(rep.has_value()) << rep.error().to_string();
      EXPECT_TRUE(rep->jit);
      EXPECT_TRUE(store == ref);
      EXPECT_EQ(counter_value("vdep_jit_builds_total"), builds + 1);
    }
  }
}

TEST(KernelDiskCache, VerifierVerdictSurvivesReload) {
  if (!have_toolchain()) GTEST_SKIP() << "no C toolchain";
  TempDir dir("kernverdict");
  jit::JitOptions jo;
  jo.cache_dir = dir.path();
  loopir::LoopNest nest = core::example42(16);

  std::string cold_verdict;
  bool cold_partitioned = false;
  {
    Compiler c;
    auto loop = c.compile(nest);
    ASSERT_TRUE(loop.has_value());
    auto k = loop->jit(jo);
    ASSERT_TRUE(k.has_value());
    cold_verdict = (*k)->partition_verdict();
    cold_partitioned = (*k)->partitioned();
  }
  Compiler c;
  auto loop = c.compile(nest);
  ASSERT_TRUE(loop.has_value());
  auto k = loop->jit(jo);
  ASSERT_TRUE(k.has_value());
  EXPECT_EQ((*k)->partitioned(), cold_partitioned);
  EXPECT_EQ((*k)->partition_verdict(), cold_verdict);
  EXPECT_FALSE((*k)->source().empty());
}

TEST(KernelDiskCache, DeterministicCompileFailureIsCachedAcrossSessions) {
  if (!have_toolchain()) GTEST_SKIP() << "no C toolchain";
  TempDir dir("kernnegative");
  ScopedMetrics metrics;
  jit::JitOptions bad;
  bad.cache_dir = dir.path();
  bad.extra_flags = "--definitely-not-a-flag-xyz";
  loopir::LoopNest nest = core::example41(8);

  {
    Compiler c;
    auto loop = c.compile(nest);
    ASSERT_TRUE(loop.has_value());
    auto k = loop->jit(bad);
    ASSERT_FALSE(k.has_value());
    EXPECT_EQ(k.error().kind, ErrorKind::kUnsupported);
  }
  // Fresh session: the failure must come from the negative disk entry, not
  // a second doomed cc run.
  i64 builds_before = counter_value("vdep_jit_builds_total");
  Compiler c;
  auto loop = c.compile(nest);
  ASSERT_TRUE(loop.has_value());
  auto k = loop->jit(bad);
  ASSERT_FALSE(k.has_value());
  EXPECT_EQ(k.error().kind, ErrorKind::kUnsupported);
  EXPECT_EQ(counter_value("vdep_jit_builds_total"), builds_before);
}

TEST(KernelDiskCache, CorruptedSoIsRejectedAndRebuilt) {
  if (!have_toolchain()) GTEST_SKIP() << "no C toolchain";
  TempDir dir("kerncorrupt");
  ScopedMetrics metrics;
  jit::JitOptions jo;
  jo.cache_dir = dir.path();
  loopir::LoopNest nest = core::example42(14);

  {
    Compiler c;
    auto loop = c.compile(nest);
    ASSERT_TRUE(loop.has_value());
    ASSERT_TRUE(loop->jit(jo).has_value());
  }
  // Flip bits in every cached .so; digests must catch it and recompile.
  for (const auto& de : fs::directory_iterator(dir.path() + "/kernels")) {
    if (de.path().extension() != ".so") continue;
    std::fstream f(de.path(), std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(64);
    f.put('\x5a');
  }
  i64 builds_before = counter_value("vdep_jit_builds_total");
  Compiler c;
  auto loop = c.compile(nest);
  ASSERT_TRUE(loop.has_value());
  auto k = loop->jit(jo);
  ASSERT_TRUE(k.has_value()) << k.error().to_string();
  EXPECT_GT(counter_value("vdep_jit_builds_total"), builds_before)
      << "a corrupted .so must be rebuilt, not dlopen-ed";

  exec::ArrayStore ref(nest);
  ref.fill_pattern();
  exec::ArrayStore got = ref;
  exec::run_sequential(nest, ref);
  ExecPolicy policy;
  policy.threads(2).backend(ExecBackend::kJit).jit_options(jo);
  auto rep = loop->execute(policy, got);
  ASSERT_TRUE(rep.has_value());
  EXPECT_TRUE(ref == got);
}

TEST(KernelDiskCache, ToolchainVersionChangeMissesInsteadOfServingStaleSo) {
  if (!have_toolchain()) GTEST_SKIP() << "no C toolchain";
  TempDir dir("kernupgrade");
  TempDir bin("fakebin");
  ScopedMetrics metrics;
  std::string real = *jit::discover_toolchain();
  std::string wrapper = bin.path() + "/fakecc";
  auto write_wrapper = [&](const std::string& version) {
    std::ofstream out(wrapper, std::ios::trunc);
    out << "#!/bin/sh\n"
        << "if [ \"$1\" = \"--version\" ]; then echo '" << version
        << "'; exit 0; fi\n"
        << "exec '" << real << "' \"$@\"\n";
    out.close();
    ::chmod(wrapper.c_str(), 0755);
  };
  // The two version banners differ in LENGTH, not just content: the
  // identity memo re-probes on (mtime, size) change, and coarse mtime
  // granularity could otherwise hide a same-second rewrite.
  write_wrapper("fakecc 1.0");

  jit::JitOptions jo;
  jo.cache_dir = dir.path();
  jo.compiler = wrapper;
  loopir::LoopNest nest = core::example42(12);

  {
    Compiler c;
    auto loop = c.compile(nest);
    ASSERT_TRUE(loop.has_value());
    auto k = loop->jit(jo);
    ASSERT_TRUE(k.has_value()) << k.error().to_string();
  }
  // Same toolchain, fresh session: hit, zero builds.
  i64 builds = counter_value("vdep_jit_builds_total");
  {
    Compiler c;
    auto loop = c.compile(nest);
    ASSERT_TRUE(loop.has_value());
    ASSERT_TRUE(loop->jit(jo).has_value());
    EXPECT_EQ(counter_value("vdep_jit_builds_total"), builds);
  }
  // "Upgrade" the toolchain: new version banner, same path. The cache must
  // miss and rebuild — serving the old .so would pin the old compiler's
  // codegen forever.
  write_wrapper("fakecc 2.0 (rebuilt banner, longer on purpose)");
  builds = counter_value("vdep_jit_builds_total");
  Compiler c;
  auto loop = c.compile(nest);
  ASSERT_TRUE(loop.has_value());
  auto k = loop->jit(jo);
  ASSERT_TRUE(k.has_value()) << k.error().to_string();
  EXPECT_GT(counter_value("vdep_jit_builds_total"), builds);
}

// -------------------------------------------------------------- eviction

TEST(DiskCacheEviction, OldestEntriesGoFirstAndCapHolds) {
  TempDir dir("evict");
  Compiler plain;
  auto loop = plain.compile(core::example42(10));
  ASSERT_TRUE(loop.has_value());

  // A tiny cap: a handful of ~100-byte plan entries overflow it.
  auto cache = cache::DiskCache::open(dir.path(), 512);
  ASSERT_NE(cache, nullptr);
  std::vector<std::string> keys;
  for (int k = 0; k < 12; ++k) {
    keys.push_back("key-" + std::to_string(k));
    ASSERT_TRUE(
        cache->store_plan(keys.back(), loop->analysis(), loop->plan()));
  }
  EXPECT_LE(cache->usage().bytes, 512u);
  EXPECT_GT(cache->stats().evictions, 0);
  // The newest entry survives; the oldest is gone.
  EXPECT_TRUE(cache->load_plan(keys.back()).has_value());
  EXPECT_FALSE(cache->load_plan(keys.front()).has_value());
}

TEST(DiskCacheEviction, ClearEmptiesAndVerifyPassesOnHealthyCache) {
  TempDir dir("mgmt");
  Compiler plain;
  auto loop = plain.compile(core::example41(10));
  ASSERT_TRUE(loop.has_value());
  auto cache = cache::DiskCache::open(dir.path());
  ASSERT_NE(cache, nullptr);
  ASSERT_TRUE(cache->store_plan("k", loop->analysis(), loop->plan()));

  auto report = cache->verify();
  EXPECT_EQ(report.plans_ok, 1u);
  EXPECT_TRUE(report.ok());

  EXPECT_GT(cache->clear(), 0u);
  EXPECT_EQ(cache->usage().bytes, 0u);
  EXPECT_FALSE(cache->load_plan("k").has_value());
}

// ------------------------------------------------------ multi-process use

TEST(DiskCacheForkStress, ConcurrentProcessesShareOneCacheBitIdentically) {
  TempDir dir("forkstress");
  constexpr int kProcs = 6;
  loopir::LoopNest nest = core::example42(18);

  // The expected result, computed in-process.
  exec::ArrayStore ref(nest);
  ref.fill_pattern();
  exec::run_sequential(nest, ref);

  const bool jit = have_toolchain();
  for (int round = 0; round < 2; ++round) {  // cold herd, then warm herd
    int pipefd[2];
    ASSERT_EQ(::pipe(pipefd), 0);
    std::vector<pid_t> kids;
    for (int p = 0; p < kProcs; ++p) {
      pid_t pid = ::fork();
      ASSERT_GE(pid, 0);
      if (pid == 0) {
        // Child: fresh session against the shared cache directory; all of
        // them race compile + publish in round 0 and all must hit in
        // round 1. Plain exit codes — no gtest in the child.
        ::close(pipefd[0]);
        int status = 1;
        {
          Compiler c(CompileOptions{}.disk_cache(dir.path()));
          auto loop = c.compile(nest);
          if (loop) {
            exec::ArrayStore got(nest);
            got.fill_pattern();
            ExecPolicy policy;
            policy.threads(2).backend(jit ? ExecBackend::kJit
                                          : ExecBackend::kCompiled);
            jit::JitOptions jo;
            jo.cache_dir = dir.path();
            policy.jit_options(jo);
            auto rep = loop->execute(policy, got);
            if (rep && ref == got) status = 0;
          }
        }
        ::close(pipefd[1]);
        ::_exit(status);
      }
      kids.push_back(pid);
    }
    ::close(pipefd[1]);
    ::close(pipefd[0]);
    for (pid_t pid : kids) {
      int status = 0;
      ASSERT_EQ(::waitpid(pid, &status, 0), pid);
      EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
          << "child " << pid << " diverged or failed in round " << round;
    }
  }

  // After both herds the cache holds exactly one plan for the structure
  // (all writers collapsed onto one key) and it still verifies.
  auto cache = cache::DiskCache::open(dir.path());
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->usage().plan_entries, 1u);
  EXPECT_TRUE(cache->verify().ok());
}

// ------------------------------------------- stale workdir sweep (bugfix)

TEST(WorkDirSweep, DeadOwnersDirectoryIsReclaimedLiveOnesSurvive) {
  TempDir base("sweepbase");

  // A guaranteed-dead PID: fork a child that exits immediately and reap it.
  pid_t dead = ::fork();
  ASSERT_GE(dead, 0);
  if (dead == 0) ::_exit(0);
  int status = 0;
  ASSERT_EQ(::waitpid(dead, &status, 0), dead);

  fs::path stale = fs::path(base.path()) / "vdep-jit-stale0";
  fs::create_directories(stale);
  std::ofstream(stale / "owner.pid") << dead << "\n";
  std::ofstream(stale / "kernel.c") << "int x;\n";

  fs::path live = fs::path(base.path()) / "vdep-jit-live00";
  fs::create_directories(live);
  std::ofstream(live / "owner.pid") << ::getpid() << "\n";

  // A fresh unstamped directory: ambiguous, must NOT be swept (could be a
  // live compile from an older build).
  fs::path young = fs::path(base.path()) / "vdep-jit-young0";
  fs::create_directories(young);

  EXPECT_EQ(jit::sweep_stale_work_dirs(base.path()), 1u);
  EXPECT_FALSE(fs::exists(stale));
  EXPECT_TRUE(fs::exists(live));
  EXPECT_TRUE(fs::exists(young));

  // Once per (process, root): a second call is a no-op by design.
  fs::create_directories(stale);
  std::ofstream(stale / "owner.pid") << dead << "\n";
  EXPECT_EQ(jit::sweep_stale_work_dirs(base.path()), 0u);
}

TEST(WorkDirSweep, ToolchainCompilerConstructionSweepsItsWorkRoot) {
  TempDir base("sweepctor");
  pid_t dead = ::fork();
  ASSERT_GE(dead, 0);
  if (dead == 0) ::_exit(0);
  int status = 0;
  ASSERT_EQ(::waitpid(dead, &status, 0), dead);

  fs::path stale = fs::path(base.path()) / "vdep-jit-crash0";
  fs::create_directories(stale);
  std::ofstream(stale / "owner.pid") << dead << "\n";

  jit::JitOptions jo;
  jo.work_dir = base.path();
  jit::ToolchainCompiler tc(jo);
  EXPECT_FALSE(fs::exists(stale));
}

TEST(WorkDirSweep, CompileLeavesNoWorkDirBehind) {
  if (!have_toolchain()) GTEST_SKIP() << "no C toolchain";
  TempDir base("leakcheck");
  loopir::LoopNest nest = core::example42(10);
  jit::JitOptions jo;
  jo.work_dir = base.path();
  jit::ToolchainCompiler tc(jo);
  auto k = tc.compile(nest, trans::plan_transform(dep::compute_pdm(nest)));
  ASSERT_TRUE(k.has_value()) << k.error().to_string();
  std::size_t leftovers = 0;
  for (const auto& de : fs::directory_iterator(base.path())) {
    (void)de;
    ++leftovers;
  }
  EXPECT_EQ(leftovers, 0u);
}

// ------------------------------------------------- PATH hygiene (bugfix)

TEST(ToolchainDiscovery, EmptyAndRelativePathEntriesAreNeverCandidates) {
  // Plant an executable "cc" in a directory, then reference it through a
  // PATH whose entries are empty ("::" = CWD) and relative. Discovery must
  // refuse both — picking a compiler out of the CWD is a planting vector.
  TempDir trap("pathtrap");
  std::string cc = trap.path() + "/cc";
  {
    std::ofstream out(cc);
    out << "#!/bin/sh\nexit 0\n";
  }
  ::chmod(cc.c_str(), 0755);

  std::vector<char> oldcwd(4096);
  ASSERT_NE(::getcwd(oldcwd.data(), oldcwd.size()), nullptr);
  ASSERT_EQ(::chdir(trap.path().c_str()), 0);

  {
    ScopedEnv vdep_cc("VDEP_CC", nullptr);
    // Leading ':' = empty entry = CWD, where ./cc exists and is executable.
    ScopedEnv path("PATH", ":.");
    EXPECT_FALSE(jit::discover_toolchain().has_value());
  }
  {
    ScopedEnv vdep_cc("VDEP_CC", nullptr);
    // A relative entry resolves against the CWD: same trap, same answer.
    ScopedEnv path("PATH", "subdir:.:nonexistent");
    EXPECT_FALSE(jit::discover_toolchain().has_value());
  }
  {
    ScopedEnv vdep_cc("VDEP_CC", nullptr);
    // Absolute entries still work.
    ScopedEnv path("PATH", trap.path().c_str());
    auto found = jit::discover_toolchain();
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(*found, cc);
  }
  ASSERT_EQ(::chdir(oldcwd.data()), 0);
}

// -------------------------------------------- key anatomy (bugfix sweep)

TEST(CacheKeys, LengthPrefixedFieldsCannotForgeBoundaries) {
  // The historical collision: concatenating free-form fields with
  // separators lets one field impersonate another's framing.
  jit::JitOptions a, b;
  a.compiler = "x;flags=";
  a.extra_flags = "y";
  b.compiler = "x";
  b.extra_flags = ";flags=y";  // old scheme: same "cc=x;flags=...;..." text
  EXPECT_NE(a.memo_key(), b.memo_key());

  std::string k1 = cache::kernel_cache_key("id", "fp", "bounds", "opt", "tc");
  std::string k2 = cache::kernel_cache_key("id", "fpbounds", "", "opt", "tc");
  EXPECT_NE(k1, k2);
}

TEST(CacheKeys, PlanAndKernelKeyspacesAreDisjoint) {
  EXPECT_NE(cache::plan_cache_key("id", "k"),
            cache::kernel_cache_key("id", "k", "", "", ""));
}

}  // namespace
}  // namespace vdep
