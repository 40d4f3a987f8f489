#include "runtime/driver.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/work_queue.h"
#include "topo/affinity.h"
#include "topo/topology.h"

namespace vdep::runtime {

namespace {

i64 now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Per-source live-descriptor counter, padded so adjacent sources' hot
/// counters never share a cache line.
struct alignas(64) Pending {
  std::atomic<i64> count{0};
};

std::vector<TaskDescriptor> seed_pieces(std::span<const DriveSource> sources,
                                        std::size_t threads,
                                        WorkerStats* seeder,
                                        bool* exhausted) {
  // Split the roots into at least `threads` pieces before any worker
  // starts, largest-first so the pieces stay balanced, then order them by
  // (source, position) so deque k holds the k-th slice of a lone source's
  // space — the slice a first-touch store placed near pinned worker k. The
  // seeding splits are charged to worker 0's counters of the piece's
  // source (each one still turns one descriptor into two, so
  // tasks == splits + 1 holds per source). `exhausted` reports that
  // seeding stopped short of `threads` pieces because none could split.
  std::vector<TaskDescriptor> pieces;
  for (std::size_t s = 0; s < sources.size(); ++s) {
    TaskDescriptor rt = sources[s].root;
    rt.source = static_cast<i64>(s);
    if (!rt.empty()) pieces.push_back(rt);
  }
  *exhausted = false;
  while (!pieces.empty() && pieces.size() < threads) {
    std::size_t fattest = pieces.size();
    i64 most = 0;
    for (std::size_t k = 0; k < pieces.size(); ++k) {
      const DriveSource& src =
          sources[static_cast<std::size_t>(pieces[k].source)];
      if (pieces[k].cells() > most &&
          can_split(pieces[k], src.grain, src.limits)) {
        fattest = k;
        most = pieces[k].cells();
      }
    }
    if (fattest == pieces.size()) {
      *exhausted = true;
      break;
    }
    const DriveSource& src =
        sources[static_cast<std::size_t>(pieces[fattest].source)];
    int axis = 0;
    WorkerStats& st = seeder[pieces[fattest].source];
    pieces.push_back(split(pieces[fattest], src.grain, &axis, &src.prefs,
                           src.limits));
    ++st.splits;
    ++st.axis_splits[axis];
  }
  std::sort(pieces.begin(), pieces.end(),
            [](const TaskDescriptor& a, const TaskDescriptor& b) {
              if (a.source != b.source) return a.source < b.source;
              for (int d = 0; d < a.ndims; ++d)
                if (a.lo[d] != b.lo[d]) return a.lo[d] < b.lo[d];
              return a.class_lo < b.class_lo;
            });
  return pieces;
}

/// Adds one (worker, source) counter block into a per-worker total.
void accumulate(WorkerStats& into, const WorkerStats& b) {
  into.tasks += b.tasks;
  into.splits += b.splits;
  into.steals += b.steals;
  into.iterations += b.iterations;
  into.column_iterations += b.column_iterations;
  into.busy_ns += b.busy_ns;
  for (int axis = 0; axis <= TaskDescriptor::kMaxDims; ++axis)
    into.axis_splits[axis] += b.axis_splits[axis];
  for (int d = 0; d < kStealDistances; ++d)
    into.steals_by_distance[d] += b.steals_by_distance[d];
}

}  // namespace

void LeafScratch::fit(const Size& size) {
  const auto depth = static_cast<std::size_t>(size.depth);
  for (intlin::Vec* v : {&point, &orig, &label, &lattice}) v->reserve(depth);
  kernel.fit(size.stack, size.columns);
}

namespace detail {

bool effective_pin(bool opt_in, std::size_t threads) {
  return opt_in && threads > 1 && topo::pin_supported() &&
         topo::pin_env_enabled();
}

}  // namespace detail

namespace {

/// Sweeps an idle context yields between before it waits for a push.
constexpr int kYieldSweeps = 16;

/// One worker context's own state: its deque, whom it robs first, where it
/// pins, its leaf buffers and its idle bookkeeping. Padded so adjacent
/// contexts never share a line. The idle counters are atomics because the
/// caller closes a context's open idle episode at the run's end while the
/// context may still be on its way out.
struct alignas(64) Context {
  WorkStealingDeque deque;
  /// Victim probe order, nearest ring first (topo::Topology::steal_rings).
  std::vector<std::vector<int>> rings;
  int cpu = -1;
  LeafScratch scratch;
  std::atomic<i64> idle_since{0};  ///< open idle episode's start, 0 if none
  std::atomic<i64> idle_ns{0};
  std::atomic<i64> failed_steals{0};
};

/// Everything a run's contexts touch, owned together by the caller and
/// every helper it queued (ThreadPool::Job), so a helper may start or
/// leave after drive_descriptors returned. The caller's sources are
/// touched only while a context holds a live descriptor of theirs, and a
/// run ends when no source is live, so nothing of the caller's is touched
/// after the end. Every write the caller aggregates happens before the
/// retirement of the descriptor it belongs to.
struct Run final : ThreadPool::Job {
  Run(std::span<const DriveSource> srcs, std::vector<WorkerStats> seeded,
      int n)
      : sources(srcs),
        ns(srcs.size()),
        contexts(n),
        ctx(new Context[static_cast<std::size_t>(n)]),
        blocks(std::move(seeded)),
        pending(srcs.size()),
        done_ns(srcs.size(), 0),
        first_start(srcs.size()) {}

  WorkerStats& block(int id, i64 s) {
    return blocks[static_cast<std::size_t>(id) * ns +
                  static_cast<std::size_t>(s)];
  }

  /// One helper, a pool call or a spawned thread: claims the next
  /// unclaimed context and works it, or returns at once when the run
  /// already ended or every context is taken.
  void help() noexcept override {
    if (live_sources.load(std::memory_order_acquire) == 0) return;
    const int id = next_id.fetch_add(1, std::memory_order_relaxed);
    if (id < contexts) work(id);
  }

  void work(int id);
  void process(int id, const TaskDescriptor& task);
  void execute(int id, TaskDescriptor task);
  void retire(std::size_t s);
  void wait_for_work(int id);
  void wake_waiters();

  std::span<const DriveSource> sources;
  const std::size_t ns;
  const int contexts;
  std::unique_ptr<Context[]> ctx;
  /// Per (worker, source) counters: single writer each, aggregated by the
  /// caller after the run ended. Idle time and failed sweeps belong to no
  /// source and live in the contexts.
  std::vector<WorkerStats> blocks;
  /// Live descriptors (queued or executing) per source, plus the count of
  /// unfinished sources; a context retires only descriptors it holds, so a
  /// source's count hitting zero is exactly "every descriptor of it
  /// retired", and no source live is the run's end.
  std::vector<Pending> pending;
  std::atomic<i64> live_sources{0};
  /// Completion (last descriptor retired) and queue latency (first
  /// descriptor started) per source, relative to the run start.
  std::vector<i64> done_ns;
  std::vector<std::atomic<i64>> first_start;
  std::atomic<int> next_id{1};  ///< the next context a helper claims

  /// Idle contexts wait on `signal` after raising `asleep`; the first push
  /// (or the run's end) that sees `asleep` raised lowers it and bumps
  /// `signal`, waking every waiter with one notify.
  std::atomic<int> signal{0};
  std::atomic<bool> asleep{false};

  /// Set by the first leaf error: queued descriptors then retire without
  /// running, so the run still ends exactly when no source is live.
  std::atomic<bool> abort{false};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  i64 first_error_source = -1;

  i64 t0 = 0;
  bool pin = false;
  bool tracing = false;
  bool metrics = false;
  obs::Histogram* steal_lat = nullptr;
  obs::Histogram* leaf_cells = nullptr;
  obs::Histogram* qdepth = nullptr;
};

void Run::work(int id) {
  Context& me = ctx[static_cast<std::size_t>(id)];
  // Pin for the context's duration; the guard restores the thread's
  // previous mask (worker 0 is the caller, pool threads are long-lived).
  std::optional<topo::AffinityGuard> pin_guard;
  if (pin) pin_guard.emplace(me.cpu);
  // The sweep randomizes its start within each ring (cheap xorshift,
  // seeded per context) so same-distance victims share the load.
  std::uint64_t rng =
      0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(id) + 1);
  auto next_rand = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };

  // One idle episode spans from the first failed pop to the steal that
  // ends it, or to the run's end, where the caller closes it; a context's
  // own deque cannot refill while it is idle (only its own process()
  // pushes), so episodes close exactly there.
  int idle_sweeps = 0;
  for (;;) {
    TaskDescriptor task;
    if (me.deque.pop(task)) {
      process(id, task);
      idle_sweeps = 0;
      continue;
    }
    if (me.idle_since.load(std::memory_order_relaxed) == 0)
      me.idle_since.store(now_ns(), std::memory_order_relaxed);
    if (live_sources.load(std::memory_order_acquire) == 0) return;
    // Distance-ordered sweep: co-resident workers first (their deque is
    // in this cpu's cache), then SMT siblings, same-node cores, and only
    // then remote nodes; within a ring the start rotates randomly.
    bool stolen = false;
    int victim_id = -1;
    int victim_distance = 0;
    for (int d = 0; d < topo::Topology::kNumDistances && !stolen; ++d) {
      const std::vector<int>& ring = me.rings[static_cast<std::size_t>(d)];
      if (ring.empty()) continue;
      const std::size_t start = next_rand() % ring.size();
      for (std::size_t k = 0; k < ring.size() && !stolen; ++k) {
        const int victim = ring[(start + k) % ring.size()];
        if (ctx[static_cast<std::size_t>(victim)].deque.steal(task)) {
          // Counted on the stolen descriptor's source block, so the
          // per-request traffic mix stays visible.
          WorkerStats& st = block(id, task.source);
          ++st.steals;
          ++st.steals_by_distance[d];
          victim_id = victim;
          victim_distance = d;
          stolen = true;
        }
      }
    }
    if (!stolen) {
      if (contexts > 1)
        me.failed_steals.store(
            me.failed_steals.load(std::memory_order_relaxed) + 1,
            std::memory_order_relaxed);
      if (++idle_sweeps < kYieldSweeps)
        std::this_thread::yield();
      else
        wait_for_work(id);  // nothing stealable for a while
      continue;
    }
    // The episode ends in a steal, before the stolen descriptor retires.
    const i64 since = me.idle_since.load(std::memory_order_relaxed);
    const i64 t1 = now_ns();
    me.idle_ns.store(me.idle_ns.load(std::memory_order_relaxed) + t1 - since,
                     std::memory_order_relaxed);
    me.idle_since.store(0, std::memory_order_relaxed);
    if (metrics) steal_lat->observe(t1 - since);
    if (tracing) {
      obs::TraceEvent ev;
      ev.start_ns = since;
      ev.dur_ns = t1 - since;
      ev.kind = obs::EventKind::kSteal;
      ev.worker = id;
      ev.args[0] = victim_id;
      ev.args[1] = task.source;
      ev.args[2] = victim_distance;
      obs::TraceRecorder::record(ev);
    }
    process(id, task);
    idle_sweeps = 0;
  }
}

void Run::process(int id, const TaskDescriptor& task) {
  // An aborted run drains: the descriptor retires without running.
  if (!abort.load(std::memory_order_acquire)) execute(id, task);
  retire(static_cast<std::size_t>(task.source));
}

void Run::execute(int id, TaskDescriptor task) {
  const std::size_t s = static_cast<std::size_t>(task.source);
  const DriveSource& src = sources[s];
  WorkerStats& stats = block(id, task.source);
  Context& me = ctx[static_cast<std::size_t>(id)];
  const i64 t_start = now_ns();
  if (first_start[s].load(std::memory_order_relaxed) == 0) {
    i64 expect = 0;
    first_start[s].compare_exchange_strong(
        expect, std::max<i64>(1, t_start - t0), std::memory_order_relaxed);
  }
  try {
    // Split depth-first: push the large high halves (stolen first), keep
    // refining the low half until it is a leaf, run it.
    while (can_split(task, src.grain, src.limits)) {
      int axis = 0;
      TaskDescriptor high =
          split(task, src.grain, &axis, &src.prefs, src.limits);
      pending[s].count.fetch_add(1, std::memory_order_relaxed);
      me.deque.push(high);
      wake_waiters();
      ++stats.splits;
      ++stats.axis_splits[axis];
      if (tracing || metrics) {
        const i64 depth = me.deque.size_estimate();
        if (metrics) qdepth->observe(depth);
        if (tracing) {
          obs::TraceEvent ev;
          ev.start_ns = obs::now_ns();
          ev.kind = obs::EventKind::kSplit;
          ev.worker = id;
          ev.args[0] = axis;
          ev.args[1] = task.cells();
          ev.args[2] = depth;
          ev.args[3] = task.source;
          obs::TraceRecorder::record(ev);
        }
      }
    }
    src.leaf(task, stats, me.scratch);
    ++stats.tasks;
    if (metrics) leaf_cells->observe(task.cells());
  } catch (...) {
    std::lock_guard<std::mutex> lock(error_mutex);
    if (!first_error) {
      first_error = std::current_exception();
      first_error_source = task.source;
    }
    abort.store(true, std::memory_order_release);
  }
  const i64 t1 = now_ns();
  if (tracing) {
    obs::TraceEvent ev;
    ev.start_ns = t_start;
    ev.dur_ns = t1 - t_start;
    ev.kind = obs::EventKind::kLeafExec;
    ev.worker = id;
    ev.args[0] = task.cells();
    ev.args[1] = task.source;
    ev.args[2] = task.ndims > 0 ? task.lo[0] : 0;
    ev.args[3] = task.ndims > 0 ? task.hi[0] : 0;
    ev.args[4] = task.class_lo;
    ev.args[5] = task.class_hi;
    obs::TraceRecorder::record(ev);
  }
  stats.busy_ns += t1 - t_start;
}

void Run::retire(std::size_t s) {
  if (pending[s].count.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  // Unique last retirer of the source: stamp its completion.
  done_ns[s] = now_ns() - t0;
  if (live_sources.fetch_sub(1, std::memory_order_acq_rel) == 1)
    wake_waiters();  // the run's end
}

// An idle context and a pusher (or the last retirer) each write one
// variable and then read the other's, across seq_cst fences: either the
// waiter's re-check sees the push or the end, or the pusher sees `asleep`
// and bumps `signal` past the value the waiter read before raising it.
void Run::wait_for_work(int id) {
  const int seen = signal.load(std::memory_order_acquire);
  asleep.store(true, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  bool ready = live_sources.load(std::memory_order_relaxed) == 0;
  for (int k = 0; k < contexts && !ready; ++k)
    ready = k != id &&
            ctx[static_cast<std::size_t>(k)].deque.size_estimate() > 0;
  if (!ready) signal.wait(seen, std::memory_order_acquire);
}

void Run::wake_waiters() {
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (!asleep.load(std::memory_order_relaxed) ||
      !asleep.exchange(false, std::memory_order_relaxed))
    return;
  signal.fetch_add(1, std::memory_order_release);
  signal.notify_all();
}

}  // namespace

RuntimeStats drive_descriptors(std::span<const DriveSource> sources,
                               const DriveOptions& opts, ThreadPool* pool) {
  const std::size_t threads = std::max<std::size_t>(opts.threads, 1);
  const std::size_t ns = sources.size();
  RuntimeStats out;
  out.workers.resize(threads);
  out.sources.resize(ns);

  // Per (worker, source) counters; seeding charges worker 0's. Seeded
  // before any context starts (thread creation / the pool's queue mutex
  // publishes the pushes to every context).
  std::vector<WorkerStats> blocks(threads * ns);
  bool exhausted = false;
  const std::vector<TaskDescriptor> pieces =
      seed_pieces(sources, threads, blocks.data(), &exhausted);
  if (pieces.empty()) return out;

  // With no splittable piece left no descriptor is ever created again, so
  // contexts past pieces.size() could only idle: start just enough. One
  // context runs on the caller alone — no pool hand-off, no pin.
  const std::size_t contexts = exhausted ? pieces.size() : threads;
  const int n = static_cast<int>(contexts);
  out.workers_used = static_cast<i64>(contexts);

  const std::unique_ptr<Run, ThreadPool::Release> run(
      new Run(sources, std::move(blocks), n));

  // Topology: where each context pins and whom it robs first. Computed
  // even when pinning is off — the distance-ordered sweep is deterministic
  // either way, and the per-distance counters stay meaningful relative to
  // the assignment the contexts *would* have.
  const topo::Topology& topology = topo::Topology::system();
  const std::vector<int> assignment = topology.assign_workers(contexts);
  run->pin = detail::effective_pin(opts.switches.pin_workers, contexts);

  // One scratch size for every context: the largest any source uses.
  LeafScratch::Size scratch_size;
  for (const DriveSource& src : sources) {
    scratch_size.depth = std::max(scratch_size.depth, src.scratch.depth);
    scratch_size.stack = std::max(scratch_size.stack, src.scratch.stack);
    scratch_size.columns = std::max(scratch_size.columns, src.scratch.columns);
  }
  // Everything a context uses is built here, so a helper allocates nothing.
  for (int id = 0; id < n; ++id) {
    Context& c = run->ctx[static_cast<std::size_t>(id)];
    c.rings = topology.steal_rings(assignment, id);
    c.cpu = topology.cpus()[static_cast<std::size_t>(
                                assignment[static_cast<std::size_t>(id)])]
                .cpu;
    c.scratch.worker = id;
    c.scratch.fit(scratch_size);
  }
  for (std::size_t k = 0; k < pieces.size(); ++k) {
    run->pending[static_cast<std::size_t>(pieces[k].source)].count.fetch_add(
        1, std::memory_order_relaxed);
    run->ctx[k % contexts].deque.push(pieces[k]);
  }
  i64 nonempty = 0;
  for (const Pending& p : run->pending)
    if (p.count.load(std::memory_order_relaxed) != 0) ++nonempty;
  run->live_sources.store(nonempty, std::memory_order_relaxed);

  // Observability gates, sampled once per run: with the recorder/registry
  // globally off (or the run opting out) the contexts pay one hoisted bool
  // test per site, no clock reads beyond the two busy_ns already makes.
  run->tracing = opts.switches.trace && obs::TraceRecorder::enabled();
  run->metrics = opts.switches.metrics && obs::MetricsRegistry::enabled();
  if (run->metrics) {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
    run->steal_lat = &reg.histogram(
        "vdep_steal_latency_ns", obs::exp_buckets(1000, 4.0, 12),
        "idle-episode length ending in a successful steal");
    run->leaf_cells = &reg.histogram("vdep_leaf_cells",
                                     obs::exp_buckets(1, 4.0, 16),
                                     "cells per executed leaf descriptor");
    run->qdepth = &reg.histogram("vdep_queue_depth",
                                 obs::exp_buckets(1, 2.0, 10),
                                 "owner deque size sampled at split");
  }

  // The caller is context 0 and returns when no source is live, whether
  // or not every helper has started or left: pool helpers are queued
  // without a join (a pool smaller than the context count leaves the
  // surplus contexts unstarted, and their seeded descriptors are stolen).
  // Without a pool the helpers are threads of this call, joined below.
  run->t0 = now_ns();
  std::vector<std::thread> spawned;
  if (pool) {
    pool->post(*run, std::min(pool->size(), contexts - 1));
  } else {
    spawned.reserve(contexts - 1);
    for (int k = 1; k < n; ++k)
      spawned.emplace_back([r = run.get()] { r->help(); });
  }
  run->work(0);
  const i64 t_end = now_ns();
  out.wall_ns = t_end - run->t0;

  // Close every context's open idle episode at the end.
  for (int id = 0; id < n; ++id) {
    Context& c = run->ctx[static_cast<std::size_t>(id)];
    WorkerStats& w = out.workers[static_cast<std::size_t>(id)];
    w.failed_steals = c.failed_steals.load(std::memory_order_relaxed);
    w.idle_ns = c.idle_ns.load(std::memory_order_relaxed);
    const i64 since = c.idle_since.load(std::memory_order_relaxed);
    if (since == 0 || since > t_end) continue;  // busy, or opened after
    w.idle_ns += t_end - since;
    if (run->tracing) {
      obs::TraceEvent ev;
      ev.start_ns = since;
      ev.dur_ns = t_end - since;
      ev.kind = obs::EventKind::kIdle;
      ev.worker = id;
      obs::TraceRecorder::record(ev);
    }
  }

  for (std::size_t id = 0; id < threads; ++id) {
    for (std::size_t s = 0; s < ns; ++s) {
      const WorkerStats& b = run->blocks[id * ns + s];
      accumulate(out.workers[id], b);
      SourceStats& agg = out.sources[s];
      agg.iterations += b.iterations;
      agg.column_iterations += b.column_iterations;
      agg.tasks += b.tasks;
      agg.splits += b.splits;
      for (int axis = 1; axis < TaskDescriptor::kMaxDims; ++axis)
        agg.inner_splits += b.axis_splits[axis];
      agg.steals += b.steals;
    }
  }
  for (std::size_t s = 0; s < ns; ++s) {
    out.sources[s].done_ns = run->done_ns[s];
    out.sources[s].queue_ns =
        run->first_start[s].load(std::memory_order_relaxed);
  }
  out.error = std::move(run->first_error);
  out.error_source = run->first_error_source;
  if (run->metrics) publish_run_metrics(out.workers);
  for (std::thread& t : spawned) t.join();
  return out;
}

RuntimeStats drive(const DriveSource& source, const DriveOptions& opts,
                   ThreadPool* pool) {
  RuntimeStats rs = drive_descriptors({&source, 1}, opts, pool);
  if (rs.error) std::rethrow_exception(rs.error);
  return rs;
}

}  // namespace vdep::runtime
