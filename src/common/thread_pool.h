#pragma once

#include <sys/types.h>

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

/// \file thread_pool.h
/// A persistent worker pool plus ParallelFor/ParallelMap helpers used by the
/// hot paths of the filter cascade (encoding, VMF candidate generation, EMF
/// batch scoring, verification). See DESIGN.md "Concurrency model" for the
/// thread-safety contract each parallel section relies on.
///
/// Scheduling: a parallel region carves [begin, end) into chunks claimed off
/// a shared atomic cursor, so fast workers steal leftover chunks from slow
/// ones (dynamic load balancing without per-thread deques). The calling
/// thread participates, so a pool of size N runs regions on N-1 spawned
/// workers plus the caller. Nested ParallelFor calls run inline on their
/// worker — there is no recursive fan-out, hence no deadlock.
///
/// The global pool's size defaults to std::thread::hardware_concurrency()
/// and can be overridden with the GEQO_THREADS environment variable or
/// programmatically with ThreadPool::SetGlobalThreads (benches/tests).

namespace geqo {

/// \brief A fixed-size pool of persistent worker threads.
class ThreadPool {
 public:
  /// Creates a pool where parallel regions run on \p num_threads threads
  /// (num_threads - 1 spawned workers plus the calling thread). A size of 1
  /// runs everything inline on the caller.
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Threads participating in a parallel region (spawned workers + caller).
  size_t num_threads() const { return workers_.size() + 1; }

  /// \brief fn(worker, index): \p worker is a dense id < num_threads(),
  /// stable for the duration of one ParallelFor call — use it to index
  /// per-worker scratch state (e.g. per-thread SpesVerifier instances).
  using WorkerFn = std::function<void(size_t worker, size_t index)>;

  /// Runs fn(worker, i) for every i in [begin, end); blocks until all
  /// iterations finish. In a child forked after the pool was built, every
  /// region runs inline on the caller: fork() copies only the calling
  /// thread, so the pool's workers do not exist there. The first exception thrown by \p fn is rethrown on
  /// the calling thread (remaining chunks are abandoned). \p grain is the
  /// chunk size claimed per cursor bump (0 = auto). Safe to call from inside
  /// a running region: nested calls execute inline, serially.
  void ParallelFor(size_t begin, size_t end, const WorkerFn& fn,
                   size_t grain = 0);

  /// The process-wide pool (created on first use; sized from GEQO_THREADS
  /// or hardware concurrency). Returned as shared_ptr so a concurrent
  /// SetGlobalThreads cannot destroy a pool mid-region.
  static std::shared_ptr<ThreadPool> GlobalPool();
  /// Largest GEQO_THREADS accepted, as a multiple of hardware concurrency.
  /// Oversubscription beyond this only adds context-switch thrash (and a
  /// typo'd "GEQO_THREADS=1000000" would try to spawn a million threads).
  static constexpr size_t kMaxHardwareMultiple = 8;
  /// Parses a GEQO_THREADS-style override against \p hardware_concurrency.
  /// The whole string must be a positive decimal integer — trailing garbage
  /// ("8x") and non-numeric values are rejected, not prefix-parsed. Values
  /// above kMaxHardwareMultiple x hardware are clamped with a warning.
  /// Returns 0 for rejected input (callers fall back to the hardware
  /// default). Exposed for tests.
  static size_t ParseThreadCount(const char* value,
                                 size_t hardware_concurrency);
  /// Replaces the global pool with one of \p num_threads threads (clamped to
  /// >= 1). In-flight regions keep their old pool alive until they finish.
  static void SetGlobalThreads(size_t num_threads);
  /// Size of the global pool.
  static size_t GlobalThreads();

 private:
  struct ForState;
  void WorkerLoop();
  /// Claims chunks off \p state until the range is exhausted.
  static void Drain(ForState* state);

  std::vector<std::thread> workers_;
  const pid_t owner_pid_;  ///< the process whose threads are workers_
  /// Guards the task queue; ranks above the shard locks because parallel
  /// regions are launched from under them (EMF scoring inside a probe).
  Mutex mu_{analysis::LockRank::kThreadPool};
  std::condition_variable_any cv_;
  std::deque<std::function<void()>> queue_ GEQO_GUARDED_BY(mu_);
  bool shutdown_ GEQO_GUARDED_BY(mu_) = false;
};

/// Runs fn(i) for i in [begin, end) on the global pool.
template <typename Fn>
void ParallelFor(size_t begin, size_t end, Fn&& fn, size_t grain = 0) {
  static_assert(std::is_invocable_v<Fn&, size_t>,
                "ParallelFor callback must accept an index");
  ThreadPool::GlobalPool()->ParallelFor(
      begin, end, [&fn](size_t, size_t i) { fn(i); }, grain);
}

/// Runs fn(worker, i) for i in [begin, end) on the global pool; \p worker is
/// a dense per-region thread id for indexing per-worker state.
template <typename Fn>
void ParallelForWithWorker(size_t begin, size_t end, Fn&& fn,
                           size_t grain = 0) {
  static_assert(std::is_invocable_v<Fn&, size_t, size_t>,
                "ParallelForWithWorker callback must accept (worker, index)");
  ThreadPool::GlobalPool()->ParallelFor(
      begin, end, [&fn](size_t worker, size_t i) { fn(worker, i); }, grain);
}

/// out[i] = fn(i) for i in [0, n), computed in parallel. The element type
/// must be default-constructible (slots are filled in place).
template <typename Fn>
auto ParallelMap(size_t n, Fn&& fn) {
  using T = std::decay_t<std::invoke_result_t<Fn&, size_t>>;
  std::vector<T> out(n);
  ParallelFor(0, n, [&](size_t i) { out[i] = fn(i); });
  return out;
}

}  // namespace geqo
