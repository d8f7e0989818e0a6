#include "common/thread_pool.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <exception>

#include "common/logging.h"
#include "obs/metrics.h"

namespace geqo {
namespace {

/// True while this thread is executing inside a parallel region; nested
/// ParallelFor calls then run inline (no recursive fan-out).
thread_local bool t_in_parallel_region = false;

size_t DefaultThreadCount() {
  const unsigned hc = std::thread::hardware_concurrency();
  const size_t hardware = hc > 0 ? hc : 1;
  if (const char* env = std::getenv("GEQO_THREADS")) {
    const size_t parsed = ThreadPool::ParseThreadCount(env, hardware);
    if (parsed > 0) return parsed;
  }
  return hardware;
}

Mutex& GlobalPoolMutex() {
  static Mutex mu(analysis::LockRank::kGlobalPool);
  return mu;
}

std::shared_ptr<ThreadPool>& GlobalPoolSlot() {
  static std::shared_ptr<ThreadPool> pool;
  return pool;
}

}  // namespace

/// Shared state of one ParallelFor region. Chunks are claimed off `next`;
/// helper tasks hold the state alive via shared_ptr, and the caller does not
/// return (so `fn` does not go out of scope) until `pending` reaches zero.
struct ThreadPool::ForState {
  std::atomic<size_t> next{0};
  size_t end = 0;
  size_t grain = 1;
  const WorkerFn* fn = nullptr;
  std::atomic<size_t> worker_ids{0};
  std::atomic<size_t> pending{0};
  Mutex mu{analysis::LockRank::kPoolRegion};
  std::condition_variable_any done_cv;
  Mutex error_mu{analysis::LockRank::kPoolRegion};
  std::exception_ptr error GEQO_GUARDED_BY(error_mu);
};

ThreadPool::ThreadPool(size_t num_threads) : owner_pid_(getpid()) {
  const size_t spawned = num_threads > 0 ? num_threads - 1 : 0;
  workers_.reserve(spawned);
  for (size_t i = 0; i < spawned; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop() {
  // Everything a worker runs is a region drain: nested regions stay inline.
  t_in_parallel_region = true;
  for (;;) {
    std::function<void()> task;
    {
      UniqueLock lock(mu_);
      while (!shutdown_ && queue_.empty()) {
        cv_.wait(lock);
      }
      if (queue_.empty()) return;  // shutdown with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
      if (obs::MetricsEnabled()) {
        obs::MetricsRegistry::Global()
            .GetGauge("pool.queue_depth")
            .Set(static_cast<double>(queue_.size()));
      }
    }
    task();
  }
}

void ThreadPool::Drain(ForState* state) {
  const size_t worker = state->worker_ids.fetch_add(1);
  for (;;) {
    const size_t chunk_begin = state->next.fetch_add(state->grain);
    if (chunk_begin >= state->end) return;
    const size_t chunk_end = std::min(chunk_begin + state->grain, state->end);
    try {
      for (size_t i = chunk_begin; i < chunk_end; ++i) (*state->fn)(worker, i);
    } catch (...) {
      {
        MutexLock lock(state->error_mu);
        if (!state->error) state->error = std::current_exception();
      }
      // Abandon remaining chunks; in-flight ones finish their iteration.
      state->next.store(state->end);
    }
  }
}

void ThreadPool::ParallelFor(size_t begin, size_t end, const WorkerFn& fn,
                             size_t grain) {
  if (begin >= end) return;
  const size_t count = end - begin;
  if (t_in_parallel_region || workers_.empty() || count == 1 ||
      getpid() != owner_pid_) {
    for (size_t i = begin; i < end; ++i) fn(0, i);
    return;
  }

  auto state = std::make_shared<ForState>();
  state->next.store(begin);
  state->end = end;
  state->grain =
      grain > 0 ? grain : std::max<size_t>(1, count / (4 * num_threads()));
  state->fn = &fn;

  const size_t helpers = std::min(workers_.size(), count - 1);
  const bool metered = obs::MetricsEnabled();
  const auto enqueue_time = metered ? std::chrono::steady_clock::now()
                                    : std::chrono::steady_clock::time_point();
  {
    MutexLock lock(mu_);
    for (size_t t = 0; t < helpers; ++t) {
      state->pending.fetch_add(1, std::memory_order_relaxed);
      queue_.emplace_back([state, metered, enqueue_time] {
        if (metered) {
          const std::chrono::duration<double> wait =
              std::chrono::steady_clock::now() - enqueue_time;
          auto& registry = obs::MetricsRegistry::Global();
          registry.GetHistogram("pool.task_latency_seconds")
              .Observe(wait.count());
          registry.GetCounter("pool.tasks_executed").Increment();
        }
        Drain(state.get());
        if (state->pending.fetch_sub(1) == 1) {
          MutexLock state_lock(state->mu);
          state->done_cv.notify_all();
        }
      });
    }
    if (metered) {
      obs::MetricsRegistry::Global()
          .GetGauge("pool.queue_depth")
          .Set(static_cast<double>(queue_.size()));
    }
  }
  cv_.notify_all();

  t_in_parallel_region = true;
  Drain(state.get());
  t_in_parallel_region = false;

  {
    UniqueLock lock(state->mu);
    while (state->pending.load() != 0) {
      state->done_cv.wait(lock);
    }
  }
  // The region is over (pending hit zero after every helper's error_mu
  // critical section), so this read is ordered; take the lock anyway to
  // keep the guarded-by contract unconditional.
  std::exception_ptr error;
  {
    MutexLock lock(state->error_mu);
    error = state->error;
  }
  if (error) std::rethrow_exception(error);
}

size_t ThreadPool::ParseThreadCount(const char* value,
                                    size_t hardware_concurrency) {
  if (value == nullptr || *value == '\0') return 0;
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(value, &end, 10);
  if (end == value || *end != '\0' || errno == ERANGE || parsed < 1) {
    GEQO_LOG(kWarning) << "ignoring GEQO_THREADS='" << value
                       << "': not a positive integer";
    return 0;
  }
  const size_t hardware = hardware_concurrency > 0 ? hardware_concurrency : 1;
  const size_t cap = hardware * kMaxHardwareMultiple;
  if (static_cast<unsigned long long>(parsed) > cap) {
    GEQO_LOG(kWarning) << "clamping GEQO_THREADS=" << parsed << " to " << cap
                       << " (" << kMaxHardwareMultiple << "x the "
                       << hardware << " hardware threads)";
    return cap;
  }
  return static_cast<size_t>(parsed);
}

std::shared_ptr<ThreadPool> ThreadPool::GlobalPool() {
  MutexLock lock(GlobalPoolMutex());
  std::shared_ptr<ThreadPool>& pool = GlobalPoolSlot();
  if (!pool) pool = std::make_shared<ThreadPool>(DefaultThreadCount());
  return pool;
}

void ThreadPool::SetGlobalThreads(size_t num_threads) {
  auto fresh = std::make_shared<ThreadPool>(std::max<size_t>(1, num_threads));
  MutexLock lock(GlobalPoolMutex());
  GlobalPoolSlot().swap(fresh);
  // `fresh` now holds the old pool; it is destroyed here unless an in-flight
  // region still shares ownership.
}

size_t ThreadPool::GlobalThreads() { return GlobalPool()->num_threads(); }

}  // namespace geqo
