#include "common/thread_pool.h"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/work_queue.h"

namespace geqo {
namespace {

TEST(ThreadPoolTest, ParseThreadCountRejectsGarbageAndClampsExtremes) {
  constexpr size_t kHardware = 4;
  // Plain positive integers parse.
  EXPECT_EQ(ThreadPool::ParseThreadCount("1", kHardware), 1u);
  EXPECT_EQ(ThreadPool::ParseThreadCount("8", kHardware), 8u);
  // Unset / empty means "no override".
  EXPECT_EQ(ThreadPool::ParseThreadCount(nullptr, kHardware), 0u);
  EXPECT_EQ(ThreadPool::ParseThreadCount("", kHardware), 0u);
  // Trailing garbage is rejected, not silently prefix-parsed ("8x" used to
  // read as 8).
  EXPECT_EQ(ThreadPool::ParseThreadCount("8x", kHardware), 0u);
  EXPECT_EQ(ThreadPool::ParseThreadCount("4 ", kHardware), 0u);
  EXPECT_EQ(ThreadPool::ParseThreadCount("abc", kHardware), 0u);
  // Non-positive counts are rejected.
  EXPECT_EQ(ThreadPool::ParseThreadCount("0", kHardware), 0u);
  EXPECT_EQ(ThreadPool::ParseThreadCount("-3", kHardware), 0u);
  // Absurd requests clamp to kMaxHardwareMultiple x hardware instead of
  // spawning an unbounded thread army.
  EXPECT_EQ(ThreadPool::ParseThreadCount("1000000", kHardware),
            ThreadPool::kMaxHardwareMultiple * kHardware);
  EXPECT_EQ(ThreadPool::ParseThreadCount("99999999999999999999", kHardware),
            0u);  // out of long-long range entirely
  // The clamp survives a zero hardware_concurrency report.
  EXPECT_EQ(ThreadPool::ParseThreadCount("1000000", 0),
            ThreadPool::kMaxHardwareMultiple);
  // At the cap exactly: no clamp.
  EXPECT_EQ(ThreadPool::ParseThreadCount("32", kHardware), 32u);
}

TEST(ThreadPoolTest, EmptyRangeIsANoOp) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.ParallelFor(0, 0, [&](size_t, size_t) { ++calls; });
  pool.ParallelFor(5, 5, [&](size_t, size_t) { ++calls; });
  pool.ParallelFor(7, 3, [&](size_t, size_t) { ++calls; });  // begin > end
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolTest, VisitsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kCount = 10000;
  std::vector<std::atomic<int>> visits(kCount);
  pool.ParallelFor(0, kCount, [&](size_t, size_t i) { ++visits[i]; });
  for (size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<size_t> order;
  pool.ParallelFor(0, 5, [&](size_t worker, size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(worker, 0u);
    order.push_back(i);  // safe: inline execution is serial
  });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, WorkerIdsAreDenseAndBounded) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(pool.num_threads());
  pool.ParallelFor(
      0, 1000,
      [&](size_t worker, size_t) {
        ASSERT_LT(worker, pool.num_threads());
        ++hits[worker];
      },
      /*grain=*/1);
  int total = 0;
  for (auto& h : hits) total += h.load();
  EXPECT_EQ(total, 1000);
}

TEST(ThreadPoolTest, ExceptionsPropagateToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(0, 1000,
                       [](size_t, size_t i) {
                         if (i == 517) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  // The pool survives a throwing region and keeps scheduling work.
  std::atomic<int> calls{0};
  pool.ParallelFor(0, 100, [&](size_t, size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 100);
}

TEST(ThreadPoolTest, ExceptionPropagatesFromSingleThreadPool) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.ParallelFor(
                   0, 10, [](size_t, size_t) { throw std::logic_error("x"); }),
               std::logic_error);
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> inner_visits(64);
  pool.ParallelFor(0, 8, [&](size_t, size_t i) {
    // Nested region: must execute inline on this worker, not re-enqueue
    // (re-enqueueing could deadlock with all workers waiting).
    pool.ParallelFor(0, 8, [&](size_t inner_worker, size_t j) {
      EXPECT_EQ(inner_worker, 0u);  // inline regions report worker 0
      ++inner_visits[i * 8 + j];
    });
  });
  for (auto& v : inner_visits) EXPECT_EQ(v.load(), 1);
}

TEST(ThreadPoolTest, ForkedChildRunsRegionsInline) {
  // fork() copies only the calling thread: a region in the child must not
  // wait for the parent's workers (the crash-recovery tests fork children
  // that probe catalogs). SIGALRM turns a hang into a failure.
  ThreadPool pool(4);
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    alarm(10);
    std::atomic<size_t> sum{0};
    pool.ParallelFor(0, 100, [&](size_t worker, size_t i) {
      if (worker != 0) std::_Exit(2);
      sum += i;
    });
    std::_Exit(sum.load() == 100u * 99u / 2 ? 0 : 1);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "child killed by signal "
                                 << WTERMSIG(status);
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(ThreadPoolTest, ParallelMapFillsSlotsInOrder) {
  ThreadPool::SetGlobalThreads(4);
  const std::vector<size_t> squares =
      ParallelMap(100, [](size_t i) { return i * i; });
  ASSERT_EQ(squares.size(), 100u);
  for (size_t i = 0; i < squares.size(); ++i) EXPECT_EQ(squares[i], i * i);
  ThreadPool::SetGlobalThreads(1);
}

TEST(ThreadPoolTest, GlobalPoolResizes) {
  ThreadPool::SetGlobalThreads(3);
  EXPECT_EQ(ThreadPool::GlobalThreads(), 3u);
  ThreadPool::SetGlobalThreads(0);  // clamped
  EXPECT_EQ(ThreadPool::GlobalThreads(), 1u);
}

TEST(ThreadPoolTest, LargeGrainCoversWholeRange) {
  ThreadPool pool(4);
  std::atomic<size_t> sum{0};
  pool.ParallelFor(
      0, 103, [&](size_t, size_t i) { sum += i; }, /*grain=*/1000);
  EXPECT_EQ(sum.load(), 103u * 102u / 2);
}

TEST(WorkQueueTest, ProducersAndConsumersDrainEveryItemOnce) {
  WorkQueue<int> queue(/*capacity=*/8);
  constexpr int kProducers = 3;
  constexpr int kConsumers = 2;
  constexpr int kPerProducer = 100;
  std::vector<std::atomic<int>> seen(kProducers * kPerProducer);
  std::vector<std::thread> threads;
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      while (std::optional<int> item = queue.Pop()) {
        ++seen[*item];
        queue.TaskDone();
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        EXPECT_TRUE(queue.Push(p * kPerProducer + i));
      }
    });
  }
  for (size_t t = kConsumers; t < threads.size(); ++t) threads[t].join();
  queue.WaitIdle();
  queue.Close();
  EXPECT_FALSE(queue.Push(-1));  // refused after Close
  for (int t = 0; t < kConsumers; ++t) threads[t].join();
  for (auto& count : seen) EXPECT_EQ(count.load(), 1);
  EXPECT_EQ(queue.outstanding(), 0u);
}

TEST(WorkQueueTest, PauseReturnsWithBackloggedQueueWhileTaskInFlight) {
  // The ShardedCatalog::Save-under-load shape: one item in flight, more
  // queued behind it. Pause() must return once the in-flight item retires,
  // even though the backlog stays non-empty — TaskDone used to signal idle
  // only on an empty queue, deadlocking Pause (and with it Save) forever.
  WorkQueue<int> queue;
  ASSERT_TRUE(queue.Push(1));
  ASSERT_TRUE(queue.Push(2));  // stays queued across the whole pause

  std::mutex mu;
  std::condition_variable cv;
  bool popped = false;
  bool release = false;
  std::thread worker([&] {
    const std::optional<int> item = queue.Pop();
    EXPECT_TRUE(item.has_value());
    std::unique_lock<std::mutex> lock(mu);
    popped = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
    lock.unlock();
    queue.TaskDone();
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return popped; });
  }
  // Let the in-flight task finish a beat after Pause starts waiting.
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    std::lock_guard<std::mutex> lock(mu);
    release = true;
    cv.notify_all();
  });

  queue.Pause();
  EXPECT_EQ(queue.SnapshotPending(), (std::vector<int>{2}));
  queue.Resume();
  worker.join();
  releaser.join();

  const std::optional<int> rest = queue.Pop();
  ASSERT_TRUE(rest.has_value());
  EXPECT_EQ(*rest, 2);
  queue.TaskDone();
  queue.WaitIdle();
}

TEST(WorkQueueTest, NestedPausesFreezeConsumersUntilLastResume) {
  WorkQueue<int> queue;
  queue.Pause();
  queue.Pause();  // a second, overlapping pause (concurrent snapshotters)
  ASSERT_TRUE(queue.Push(7));  // Push is accepted while paused

  std::atomic<bool> consumed{false};
  std::thread consumer([&] {
    const std::optional<int> item = queue.Pop();
    EXPECT_TRUE(item.has_value());
    consumed = true;
    queue.TaskDone();
  });

  queue.Resume();  // one pause undone: the backlog must stay frozen
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(consumed.load());
  EXPECT_EQ(queue.SnapshotPending(), (std::vector<int>{7}));

  queue.Resume();  // matches the last pause: consumers run again
  consumer.join();
  EXPECT_TRUE(consumed.load());
  queue.WaitIdle();
}

}  // namespace
}  // namespace geqo
