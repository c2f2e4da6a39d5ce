// ThreadPool: execution, idle barrier, stealing, exception containment,
// teardown, and the parallel_for fork-join — the properties the batch
// engine's and the serving layer's determinism and liveness rest on.

#include "engine/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace lion::engine {
namespace {

TEST(ThreadPool, RejectsZeroThreads) {
  EXPECT_THROW(ThreadPool(0), std::invalid_argument);
}

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 1000; ++i) {
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPool, SingleThreadRunsEachTaskExactlyOnce) {
  // Execution *order* is deliberately unspecified (the owner pops its queue
  // LIFO, so a backed-up single worker runs late submissions first); the
  // engine's determinism rests only on each task running exactly once. The
  // unsynchronized vector doubles as a race detector: with one worker,
  // tasks never overlap, so plain push_back is safe.
  ThreadPool pool(1);
  std::vector<int> ran;
  for (int i = 0; i < 64; ++i) {
    pool.submit([&ran, i] { ran.push_back(i); });
  }
  pool.wait_idle();
  ASSERT_EQ(ran.size(), 64u);
  std::vector<int> sorted = ran;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 64; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(ThreadPool, WaitIdleIsABarrier) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 8; ++i) {
    pool.submit([&done] {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      done.fetch_add(1);
    });
  }
  pool.wait_idle();
  EXPECT_EQ(done.load(), 8);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.wait_idle();  // no tasks ever submitted
  SUCCEED();
}

TEST(ThreadPool, StealsFromABlockedWorkersQueue) {
  // Pin worker A in a task that cannot finish until 8 follow-up tasks have
  // run. Round-robin assignment puts half of those follow-ups in A's own
  // queue — the test only terminates if worker B steals them. A pool
  // without stealing deadlocks here (and is killed by the ctest timeout).
  ThreadPool pool(2);
  std::atomic<int> followups{0};
  std::atomic<bool> blocker_started{false};
  pool.submit([&] {
    blocker_started.store(true);
    while (followups.load(std::memory_order_acquire) < 8) {
      std::this_thread::yield();
    }
  });
  while (!blocker_started.load()) std::this_thread::yield();
  for (int i = 0; i < 8; ++i) {
    pool.submit([&followups] {
      followups.fetch_add(1, std::memory_order_acq_rel);
    });
  }
  pool.wait_idle();
  EXPECT_EQ(followups.load(), 8);
  EXPECT_GE(pool.steal_count(), 1u);
}

TEST(ThreadPool, TaskExceptionIsContained) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  pool.submit([] { throw std::runtime_error("boom"); });
  pool.submit([] { throw 42; });  // non-std exception too
  for (int i = 0; i < 10; ++i) {
    pool.submit([&ran] { ran.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 10);
  EXPECT_EQ(pool.exception_count(), 2u);
  // The pool is still alive and accepts more work.
  pool.submit([&ran] { ran.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 11);
}

TEST(ThreadPool, DestructorJoinsWithoutHanging) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 6; ++i) {
      pool.submit([&ran] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ran.fetch_add(1);
      });
    }
    // No wait_idle: destructor must stop cleanly regardless of progress.
  }
  // Whatever ran, ran fully; nothing crashed or deadlocked.
  EXPECT_LE(ran.load(), 6);
}

TEST(ThreadPool, ManyWaitIdleCyclesReuseTheSamePool) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 50; ++i) {
      pool.submit([&total] { total.fetch_add(1); });
    }
    pool.wait_idle();
    EXPECT_EQ(total.load(), (round + 1) * 50);
  }
}

// ---- parallel_for --------------------------------------------------------

std::vector<int> run_counts(ThreadPool& pool, std::size_t n) {
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(n, [&hits](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  std::vector<int> out;
  for (const auto& h : hits) out.push_back(h.load());
  return out;
}

TEST(ParallelFor, EveryIndexRunsExactlyOnce) {
  ThreadPool pool(4);
  for (const std::size_t n : {0u, 1u, 3u, 4u, 1000u}) {
    const auto counts = run_counts(pool, n);
    ASSERT_EQ(counts.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(counts[i], 1) << "index " << i << " of " << n;
    }
  }
  pool.wait_idle();
  EXPECT_EQ(pool.exception_count(), 0u);
}

TEST(ParallelFor, NestedCallsFromEveryWorkerComplete) {
  // Both workers sit inside an outer task when they fork, so no worker is
  // free to run a queued helper: each caller must finish its own indices
  // instead of waiting on the queue.
  ThreadPool pool(2);
  std::atomic<int> arrived{0};
  std::atomic<int> inner{0};
  for (int t = 0; t < 2; ++t) {
    pool.submit([&] {
      arrived.fetch_add(1);
      while (arrived.load() < 2) std::this_thread::yield();
      pool.parallel_for(50, [&inner](std::size_t) { inner.fetch_add(1); });
    });
  }
  pool.wait_idle();
  EXPECT_EQ(inner.load(), 100);
}

TEST(ParallelFor, CallFromOutsideThePoolCompletes) {
  ThreadPool pool(2);
  std::atomic<long> sum{0};
  pool.parallel_for(64, [&sum](std::size_t i) {
    sum.fetch_add(static_cast<long>(i));
  });
  EXPECT_EQ(sum.load(), 63 * 64 / 2);
}

TEST(ParallelFor, OneThreadPoolRunsEveryIndexOnTheCaller) {
  ThreadPool pool(1);
  std::promise<bool> all_on_caller;
  pool.submit([&] {
    const auto caller = std::this_thread::get_id();
    std::vector<std::thread::id> ran(16);
    pool.parallel_for(ran.size(), [&ran](std::size_t i) {
      ran[i] = std::this_thread::get_id();
    });
    all_on_caller.set_value(std::all_of(
        ran.begin(), ran.end(),
        [caller](std::thread::id id) { return id == caller; }));
  });
  EXPECT_TRUE(all_on_caller.get_future().get());
}

TEST(ParallelFor, RethrowsTheLowestThrowingIndexAndStaysUsable) {
  ThreadPool pool(4);
  // Index 7 throws first in time: index 3 waits (bounded) until it has.
  std::atomic<bool> seven_threw{false};
  std::vector<std::atomic<int>> ran(20);
  try {
    pool.parallel_for(ran.size(), [&](std::size_t i) {
      ran[i].fetch_add(1);
      if (i == 7) {
        seven_threw.store(true);
        throw std::runtime_error("index 7");
      }
      if (i == 3) {
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(2);
        while (!seven_threw.load() &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::yield();
        }
        throw std::runtime_error("index 3");
      }
    });
    FAIL() << "parallel_for swallowed the bodies' exceptions";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "index 3");
  }
  // Every other index still ran, once.
  for (std::size_t i = 0; i < ran.size(); ++i) EXPECT_EQ(ran[i].load(), 1);
  // The throws never reached the pool's catch-all...
  pool.wait_idle();
  EXPECT_EQ(pool.exception_count(), 0u);
  // ...and the pool still forks and runs plain tasks.
  const auto counts = run_counts(pool, 100);
  EXPECT_EQ(std::count(counts.begin(), counts.end(), 1), 100);
  std::atomic<int> plain{0};
  pool.submit([&plain] { plain.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(plain.load(), 1);
}

TEST(ParallelFor, LateHelperTouchesNothingOfTheCaller) {
  // Pin both workers so the call's helpers stay queued; the caller runs
  // every index itself and returns, and its body is destroyed before the
  // helpers start. A helper that reached the body would be a
  // use-after-free (caught under ASan).
  ThreadPool pool(2);
  std::atomic<bool> release{false};
  std::atomic<int> pinned{0};
  for (int t = 0; t < 2; ++t) {
    pool.submit([&] {
      pinned.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
    });
  }
  while (pinned.load() < 2) std::this_thread::yield();
  int ran = 0;  // only the caller runs bodies: no synchronization needed
  auto body = std::make_unique<std::function<void(std::size_t)>>(
      [&ran](std::size_t) { ++ran; });
  pool.parallel_for(3, *body);
  body.reset();
  EXPECT_EQ(ran, 3);
  release.store(true);
  pool.wait_idle();  // the queued helpers run now, and find nothing
  EXPECT_EQ(ran, 3);
  EXPECT_EQ(pool.exception_count(), 0u);
}

}  // namespace
}  // namespace lion::engine
