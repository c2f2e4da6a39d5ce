// Fixed-size work-stealing thread pool — the execution substrate of the
// batch calibration engine.
//
// Design constraints, in order:
//  1. *Determinism of the work itself*: the pool never reorders a task's
//     side effects relative to another task's — tasks must be independent,
//     and the engine guarantees that by giving each job its own output
//     slot and its own RNG seed. The pool only decides *where/when* a task
//     runs, never *what* it computes.
//  2. *No deadlocks on teardown*: the destructor drains nothing — it stops
//     accepting work, wakes every worker, and joins. wait_idle() is the
//     explicit barrier for callers that need completion.
//  3. *Work stealing*: submissions are distributed round-robin across
//     per-worker deques; an idle worker first drains its own deque
//     (LIFO, cache-friendly) and then steals from its siblings' opposite
//     end (FIFO, contention-friendly).
//  4. *Fork-join without blocking on the queue*: parallel_for lets the
//     caller claim indices alongside plain submitted helper tasks and
//     wait only for bodies that are already running, so it is safe from
//     inside a worker (nested), from any other thread, and on one thread.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/executor.hpp"

namespace lion::engine {

/// The pool is also a core::Executor, so a calibration can borrow it for
/// its adaptive sweep (AdaptiveConfig::executor). parallel_for contract:
///  - body(i) runs exactly once for each i in [0, n). Indices are claimed
///    in ascending order from one shared counter, by the caller and by up
///    to min(n - 1, free workers) helper tasks submitted like any other.
///  - The caller waits only for bodies already claimed (running), never
///    for a queued task, so a call from inside a worker, from a thread
///    outside the pool, or on a 1-thread pool cannot deadlock; nested
///    calls only ever wait on deeper, running bodies. Called from inside
///    a worker of a 1-thread pool, every index runs on the caller.
///  - A helper that starts after every index was claimed returns without
///    touching the caller's stack: the shared state is reference-counted.
///  - A throwing body never reaches the pool's catch-all: the throw is
///    caught, the index still counts as done, every other index still
///    runs, and the exception of the lowest throwing index is rethrown on
///    the caller.
///  - Bodies must write disjoint outputs.
class ThreadPool final : public core::Executor {
 public:
  using Task = std::function<void()>;

  /// Spawn `threads` workers. Throws std::invalid_argument on 0: callers
  /// pass explicit counts, so 0 is a caller bug.
  explicit ThreadPool(std::size_t threads);

  /// Stops accepting work, wakes all workers, joins. Tasks already
  /// submitted but not yet started are abandoned (the engine always
  /// wait_idle()s before destruction, so this only matters on exception
  /// paths).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task. Thread-safe; may be called from worker threads
  /// (nested submission): the serving layer's solve tasks fan their
  /// adaptive sweep out through parallel_for, which submits helpers from
  /// inside a worker. Tasks must not throw — a throwing task is caught,
  /// counted, and dropped so one bad job can never take the pool down.
  void submit(Task task);

  /// Fork-join over [0, n); see the contract above the class.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& body) override;

  /// Block until every submitted task has finished running.
  void wait_idle();

  std::size_t thread_count() const { return workers_.size(); }

  /// Tasks that ran on a worker other than the one they were assigned to
  /// (diagnostic; proves stealing actually happens under imbalance).
  std::size_t steal_count() const {
    return steals_.load(std::memory_order_relaxed);
  }

  /// Tasks whose invocation threw (caught and swallowed by the pool).
  std::size_t exception_count() const {
    return task_exceptions_.load(std::memory_order_relaxed);
  }

 private:
  // One mutex-guarded deque per worker. A lock-free Chase-Lev deque would
  // shave nanoseconds that calibration jobs (~10^7 ns each) cannot feel;
  // the mutexed deque is trivially correct under ASan/TSan.
  struct WorkerQueue {
    std::mutex mutex;
    std::deque<Task> tasks;
  };

  void worker_loop(std::size_t self);
  bool try_take(std::size_t self, Task& out);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;

  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;   ///< workers sleep here when starved
  std::condition_variable idle_cv_;   ///< wait_idle() sleeps here

  std::atomic<std::size_t> pending_{0};  ///< submitted but not finished
  std::atomic<std::size_t> next_queue_{0};
  std::atomic<std::size_t> steals_{0};
  std::atomic<std::size_t> task_exceptions_{0};
  std::atomic<bool> stop_{false};
};

}  // namespace lion::engine
