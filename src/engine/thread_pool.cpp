#include "engine/thread_pool.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <utility>

namespace lion::engine {

namespace {

// The pool whose worker this thread is (null off every pool):
// parallel_for submits one helper fewer when the caller is already one of
// the pool's workers.
thread_local const ThreadPool* tl_worker_of = nullptr;

// One parallel_for call's state, shared by the caller and its helpers. A
// helper may start after the call returned, so it holds a reference; it
// reaches `body` (the caller's) only through an index it claimed, and the
// caller does not return before every claimed index has finished.
struct ForkJoin {
  const std::function<void(std::size_t)>* body = nullptr;
  std::size_t n = 0;
  std::atomic<std::size_t> next{0};  ///< next index to claim

  std::mutex mutex;  ///< guards the fields below
  std::condition_variable finished;
  std::size_t done = 0;      ///< indices whose body returned or threw
  std::exception_ptr error;  ///< the lowest throwing index's exception
  std::size_t error_index = 0;

  void run() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      std::exception_ptr thrown;
      try {
        (*body)(i);
      } catch (...) {
        thrown = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(mutex);
      if (thrown && (!error || i < error_index)) {
        error = std::move(thrown);
        error_index = i;
      }
      if (++done == n) finished.notify_all();
    }
  }
};

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    throw std::invalid_argument("ThreadPool: thread count must be >= 1");
  }
  queues_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    stop_.store(true, std::memory_order_relaxed);
  }
  wake_cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void ThreadPool::submit(Task task) {
  const std::size_t home =
      next_queue_.fetch_add(1, std::memory_order_relaxed) % queues_.size();
  {
    std::lock_guard<std::mutex> lock(queues_[home]->mutex);
    queues_[home]->tasks.push_back(std::move(task));
  }
  // pending_ must be bumped before the wake so wait_idle() can never see
  // pending_ == 0 while a task sits queued.
  pending_.fetch_add(1, std::memory_order_release);
  // Serialize with the workers' sleep transition: a worker checks the
  // queues and blocks while holding wake_mutex_, so taking (and dropping)
  // the lock here guarantees the push above is visible to any worker that
  // has not yet committed to waiting — no lost wakeup.
  { std::lock_guard<std::mutex> lock(wake_mutex_); }
  wake_cv_.notify_one();
}

bool ThreadPool::try_take(std::size_t self, Task& out) {
  // Own queue first, newest-first: the task most likely still hot in
  // whatever cache the submitter shared with us.
  {
    auto& q = *queues_[self];
    std::lock_guard<std::mutex> lock(q.mutex);
    if (!q.tasks.empty()) {
      out = std::move(q.tasks.back());
      q.tasks.pop_back();
      return true;
    }
  }
  // Steal from siblings, oldest-first, starting at the neighbour so that
  // concurrent thieves fan out instead of convoying on one victim.
  for (std::size_t step = 1; step < queues_.size(); ++step) {
    auto& q = *queues_[(self + step) % queues_.size()];
    std::lock_guard<std::mutex> lock(q.mutex);
    if (!q.tasks.empty()) {
      out = std::move(q.tasks.front());
      q.tasks.pop_front();
      steals_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  auto fork = std::make_shared<ForkJoin>();
  fork->body = &body;
  fork->n = n;
  const std::size_t free_workers =
      thread_count() - (tl_worker_of == this ? 1 : 0);
  for (std::size_t h = std::min(n - 1, free_workers); h > 0; --h) {
    submit([fork] { fork->run(); });
  }
  fork->run();
  std::unique_lock<std::mutex> lock(fork->mutex);
  fork->finished.wait(lock, [&] { return fork->done == n; });
  if (fork->error) std::rethrow_exception(fork->error);
}

void ThreadPool::worker_loop(std::size_t self) {
  tl_worker_of = this;
  for (;;) {
    Task task;
    if (try_take(self, task)) {
      try {
        task();
      } catch (...) {
        task_exceptions_.fetch_add(1, std::memory_order_relaxed);
      }
      if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        // Last task in flight: wake wait_idle() callers. Lock so the
        // notify cannot race between their pending_ check and their wait.
        std::lock_guard<std::mutex> lock(wake_mutex_);
        idle_cv_.notify_all();
      }
      continue;
    }
    std::unique_lock<std::mutex> lock(wake_mutex_);
    if (stop_.load(std::memory_order_relaxed)) return;
    // Re-check under the lock: a submit() may have landed between the
    // failed try_take and acquiring the lock.
    wake_cv_.wait(lock, [this, self] {
      if (stop_.load(std::memory_order_relaxed)) return true;
      for (const auto& q : queues_) {
        std::lock_guard<std::mutex> ql(q->mutex);
        if (!q->tasks.empty()) return true;
      }
      (void)self;
      return false;
    });
    if (stop_.load(std::memory_order_relaxed)) return;
  }
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(wake_mutex_);
  idle_cv_.wait(lock, [this] {
    return pending_.load(std::memory_order_acquire) == 0;
  });
}

}  // namespace lion::engine
