// A small fixed-size thread pool.
//
// The simulated GPU executes thread blocks of a kernel launch on this pool
// (one task per block range), mirroring the way CUDA distributes blocks
// over SMs.  The pool follows structured-parallelism discipline: work is
// submitted as a batch and joined before the submitting call returns, so no
// kernel ever leaks tasks past its launch scope.
//
// The serving runtime (stof::serve) keeps the global pool alive for the
// whole process, which makes the shutdown and exception paths load-bearing:
//   * a task that throws no longer terminates the process — the first
//     exception is captured and rethrown from the next wait_idle() (the
//     structured join point), and the outstanding-task accounting still
//     runs so wait_idle() can never hang on a failed task;
//   * shutdown() is an explicit, idempotent join usable before destruction;
//     queued tasks are drained first, and submit() after shutdown fails
//     with a checked error instead of racing the worker teardown.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "stof/core/check.hpp"

namespace stof {

/// Worker count for a default-sized pool: the CPUs the calling thread may
/// run on (its affinity mask), else hardware_concurrency; at least 1.  A
/// process pinned to one CPU gets one worker, so parallel_for runs inline
/// instead of time-slicing workers on that core.
inline std::size_t default_thread_count() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int cpus = CPU_COUNT(&set);
    if (cpus > 0) return static_cast<std::size_t>(cpus);
  }
#endif
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

/// Fixed-size worker pool executing void() tasks.
class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means default_thread_count().
  explicit ThreadPool(std::size_t threads = 0) {
    if (threads == 0) threads = default_thread_count();
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() { shutdown(); }

  [[nodiscard]] std::size_t thread_count() const { return workers_.size(); }

  /// Enqueue one task.  Pair with wait_idle() to join the batch.
  void submit(std::function<void()> task) {
    {
      std::scoped_lock lock(mutex_);
      STOF_CHECK(!stopping_, "submit after shutdown");
      tasks_.push(std::move(task));
      ++outstanding_;
    }
    cv_.notify_one();
  }

  /// Block until every submitted task has completed.  If any task threw
  /// since the last join, the first captured exception is rethrown here.
  void wait_idle() {
    std::exception_ptr error;
    {
      std::unique_lock lock(mutex_);
      idle_cv_.wait(lock, [this] { return outstanding_ == 0; });
      error = std::exchange(first_error_, nullptr);
    }
    if (error) std::rethrow_exception(error);
  }

  /// Drain queued tasks and join every worker.  Idempotent and safe to
  /// race with submit(): late submitters fail the stopping check instead
  /// of enqueueing into a dead pool.  Exceptions captured from tasks that
  /// were never joined via wait_idle() are dropped (the batch owner is
  /// gone).  The destructor calls this.
  void shutdown() {
    std::scoped_lock join_lock(join_mutex_);
    {
      std::scoped_lock lock(mutex_);
      if (stopping_ && joined_) return;
      stopping_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_) {
      if (w.joinable()) w.join();
    }
    std::scoped_lock lock(mutex_);
    joined_ = true;
  }

  /// Process-wide pool shared by kernels that do not get an explicit one.
  static ThreadPool& global() {
    static ThreadPool pool;
    return pool;
  }

 private:
  void worker_loop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock lock(mutex_);
        cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
        if (stopping_ && tasks_.empty()) return;
        task = std::move(tasks_.front());
        tasks_.pop();
      }
      try {
        task();
      } catch (...) {
        std::scoped_lock lock(mutex_);
        if (!first_error_) first_error_ = std::current_exception();
      }
      {
        std::scoped_lock lock(mutex_);
        if (--outstanding_ == 0) idle_cv_.notify_all();
      }
    }
  }

  std::mutex mutex_;
  std::mutex join_mutex_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::queue<std::function<void()>> tasks_;
  std::vector<std::thread> workers_;
  std::size_t outstanding_ = 0;
  std::exception_ptr first_error_;
  bool stopping_ = false;
  bool joined_ = false;
};

}  // namespace stof
