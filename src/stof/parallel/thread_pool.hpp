// A small fixed-size thread pool.
//
// The functional kernels run their block tasks on this pool through
// parallel_for (parallel_for.hpp), standing in for the way a GPU hands
// thread blocks to SMs.  The pool itself only queues and runs tasks; each
// parallel_for call tracks and joins its own chunks.
//
// The serving runtime (stof::serve) keeps the global pool alive for the
// whole process, which makes the shutdown path load-bearing: shutdown() is
// an explicit, idempotent join usable before destruction; queued tasks are
// drained first, and submit() after shutdown fails with a checked error
// instead of racing the worker teardown.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

#include "stof/core/check.hpp"

namespace stof {

/// Fixed-size worker pool executing void() tasks.
class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t threads = 0) {
    if (threads == 0) {
      threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
    }
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() { shutdown(); }

  [[nodiscard]] std::size_t thread_count() const { return workers_.size(); }

  /// Enqueue one task.  Tasks must not throw: an exception escaping a task
  /// terminates the process.  The submitter joins its own tasks
  /// (parallel_for catches every body exception and rethrows it on the
  /// calling thread).
  void submit(std::function<void()> task) {
    {
      std::scoped_lock lock(mutex_);
      STOF_CHECK(!stopping_, "submit after shutdown");
      tasks_.push(std::move(task));
    }
    cv_.notify_one();
  }

  /// Drain queued tasks and join every worker.  Idempotent and safe to
  /// race with submit(): late submitters fail the stopping check instead
  /// of enqueueing into a dead pool.  The destructor calls this.
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
      task();
    }
  }

  std::mutex mutex_;
  std::mutex join_mutex_;
  std::condition_variable cv_;
  std::queue<std::function<void()>> tasks_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;
  bool joined_ = false;
};

}  // namespace stof
