// Unit tests for the thread pool and structured parallel loops.
#include "stof/parallel/parallel_for.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "stof/parallel/thread_pool.hpp"

namespace stof {
namespace {

using namespace std::chrono_literals;

// Runs `fn(pool)` on a fresh 4-thread pool inside std::async and reports
// whether it returned within `timeout`.  On a timeout the pool and the
// future are leaked on purpose: a deadlocked call can be neither joined nor
// destroyed, and the test must fail rather than hang.
template <typename Fn>
bool completes_within(std::chrono::seconds timeout, Fn fn) {
  auto* pool = new ThreadPool(4);
  auto* call = new std::future<void>(
      std::async(std::launch::async, [pool, fn] { fn(*pool); }));
  if (call->wait_for(timeout) != std::future_status::ready) return false;
  call->get();
  delete call;
  delete pool;
  return true;
}

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) pool.submit([&] { ++count; });
  pool.shutdown();  // drains the queue
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ThreadCountRespected) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.thread_count(), 3u);
  ThreadPool def(0);
  EXPECT_GE(def.thread_count(), 1u);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(0, 1000, [&](std::int64_t i) { ++hits[i]; }, pool);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyAndSingleRanges) {
  ThreadPool pool(4);
  int calls = 0;
  parallel_for(5, 5, [&](std::int64_t) { ++calls; }, pool);
  EXPECT_EQ(calls, 0);
  parallel_for(7, 8, [&](std::int64_t i) { EXPECT_EQ(i, 7); ++calls; }, pool);
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, NonZeroBegin) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(20);
  parallel_for(10, 20, [&](std::int64_t i) { ++hits[i]; }, pool);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(hits[i].load(), 0);
  for (int i = 10; i < 20; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelFor, PropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      parallel_for(
          0, 100,
          [](std::int64_t i) {
            if (i == 37) throw std::runtime_error("boom");
          },
          pool),
      std::runtime_error);
  // The pool must still be usable afterwards.
  std::atomic<int> count{0};
  parallel_for(0, 10, [&](std::int64_t) { ++count; }, pool);
  EXPECT_EQ(count.load(), 10);
}

TEST(ParallelFor, DeterministicResultRegardlessOfThreads) {
  // The static schedule writes each slot from exactly one index, so results
  // cannot depend on the number of workers.
  std::vector<double> r1(256), r4(256);
  ThreadPool p1(1), p4(4);
  auto body = [](std::vector<double>& out) {
    return [&out](std::int64_t i) {
      out[static_cast<std::size_t>(i)] = static_cast<double>(i) * 1.5 + 1;
    };
  };
  parallel_for(0, 256, body(r1), p1);
  parallel_for(0, 256, body(r4), p4);
  EXPECT_EQ(r1, r4);
}

TEST(ParallelFor, NestedCallCompletes) {
  // A parallel_for inside a body runs on a worker; the inner call must not
  // wait for the outer chunk that is running it.
  auto hits = std::make_shared<std::vector<std::atomic<int>>>(64);
  const auto nested = [hits](ThreadPool& pool) {
    parallel_for(
        0, 8,
        [&](std::int64_t i) {
          parallel_for(
              0, 8, [&](std::int64_t j) { ++(*hits)[i * 8 + j]; }, pool);
        },
        pool);
  };
  ASSERT_TRUE(completes_within(10s, nested))
      << "nested parallel_for did not return";
  for (auto& h : *hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, NestedExceptionReachesOuterCaller) {
  const auto nested = [](ThreadPool& pool) {
    parallel_for(
        0, 8,
        [&](std::int64_t i) {
          parallel_for(
              0, 8,
              [i](std::int64_t j) {
                if (i == 3 && j == 5) throw std::runtime_error("inner");
              },
              pool);
        },
        pool);
  };
  const auto outer_sees_throw = [nested](ThreadPool& pool) {
    EXPECT_THROW(nested(pool), std::runtime_error);
  };
  EXPECT_TRUE(completes_within(10s, outer_sees_throw))
      << "nested parallel_for did not return";
}

TEST(ParallelFor, ShortCallDoesNotWaitForAnotherCallersLongOne) {
  ThreadPool pool(4);
  std::atomic<bool> release{false};
  std::atomic<int> spinning{0};
  std::thread long_caller([&] {
    parallel_for(
        0, 4,
        [&](std::int64_t) {
          ++spinning;
          while (!release.load()) std::this_thread::yield();
        },
        pool);
  });
  // Watchdog: if the short call below waits for the long one, release the
  // long one after a few seconds so the test fails instead of hanging.
  std::promise<void> short_done;
  std::thread watchdog([&release, done = short_done.get_future()] {
    done.wait_for(5s);
    release.store(true);
  });
  while (spinning.load() < 4) std::this_thread::yield();

  std::atomic<int> ran{0};
  parallel_for(0, 4, [&](std::int64_t) { ++ran; }, pool);
  const bool released_before_return = release.load();
  short_done.set_value();
  watchdog.join();
  long_caller.join();
  EXPECT_FALSE(released_before_return)
      << "the short call returned only after the long one was released";
  EXPECT_EQ(ran.load(), 4);
}

}  // namespace
}  // namespace stof
