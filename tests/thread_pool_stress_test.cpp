// ThreadPool shutdown and parallel_for exception-path stress tests.
//
// The serving runtime keeps the global pool alive for the whole process,
// which promotes the failure paths from theoretical to load-bearing: a
// throwing body must surface on the parallel_for caller (not terminate the
// process or hang the call) and leave the pool usable, and shutdown must be
// explicit, idempotent, and safe to race with late submitters.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>

#include "stof/parallel/parallel_for.hpp"
#include "stof/parallel/thread_pool.hpp"

namespace stof {
namespace {

TEST(ThreadPoolStress, BodyExceptionRethrownToCaller) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  // 33 indices on 4 threads are the chunks [0,9) [9,18) [18,27) [27,33).
  // Index 17 ends its chunk, so every other body is healthy and runs.
  EXPECT_THROW(parallel_for(
                   0, 33,
                   [&ran](std::int64_t i) {
                     if (i == 17) throw std::runtime_error("body failed");
                     ++ran;
                   },
                   pool),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 32);  // healthy bodies all completed
}

TEST(ThreadPoolStress, PoolUsableAfterBodyException) {
  ThreadPool pool(2);
  EXPECT_THROW(parallel_for(
                   0, 1,
                   [](std::int64_t) { throw std::runtime_error("boom"); },
                   pool),
               std::runtime_error);
  // The error belonged to that call; the next call is clean.
  std::atomic<int> ran{0};
  EXPECT_NO_THROW(parallel_for(
      0, 8, [&ran](std::int64_t) { ++ran; }, pool));
  EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPoolStress, OnlyFirstExceptionIsReported) {
  ThreadPool pool(2);
  EXPECT_THROW(parallel_for(
                   0, 8,
                   [](std::int64_t) {
                     throw std::runtime_error("one of many");
                   },
                   pool),
               std::runtime_error);
  // Later failures of that call were not queued up for the next one.
  EXPECT_NO_THROW(parallel_for(0, 8, [](std::int64_t) {}, pool));
}

TEST(ThreadPoolStress, ShutdownDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.submit([&ran] {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        ++ran;
      });
    }
    pool.shutdown();
    EXPECT_EQ(ran.load(), 64);
  }
  EXPECT_EQ(ran.load(), 64);  // destructor after shutdown is a no-op
}

TEST(ThreadPoolStress, ShutdownIsIdempotent) {
  ThreadPool pool(2);
  pool.submit([] {});
  pool.shutdown();
  EXPECT_NO_THROW(pool.shutdown());
  EXPECT_NO_THROW(pool.shutdown());
}

TEST(ThreadPoolStress, SubmitAfterShutdownThrows) {
  ThreadPool pool(2);
  pool.shutdown();
  EXPECT_THROW(pool.submit([] {}), Error);
}

TEST(ThreadPoolStress, ParallelForOnShutDownPoolThrows) {
  ThreadPool pool(4);
  pool.shutdown();
  std::atomic<int> ran{0};
  EXPECT_THROW(parallel_for(0, 8, [&ran](std::int64_t) { ++ran; }, pool),
               Error);
  // No helper could be queued, so the caller ran every chunk itself before
  // it reported the failed submit.
  EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPoolStress, ConcurrentSubmittersRacingShutdown) {
  // Late submitters must either succeed (task runs before workers join) or
  // fail the stopping check — never enqueue into a dead pool or crash.
  ThreadPool pool(4);
  std::atomic<bool> stop{false};
  std::atomic<int> accepted{0}, rejected{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&] {
      while (!stop.load()) {
        try {
          pool.submit([] {});
          ++accepted;
        } catch (const Error&) {
          ++rejected;
          break;
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  pool.shutdown();
  stop.store(true);
  for (auto& t : submitters) t.join();
  EXPECT_GT(accepted.load(), 0);
}

TEST(ThreadPoolStress, ManyCallsWithInterleavedFailures) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  int thrown = 0;
  for (int batch = 0; batch < 50; ++batch) {
    const bool poison = batch % 7 == 0;
    // 9 indices on 4 threads are the chunks [0,3) [3,6) [6,9): the poison
    // at index 8 ends its chunk, so the 8 healthy bodies always run.
    const auto body = [&ran, poison](std::int64_t i) {
      if (i == 8) {
        if (poison) throw std::runtime_error("poison");
        return;
      }
      ++ran;
    };
    if (poison) {
      EXPECT_THROW(parallel_for(0, 9, body, pool), std::runtime_error)
          << batch;
      ++thrown;
    } else {
      EXPECT_NO_THROW(parallel_for(0, 9, body, pool)) << batch;
    }
  }
  EXPECT_EQ(ran.load(), 50 * 8);
  EXPECT_EQ(thrown, 8);
}

}  // namespace
}  // namespace stof
