// ScratchArena semantics (bump allocation, span stability, reuse
// accounting) and the parallel_for_scratch wrapper, including the
// determinism contract of the exec.parallel.scratch_reuse_hits counter.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "stof/parallel/parallel_for.hpp"
#include "stof/parallel/scratch.hpp"
#include "stof/telemetry/telemetry.hpp"

namespace stof {
namespace {

TEST(ScratchArena, FirstAllocGrowsLaterAllocsReuse) {
  ScratchArena arena;
  EXPECT_EQ(arena.capacity(), 0);
  EXPECT_EQ(arena.reuse_hits(), 0);

  auto a = arena.alloc(100);
  EXPECT_EQ(a.size(), 100u);
  EXPECT_GE(arena.capacity(), 100);
  EXPECT_EQ(arena.reuse_hits(), 0);  // served by growing a fresh block

  auto b = arena.alloc(100);  // fits in the same 1024-float block
  EXPECT_EQ(arena.reuse_hits(), 1);
  EXPECT_NE(a.data(), b.data());

  const auto cap = arena.capacity();
  arena.reset();
  auto c = arena.alloc(200);
  EXPECT_EQ(arena.reuse_hits(), 2);
  EXPECT_EQ(arena.capacity(), cap);  // reset retains memory
  EXPECT_EQ(c.data(), a.data());     // bump pointer rewound to block start
}

TEST(ScratchArena, SpansStayValidAcrossGrowth) {
  ScratchArena arena;
  auto small = arena.alloc(8);
  for (std::size_t i = 0; i < small.size(); ++i) {
    small[i] = static_cast<float>(i);
  }
  // Forces a new block (larger than anything owned): existing spans must
  // not move.
  auto big = arena.alloc(1 << 16);
  big[0] = -1.0f;
  for (std::size_t i = 0; i < small.size(); ++i) {
    EXPECT_EQ(small[i], static_cast<float>(i));
  }
}

TEST(ScratchArena, AllocZeroedAndFilledScrubReusedMemory) {
  ScratchArena arena;
  auto dirty = arena.alloc(64);
  for (auto& x : dirty) x = 42.0f;
  arena.reset();

  auto z = arena.alloc_zeroed(64);
  EXPECT_EQ(z.data(), dirty.data());  // same memory...
  for (const auto x : z) EXPECT_EQ(x, 0.0f);  // ...but scrubbed

  arena.reset();
  auto f = arena.alloc_filled(64, -3.5f);
  for (const auto x : f) EXPECT_EQ(x, -3.5f);
}

TEST(ScratchArena, ZeroSizedAllocIsValid) {
  ScratchArena arena;
  auto s = arena.alloc(0);
  EXPECT_TRUE(s.empty());
}

TEST(ScratchArena, EveryAllocationIsCacheLineAligned) {
  // The SIMD micro-kernels stream these buffers; every span must start on
  // a 64-byte boundary regardless of the preceding allocation sizes.
  static_assert(ScratchArena::kAlignBytes == 64);
  ScratchArena arena;
  const auto aligned = [](const float* p) {
    return reinterpret_cast<std::uintptr_t>(p) % ScratchArena::kAlignBytes ==
           0;
  };
  // Awkward sizes: each next offset must round up to a 16-float multiple.
  for (const std::int64_t n : {1, 7, 16, 17, 100, 96, 3, 1024, 5}) {
    EXPECT_TRUE(aligned(arena.alloc(n).data())) << n;
  }
  // Growth blocks (fresh operator new) are aligned too.
  EXPECT_TRUE(aligned(arena.alloc(1 << 16).data()));
  // ...and so is the rewound bump pointer after reset().
  arena.reset();
  EXPECT_TRUE(aligned(arena.alloc(33).data()));
  EXPECT_TRUE(aligned(arena.alloc(33).data()));
}

TEST(ParallelForScratch, VisitsEveryIndexOnceWithResetArena) {
  ThreadPool pool(4);
  constexpr std::int64_t kN = 1000;
  std::vector<std::atomic<int>> visits(kN);
  parallel_for_scratch(
      0, kN,
      [&](std::int64_t i, ScratchArena& arena) {
        // The arena is reset before every task: a fresh alloc must start
        // at offset 0 of the first block, i.e. allocations from previous
        // tasks on this chunk never accumulate.
        auto a = arena.alloc(16);
        auto b = arena.alloc(16);
        EXPECT_EQ(b.data(), a.data() + 16);
        a[0] = static_cast<float>(i);
        visits[static_cast<std::size_t>(i)].fetch_add(1);
      },
      pool);
  for (std::int64_t i = 0; i < kN; ++i) {
    EXPECT_EQ(visits[static_cast<std::size_t>(i)].load(), 1) << i;
  }
}

TEST(ParallelForScratch, ReuseHitsCounterIsDeterministic) {
  // Per-chunk arenas make the reuse count a pure function of the range,
  // the pool size, and the allocation pattern — NOT of which worker thread
  // happens to execute which chunk.  Two identical runs must therefore
  // report identical exec.parallel.scratch_reuse_hits, which is what keeps
  // telemetry_determinism_test's byte-identical-dump assertion valid.
  ThreadPool pool(4);
  telemetry::ScopedTelemetry on(true);

  const auto run = [&pool] {
    telemetry::global_registry().reset();
    parallel_for_scratch(
        0, 257,
        [](std::int64_t, ScratchArena& arena) {
          auto s = arena.alloc_zeroed(96);
          s[0] = 1.0f;
        },
        pool);
    return telemetry::global_registry().counter(
        "exec.parallel.scratch_reuse_hits");
  };

  const auto first = run();
  // 257 tasks over 4 chunks of <=65: only the first task of each chunk
  // grows a block, every later task is a reuse hit.
  EXPECT_EQ(first, 257 - 4);
  for (int rep = 0; rep < 5; ++rep) {
    EXPECT_EQ(run(), first);
  }
}

TEST(ParallelForScratch, SerialPathCountsReuseToo) {
  ThreadPool pool(1);
  telemetry::ScopedTelemetry on(true);
  telemetry::global_registry().reset();
  parallel_for_scratch(
      0, 10, [](std::int64_t, ScratchArena& arena) { arena.alloc(8); }, pool);
  EXPECT_EQ(
      telemetry::global_registry().counter("exec.parallel.scratch_reuse_hits"),
      9);
}

TEST(ParallelForScratch, ThrowingChunkStillCountsItsReuseHits) {
  ThreadPool pool(4);
  telemetry::ScopedTelemetry on(true);
  telemetry::global_registry().reset();
  // 8 indices on 4 threads are 4 chunks of 2: each chunk's second task is
  // a reuse hit, including the chunk whose second task then throws.
  EXPECT_THROW(parallel_for_scratch(
                   0, 8,
                   [](std::int64_t i, ScratchArena& arena) {
                     arena.alloc(8);
                     if (i == 7) throw std::runtime_error("late failure");
                   },
                   pool),
               std::runtime_error);
  EXPECT_EQ(
      telemetry::global_registry().counter("exec.parallel.scratch_reuse_hits"),
      4);
}

TEST(ParallelForScratch, ManyCallersShareOnePool) {
  // Concurrent callers on one pool: every call visits each index once, and
  // its reuse hits are those of the same call made alone, because the chunk
  // partition depends only on (range, pool size) and helpers left over from
  // a returned call claim nothing.
  constexpr int kCallers = 4;
  constexpr int kCalls = 200;
  ThreadPool pool(4);
  const auto range = [](int call) { return std::int64_t{1} + call * 13 % 97; };

  // Reuse hits of one call, summed from the bodies' arena deltas.
  const auto run = [&pool, &range](int call) {
    const std::int64_t n = range(call);
    std::vector<std::atomic<int>> visits(static_cast<std::size_t>(n));
    std::atomic<std::int64_t> hits{0};
    parallel_for_scratch(
        0, n,
        [&](std::int64_t i, ScratchArena& arena) {
          const std::int64_t before = arena.reuse_hits();
          for (std::int64_t a = 0; a <= i % 3; ++a) {
            arena.alloc(16 * (i % 5 + 1));
          }
          hits += arena.reuse_hits() - before;
          visits[static_cast<std::size_t>(i)].fetch_add(1);
        },
        pool);
    for (std::int64_t i = 0; i < n; ++i) {
      EXPECT_EQ(visits[static_cast<std::size_t>(i)].load(), 1)
          << "call " << call << " index " << i;
    }
    return hits.load();
  };

  telemetry::ScopedTelemetry on(true);
  telemetry::global_registry().reset();
  std::vector<std::int64_t> alone(kCalls);
  std::int64_t alone_total = 0;
  for (int c = 0; c < kCalls; ++c) {
    alone[static_cast<std::size_t>(c)] = run(c);
    alone_total += alone[static_cast<std::size_t>(c)];
  }
  EXPECT_EQ(
      telemetry::global_registry().counter("exec.parallel.scratch_reuse_hits"),
      alone_total);

  telemetry::global_registry().reset();
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      for (int k = 0; k < kCalls; ++k) {
        const int c = (k + t * 50) % kCalls;  // callers interleave shapes
        EXPECT_EQ(run(c), alone[static_cast<std::size_t>(c)]) << "call " << c;
      }
    });
  }
  for (auto& c : callers) c.join();
  EXPECT_EQ(
      telemetry::global_registry().counter("exec.parallel.scratch_reuse_hits"),
      kCallers * alone_total);
}

}  // namespace
}  // namespace stof
