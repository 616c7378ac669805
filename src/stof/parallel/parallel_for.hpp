// OpenMP-style structured parallel loops over index ranges.
//
// Both entry points run on one chunk loop (detail::for_each_chunk): it
// statically partitions [begin, end) into one contiguous chunk per pool
// worker — the deterministic schedule keeps kernel execution reproducible
// regardless of thread timing, because each index is always processed
// exactly once and results are written to disjoint locations.  Each call
// joins only its own chunks, and the calling thread works on them too, so
// concurrent callers never wait for each other and a call nested inside a
// body completes.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>

#include "stof/parallel/scratch.hpp"
#include "stof/parallel/thread_pool.hpp"
#include "stof/telemetry/telemetry.hpp"

namespace stof {

namespace detail {

/// State shared by one for_each_chunk call and its helper tasks.  It lives
/// in a shared_ptr, so a helper that starts after the call has returned
/// still finds valid state: it claims no chunk and never touches the body.
struct ChunkLoop {
  explicit ChunkLoop(std::int64_t n_chunks) : chunks(n_chunks) {}

  const std::int64_t chunks;
  std::atomic<std::int64_t> next{0};  // next unclaimed chunk
  std::mutex mutex;
  std::condition_variable cv;
  std::int64_t done = 0;           // finished chunks, guarded by mutex
  std::exception_ptr first_error;  // guarded by mutex

  void fail(std::exception_ptr error) {
    std::scoped_lock lock(mutex);
    if (!first_error) first_error = std::move(error);
  }

  void chunk_done() {
    std::scoped_lock lock(mutex);
    if (++done == chunks) cv.notify_one();
  }
};

/// Run `chunk(lo, hi)` over a partition of [begin, end) into min(n,
/// thread_count) contiguous chunks of ceil(n / chunks) indices — a pure
/// function of (range, pool size); trailing chunks left empty by the
/// rounding are dropped.  The caller submits one helper task per chunk
/// beyond the first, claims chunks from the same counter as the helpers
/// until none is left, then waits until every chunk has finished and
/// rethrows the first exception any chunk threw.
template <typename Chunk>
void for_each_chunk(std::int64_t begin, std::int64_t end, ThreadPool& pool,
                    const Chunk& chunk) {
  if (begin >= end) return;
  const std::int64_t n = end - begin;
  const std::int64_t workers =
      std::min(n, static_cast<std::int64_t>(pool.thread_count()));
  const std::int64_t per = (n + workers - 1) / workers;

  const auto loop = std::make_shared<ChunkLoop>((n + per - 1) / per);
  const auto claim = [loop, begin, end, per, &chunk] {
    for (;;) {
      const std::int64_t c = loop->next.fetch_add(1);
      if (c >= loop->chunks) return;
      try {
        const std::int64_t lo = begin + c * per;
        chunk(lo, std::min(end, lo + per));
      } catch (...) {
        loop->fail(std::current_exception());
      }
      loop->chunk_done();
    }
  };
  try {
    for (std::int64_t h = 1; h < loop->chunks; ++h) pool.submit(claim);
  } catch (...) {
    // The pool is shut down.  Helpers queued before that still run, so the
    // caller claims the rest of the chunks and waits for all of them before
    // it reports the error: no helper reaches the body after the return.
    loop->fail(std::current_exception());
  }
  claim();

  std::unique_lock lock(loop->mutex);
  loop->cv.wait(lock, [&] { return loop->done == loop->chunks; });
  if (loop->first_error) std::rethrow_exception(loop->first_error);
}

}  // namespace detail

/// Apply `body(i)` for every i in [begin, end) using `pool`.
///
/// The body must write only to locations owned by index i.  Exceptions
/// thrown by any body are captured and the first one is rethrown on the
/// calling thread once every chunk has finished.
template <typename Body>
void parallel_for(std::int64_t begin, std::int64_t end, Body&& body,
                  ThreadPool& pool = ThreadPool::global()) {
  detail::for_each_chunk(begin, end, pool,
                         [&body](std::int64_t lo, std::int64_t hi) {
                           for (std::int64_t i = lo; i < hi; ++i) body(i);
                         });
}

/// parallel_for variant whose body receives a per-chunk ScratchArena:
/// `body(i, ScratchArena&)`.  The arena is reset before every body call and
/// its blocks are reused across all tasks of the chunk, so steady-state
/// tasks allocate nothing on the heap.  One arena per *chunk* (not per
/// thread) keeps the `exec.parallel.scratch_reuse_hits` telemetry counter
/// deterministic: the chunk partition depends only on (range, pool size),
/// never on which thread picks up which chunk.  A chunk whose body throws
/// still counts the hits it made.
template <typename Body>
void parallel_for_scratch(std::int64_t begin, std::int64_t end, Body&& body,
                          ThreadPool& pool = ThreadPool::global()) {
  detail::for_each_chunk(
      begin, end, pool, [&body](std::int64_t lo, std::int64_t hi) {
        ScratchArena arena;
        std::exception_ptr error;
        try {
          for (std::int64_t i = lo; i < hi; ++i) {
            arena.reset();
            body(i, arena);
          }
        } catch (...) {
          error = std::current_exception();
        }
        telemetry::count("exec.parallel.scratch_reuse_hits",
                         arena.reuse_hits());
        if (error) std::rethrow_exception(error);
      });
}

}  // namespace stof
