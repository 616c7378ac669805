// Thread-local-style scratch arena for per-task kernel temporaries.
//
// The functional MHA kernels need a handful of small FP32 buffers per
// parallel_for task (softmax state, score tiles, converted panels).
// Allocating them as std::vectors inside the task body puts several heap
// round trips on the hot path of every task.  A ScratchArena is a bump
// allocator over a small set of heap blocks: the first task of a chunk
// grows the blocks, every later task re-bumps over the same memory
// (reset() is two integer stores, no deallocation), so steady-state tasks
// perform zero heap allocations.
//
// Spans returned by alloc() stay valid until the next reset(): growth
// appends new blocks and never moves existing ones.  Arenas are not
// thread-safe; parallel_for_scratch (parallel_for.hpp) gives each chunk
// its own arena, which keeps the reuse accounting deterministic — the
// chunk partition is a pure function of (range, pool size), unlike the
// chunk-to-thread assignment (helpers and the calling thread claim chunks
// in whatever order they get to them).
//
// Every span alloc() returns starts on a 64-byte (cache-line) boundary:
// blocks are allocated with 64-byte-aligned operator new and the bump
// offset rounds up to a 16-float multiple between allocations.  The SIMD
// micro-kernels use unaligned loads, so this is a performance property
// (no panel straddles a cache line needlessly, no split-load penalty on
// the hot score/accumulator tiles), not a correctness requirement.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <vector>

#include "stof/core/check.hpp"

namespace stof {

/// Bump allocator over stable heap blocks, reused across tasks via reset().
class ScratchArena {
 public:
  /// Alignment of every returned span (one x86 cache line, 16 floats).
  static constexpr std::size_t kAlignBytes = 64;

  ScratchArena() = default;
  ScratchArena(const ScratchArena&) = delete;
  ScratchArena& operator=(const ScratchArena&) = delete;

  /// Uninitialized span of `n` floats, valid until the next reset(),
  /// starting on a kAlignBytes boundary.
  std::span<float> alloc(std::int64_t n) {
    STOF_EXPECTS(n >= 0, "scratch allocation size must be non-negative");
    const auto count = static_cast<std::size_t>(n);
    // Serve from the first block (at or after the active one) with room —
    // blocks never move, so previously returned spans stay valid.  The
    // offset only ever holds kAlignFloats multiples, so block starts being
    // kAlignBytes-aligned makes every returned pointer aligned too.
    while (active_ < blocks_.size()) {
      Block& blk = blocks_[active_];
      if (blk.capacity - offset_ >= count) {
        float* p = blk.data.get() + offset_;
        offset_ = align_up(offset_ + count);
        ++reuse_hits_;
        return {p, count};
      }
      ++active_;
      offset_ = 0;
    }
    // Grow: new blocks at least double the last so steady state is one
    // or two blocks regardless of the allocation sequence.
    const std::size_t last = blocks_.empty() ? 0 : blocks_.back().capacity;
    const std::size_t cap =
        align_up(std::max({count, 2 * last, kMinBlockFloats}));
    blocks_.push_back(make_block(cap));
    active_ = blocks_.size() - 1;
    offset_ = align_up(count);
    return {blocks_.back().data.get(), count};
  }

  /// Zero-filled span (alloc() memory may hold a previous task's data).
  std::span<float> alloc_zeroed(std::int64_t n) {
    auto s = alloc(n);
    std::fill(s.begin(), s.end(), 0.0f);
    return s;
  }

  /// Span filled with `value` (e.g. -inf for running softmax maxima).
  std::span<float> alloc_filled(std::int64_t n, float value) {
    auto s = alloc(n);
    std::fill(s.begin(), s.end(), value);
    return s;
  }

  /// Release every allocation (memory is retained for the next task).
  void reset() {
    active_ = 0;
    offset_ = 0;
  }

  /// Allocations served from already-owned memory (no heap growth).
  [[nodiscard]] std::int64_t reuse_hits() const { return reuse_hits_; }
  /// Total floats of backing capacity currently owned.
  [[nodiscard]] std::int64_t capacity() const {
    std::int64_t total = 0;
    for (const auto& b : blocks_) total += static_cast<std::int64_t>(b.capacity);
    return total;
  }

 private:
  static constexpr std::size_t kMinBlockFloats = 1024;
  static constexpr std::size_t kAlignFloats = kAlignBytes / sizeof(float);

  [[nodiscard]] static constexpr std::size_t align_up(std::size_t floats) {
    return (floats + kAlignFloats - 1) & ~(kAlignFloats - 1);
  }

  struct AlignedDelete {
    void operator()(float* p) const {
      ::operator delete[](p, std::align_val_t{kAlignBytes});
    }
  };

  struct Block {
    std::unique_ptr<float[], AlignedDelete> data;
    std::size_t capacity = 0;
  };

  [[nodiscard]] static Block make_block(std::size_t cap) {
    auto* p = static_cast<float*>(
        ::operator new[](cap * sizeof(float), std::align_val_t{kAlignBytes}));
    return Block{std::unique_ptr<float[], AlignedDelete>(p), cap};
  }

  std::vector<Block> blocks_;
  std::size_t active_ = 0;
  std::size_t offset_ = 0;
  std::int64_t reuse_hits_ = 0;
};

}  // namespace stof
