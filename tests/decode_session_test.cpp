// Decode-continuation bit-identity: a chain of single-token paged decode
// steps over a growing KV cache must reproduce one full-sequence blockwise
// pass bit-for-bit (same mask, KV page size == BLOCK_N).  This is the
// invariant the serving engine's preemption/recompute path relies on.  The
// KV pool's decode sidecar is checked alongside: per-step conversion work,
// page recycling, and truncate-then-rewrite in place on both tiers.
#include <gtest/gtest.h>

#include <cstring>

#include "paged_kv_fixture.hpp"
#include "stof/core/packed.hpp"
#include "stof/core/rng.hpp"
#include "stof/mha/blockwise_kernel.hpp"
#include "stof/mha/decode.hpp"
#include "stof/serve/kv_pool.hpp"
#include "stof/sparse/bsr_mask.hpp"
#include "stof/telemetry/telemetry.hpp"

namespace stof::mha {
namespace {

constexpr std::int64_t kHeads = 2;
constexpr std::int64_t kHeadSize = 32;
constexpr std::int64_t kTotal = 48;
constexpr std::int64_t kBlockTokens = 16;

struct Fixture {
  TensorH q, k, v;
  masks::Mask mask{kTotal};

  explicit Fixture(std::uint64_t seed, masks::PatternKind kind)
      : q(Shape{kHeads, kTotal, kHeadSize}),
        k(Shape{kHeads, kTotal, kHeadSize}),
        v(Shape{kHeads, kTotal, kHeadSize}) {
    Rng rng(seed);
    q.fill_random(rng);
    k.fill_random(rng);
    v.fill_random(rng);
    mask = masks::MaskSpec{.kind = kind, .seq_len = kTotal}.build() &
           masks::causal(kTotal);
  }
};

/// Sidecar bytes the KV pools have converted since telemetry was reset.
std::int64_t sidecar_bytes() {
  return telemetry::global_registry().counter(
      "serve.kv.sidecar_bytes_converted");
}

/// Runs the decode chain against the full blockwise pass and asserts every
/// output row is byte-identical.  Every step reads the KV pool's FP32
/// sidecar, converted incrementally — the outputs must not change by a
/// single bit.  The chain runs as session 0 of `pool` (a fresh pool when
/// null) and releases it at the end.
void expect_chain_matches_full_pass(const Fixture& f,
                                    serve::KvPool* shared_pool = nullptr) {
  const MhaDims dims{1, kHeads, kTotal, kHeadSize};
  const BlockwiseParams params{16, 16};
  const TensorH full = blockwise_attention(
      dims, f.q, f.k, f.v,
      sparse::BsrMask::build(f.mask, params.block_m, params.block_n), params);

  serve::KvPool own_pool(
      serve::KvPoolConfig{8, kBlockTokens, kHeads, kHeadSize});
  serve::KvPool& pool = shared_pool != nullptr ? *shared_pool : own_pool;
  for (std::int64_t pos = 0; pos < kTotal; ++pos) {
    // Append position pos's K/V to the paged cache.
    auto slot = pool.append_token(/*id=*/0);
    ASSERT_TRUE(slot.has_value());
    for (std::int64_t h = 0; h < kHeads; ++h) {
      for (std::int64_t e = 0; e < kHeadSize; ++e) {
        slot->k[h * kHeadSize + e] = f.k.at(h, pos, e);
        slot->v[h * kHeadSize + e] = f.v.at(h, pos, e);
      }
    }

    // Single-token decode for this position.
    TensorH q_step(Shape{kHeads, 1, kHeadSize});
    for (std::int64_t h = 0; h < kHeads; ++h) {
      for (std::int64_t e = 0; e < kHeadSize; ++e) {
        q_step.at(h, 0, e) = f.q.at(h, pos, e);
      }
    }
    std::vector<std::int32_t> cols;
    for (std::int64_t j = 0; j <= pos; ++j) {
      if (f.mask.at(pos, j)) cols.push_back(static_cast<std::int32_t>(j));
    }
    pool.ensure_sidecar(0);
    const PagedSeq seq{pos + 1, kBlockTokens, pool.k_blocks(0),
                       pool.v_blocks(0), cols, pool.sidecar(0)};
    const TensorH step =
        decode_attention_paged(kHeads, kHeadSize, {&seq, 1}, q_step);

    // Byte-compare the step output to the full pass's row `pos`.
    for (std::int64_t h = 0; h < kHeads; ++h) {
      ASSERT_EQ(std::memcmp(&step.at(h, 0, 0), &full.at(h, pos, 0),
                            static_cast<std::size_t>(kHeadSize) *
                                sizeof(half)),
                0)
          << "pos=" << pos << " h=" << h;
    }
  }
  pool.release(0);
}

TEST(DecodeSession, ChainBitIdenticalToBlockwisePassCausal) {
  expect_chain_matches_full_pass(Fixture(31, masks::PatternKind::kCausal));
}

TEST(DecodeSession, ChainBitIdenticalToBlockwisePassStrided) {
  expect_chain_matches_full_pass(Fixture(37, masks::PatternKind::kStrided));
}

TEST(DecodeSession, ChainBitIdenticalToBlockwisePassBigBird) {
  expect_chain_matches_full_pass(Fixture(41, masks::PatternKind::kBigBird));
}

TEST(DecodeSession, ChainBitIdenticalUnderScalarExecution) {
  ScopedPackedExecution scalar(false);
  expect_chain_matches_full_pass(Fixture(43, masks::PatternKind::kLongformer));
}

TEST(DecodeSession, SidecarChainBitIdenticalToBlockwisePass) {
  // Two chains through one pool: the second runs on the first's recycled
  // pages and sidecar rows — conversion reuse must be invisible.
  serve::KvPool pool(serve::KvPoolConfig{8, kBlockTokens, kHeads, kHeadSize});
  expect_chain_matches_full_pass(Fixture(31, masks::PatternKind::kCausal),
                                 &pool);
  expect_chain_matches_full_pass(Fixture(41, masks::PatternKind::kBigBird),
                                 &pool);
}

TEST(DecodeSession, PreemptAndRecomputeWithSidecarIsByteIdentical) {
  // Preemption drops a session's pages and later recomputes its whole
  // prefix.  The sidecar must reset with the pages: after release +
  // full re-ingest, decode outputs match a never-preempted chain exactly.
  const Fixture f(59, masks::PatternKind::kCausal);
  serve::KvPool pool(serve::KvPoolConfig{8, kBlockTokens, kHeads, kHeadSize});
  const auto ingest_prefix = [&](std::int64_t upto) {
    for (std::int64_t pos = 0; pos < upto; ++pos) {
      auto slot = pool.append_token(/*id=*/0);
      ASSERT_TRUE(slot.has_value());
      for (std::int64_t h = 0; h < kHeads; ++h) {
        for (std::int64_t e = 0; e < kHeadSize; ++e) {
          slot->k[h * kHeadSize + e] = f.k.at(h, pos, e);
          slot->v[h * kHeadSize + e] = f.v.at(h, pos, e);
        }
      }
    }
  };
  const auto decode_last = [&](std::int64_t ctx) {
    TensorH q_step(Shape{kHeads, 1, kHeadSize});
    for (std::int64_t h = 0; h < kHeads; ++h) {
      for (std::int64_t e = 0; e < kHeadSize; ++e) {
        q_step.at(h, 0, e) = f.q.at(h, ctx - 1, e);
      }
    }
    std::vector<std::int32_t> cols;
    for (std::int64_t j = 0; j < ctx; ++j) {
      if (f.mask.at(ctx - 1, j)) cols.push_back(static_cast<std::int32_t>(j));
    }
    pool.ensure_sidecar(0);
    const PagedSeq seq{ctx, kBlockTokens, pool.k_blocks(0), pool.v_blocks(0),
                       cols, pool.sidecar(0)};
    return decode_attention_paged(kHeads, kHeadSize, {&seq, 1}, q_step);
  };

  ingest_prefix(kTotal);
  const TensorH before = decode_last(kTotal);

  pool.release(0);  // preemption: pages and sidecar rows both dropped
  ingest_prefix(kTotal);
  const TensorH after = decode_last(kTotal);

  ASSERT_EQ(std::memcmp(before.data().data(), after.data().data(),
                        before.size_bytes()),
            0);
}

TEST(DecodeSession, ReusedPagesNeverServeStalePanels) {
  // Session A converts its pages, releases them, and session B gets the
  // same physical blocks with different content.  B's sidecar must reflect
  // B's halfs, never A's converted floats: B converts every one of its rows.
  telemetry::ScopedTelemetry on(true);
  telemetry::global_registry().reset();
  const Fixture a(61, masks::PatternKind::kCausal);
  const Fixture b(67, masks::PatternKind::kCausal);
  serve::KvPool pool(serve::KvPoolConfig{4, kBlockTokens, kHeads, kHeadSize});
  const std::int64_t ctx = 2 * kBlockTokens;
  const auto ingest = [&](serve::SessionId id, const Fixture& f) {
    for (std::int64_t pos = 0; pos < ctx; ++pos) {
      auto slot = pool.append_token(id);
      ASSERT_TRUE(slot.has_value());
      for (std::int64_t h = 0; h < kHeads; ++h) {
        for (std::int64_t e = 0; e < kHeadSize; ++e) {
          slot->k[h * kHeadSize + e] = f.k.at(h, pos, e);
          slot->v[h * kHeadSize + e] = f.v.at(h, pos, e);
        }
      }
    }
  };

  ingest(0, a);
  pool.ensure_sidecar(0);
  const half* a_first_block = pool.k_blocks(0)[0];
  pool.release(0);

  ingest(1, b);  // reuses the same physical blocks (free list recycles)
  ASSERT_EQ(pool.k_blocks(1)[0], a_first_block);
  const std::int64_t before = sidecar_bytes();
  pool.ensure_sidecar(1);
  // FP32: 2 bytes per element, K and V, every row of both pages.
  EXPECT_EQ(sidecar_bytes() - before, 2 * 2 * ctx * kHeads * kHeadSize);
  const auto pages = pool.sidecar(1).pages;
  ASSERT_EQ(pages.size(), 2u);
  // Every sidecar element equals the exact conversion of B's half data.
  const auto kh = pool.k_blocks(1);
  const auto vh = pool.v_blocks(1);
  const std::int64_t elems = kBlockTokens * kHeads * kHeadSize;
  for (std::size_t p = 0; p < pages.size(); ++p) {
    for (std::int64_t i = 0; i < elems; ++i) {
      ASSERT_EQ(pages[p].k.f32[i], float(kh[p][i]))
          << "K page " << p << " elem " << i;
      ASSERT_EQ(pages[p].v.f32[i], float(vh[p][i]))
          << "V page " << p << " elem " << i;
    }
  }
  // A's and B's first keys differ, so a stale panel would be visible here.
  ASSERT_EQ(pages[0].k.f32[0], float(b.k.at(0, 0, 0)));
  ASSERT_NE(float(a.k.at(0, 0, 0)), float(b.k.at(0, 0, 0)));
}

TEST(DecodeSession, DecodeConversionWorkIsConstantPerStep) {
  // Drive an N-step single-session decode through a KV pool.  After the
  // first step, every step appends one token, so the sidecar must convert
  // exactly heads*head_size elements per side per step — O(1) rows,
  // independent of the context length — and the outputs must match the
  // scalar reference decode bit for bit.
  constexpr std::int64_t kH = 2, kD = 16, kSteps = 40, kBt = 8;
  telemetry::ScopedTelemetry on(true);
  telemetry::global_registry().reset();
  serve::KvPool pool(serve::KvPoolConfig{8, kBt, kH, kD});
  Rng rng(71);
  TensorH q(Shape{kH, 1, kD});

  const std::int64_t per_side_elems = kH * kD;
  std::int64_t prev_bytes = 0;
  for (std::int64_t pos = 0; pos < kSteps; ++pos) {
    auto slot = pool.append_token(0);
    ASSERT_TRUE(slot.has_value());
    for (std::int64_t i = 0; i < per_side_elems; ++i) {
      slot->k[i] = half(rng.next_double() - 0.5);
      slot->v[i] = half(rng.next_double() - 0.5);
    }
    q.fill_random(rng);

    std::vector<std::int32_t> cols;  // dense causal context
    for (std::int64_t j = 0; j <= pos; ++j) {
      cols.push_back(static_cast<std::int32_t>(j));
    }
    pool.ensure_sidecar(0);
    const PagedSeq seq{pos + 1, kBt, pool.k_blocks(0), pool.v_blocks(0), cols,
                       pool.sidecar(0)};

    const TensorH with = decode_attention_paged(kH, kD, {&seq, 1}, q);
    TensorH scalar;
    {
      ScopedPackedExecution scalar_mode(false);
      scalar = decode_attention_paged(kH, kD, {&seq, 1}, q);
    }
    ASSERT_EQ(std::memcmp(with.data().data(), scalar.data().data(),
                          with.size_bytes()),
              0)
        << "sidecar diverged at step " << pos;

    // Per-step conversion: exactly one new token's rows per side.
    const std::int64_t bytes = sidecar_bytes();
    EXPECT_EQ(bytes - prev_bytes, 2 * per_side_elems * 2)
        << "step " << pos << " converted more than the appended token";
    prev_bytes = bytes;
  }
  // Linear total: N steps, one token per step, 2 half-bytes per element.
  EXPECT_EQ(prev_bytes, kSteps * 2 * per_side_elems * 2);
}

/// Appends positions [from, to) of `f`'s K/V, each value offset by `bias`,
/// to session 0 of `pool`.
void append_positions(serve::KvPool& pool, const Fixture& f,
                      std::int64_t from, std::int64_t to, float bias) {
  for (std::int64_t pos = from; pos < to; ++pos) {
    auto slot = pool.append_token(0);
    ASSERT_TRUE(slot.has_value());
    for (std::int64_t h = 0; h < kHeads; ++h) {
      for (std::int64_t e = 0; e < kHeadSize; ++e) {
        slot->k[h * kHeadSize + e] = half(float(f.k.at(h, pos, e)) + bias);
        slot->v[h * kHeadSize + e] = half(float(f.v.at(h, pos, e)) + bias);
      }
    }
  }
}

/// Decodes position ctx-1 of `f` against every cached row of session 0.
TensorH decode_dense(const serve::KvPool& pool, const Fixture& f,
                     std::int64_t ctx, const KvSidecar& sidecar) {
  TensorH q(Shape{kHeads, 1, kHeadSize});
  for (std::int64_t h = 0; h < kHeads; ++h) {
    for (std::int64_t e = 0; e < kHeadSize; ++e) {
      q.at(h, 0, e) = f.q.at(h, ctx - 1, e);
    }
  }
  std::vector<std::int32_t> cols;
  for (std::int64_t j = 0; j < ctx; ++j) {
    cols.push_back(static_cast<std::int32_t>(j));
  }
  const PagedSeq seq{ctx, kBlockTokens, pool.k_blocks(0), pool.v_blocks(0),
                     cols, sidecar};
  return decode_attention_paged(kHeads, kHeadSize, {&seq, 1}, q);
}

bool same_bytes(const TensorH& a, const TensorH& b) {
  return a.size_bytes() == b.size_bytes() &&
         std::memcmp(a.data().data(), b.data().data(), a.size_bytes()) == 0;
}

/// A session converts its sidecar, truncates into its tail page, then
/// re-appends different bytes in place: only the rewritten rows convert,
/// and the sidecar equals an exact fresh conversion of the current halfs.
void expect_truncate_then_rewrite_is_exact(core::PanelPrecision precision) {
  telemetry::ScopedTelemetry on(true);
  telemetry::global_registry().reset();
  const Fixture f(73, masks::PatternKind::kCausal);
  serve::KvPoolConfig cfg{8, kBlockTokens, kHeads, kHeadSize};
  cfg.sidecar_precision = precision;
  serve::KvPool pool(cfg);
  constexpr std::int64_t kCtx = kBlockTokens + 4;  // tail page holds 4 rows
  append_positions(pool, f, 0, kCtx, 0.0f);
  pool.ensure_sidecar(0);
  const half* tail = pool.k_blocks(0)[1];

  pool.truncate(0, kCtx - 2);
  ASSERT_TRUE(pool.check_conservation());
  append_positions(pool, f, kCtx - 2, kCtx, 0.5f);
  ASSERT_TRUE(pool.check_conservation());
  ASSERT_EQ(pool.k_blocks(0)[1], tail);  // rewritten in place, no copy

  const std::int64_t before = sidecar_bytes();
  pool.ensure_sidecar(0);
  const std::int64_t bytes_per_elem =
      precision == core::PanelPrecision::kInt8 ? 1 : 2;
  EXPECT_EQ(sidecar_bytes() - before,
            bytes_per_elem * 2 * 2 * kHeads * kHeadSize);

  const testing::FreshSidecar fresh(pool.k_blocks(0), pool.v_blocks(0), kCtx,
                                    kBlockTokens, kHeads * kHeadSize,
                                    precision);
  EXPECT_TRUE(fresh.matches(pool.sidecar(0)));
  const TensorH out = decode_dense(pool, f, kCtx, pool.sidecar(0));
  EXPECT_TRUE(same_bytes(out, decode_dense(pool, f, kCtx, fresh.sidecar())));
  if (precision == core::PanelPrecision::kFloat32) {
    ScopedPackedExecution scalar(false);
    EXPECT_TRUE(same_bytes(out, decode_dense(pool, f, kCtx, {})));
  }
}

TEST(DecodeSession, TruncateThenRewriteInPlaceIsExactFp32) {
  expect_truncate_then_rewrite_is_exact(core::PanelPrecision::kFloat32);
}

TEST(DecodeSession, TruncateThenRewriteInPlaceIsExactInt8) {
  expect_truncate_then_rewrite_is_exact(core::PanelPrecision::kInt8);
}

TEST(DecodeSession, BatchedPagedDecodeMatchesPerSequenceCalls) {
  // Two sessions decoded in one batch must equal two independent calls —
  // per-(sequence, head) instances share nothing.
  Fixture a(51, masks::PatternKind::kCausal);
  Fixture b(53, masks::PatternKind::kSlidingWindow);
  serve::KvPool pool(
      serve::KvPoolConfig{16, kBlockTokens, kHeads, kHeadSize});
  const std::int64_t ctx_a = 40, ctx_b = 17;
  const auto ingest = [&](serve::SessionId id, const Fixture& f,
                          std::int64_t ctx) {
    for (std::int64_t pos = 0; pos < ctx; ++pos) {
      auto slot = pool.append_token(id);
      ASSERT_TRUE(slot.has_value());
      for (std::int64_t h = 0; h < kHeads; ++h) {
        for (std::int64_t e = 0; e < kHeadSize; ++e) {
          slot->k[h * kHeadSize + e] = f.k.at(h, pos, e);
          slot->v[h * kHeadSize + e] = f.v.at(h, pos, e);
        }
      }
    }
  };
  ingest(0, a, ctx_a);
  ingest(1, b, ctx_b);
  pool.ensure_sidecar(0);
  pool.ensure_sidecar(1);

  const auto cols_of = [](const Fixture& f, std::int64_t row) {
    std::vector<std::int32_t> cols;
    for (std::int64_t j = 0; j <= row; ++j) {
      if (f.mask.at(row, j)) cols.push_back(static_cast<std::int32_t>(j));
    }
    return cols;
  };
  const auto cols_a = cols_of(a, ctx_a - 1);
  const auto cols_b = cols_of(b, ctx_b - 1);
  const PagedSeq seqs[2] = {{ctx_a, kBlockTokens, pool.k_blocks(0),
                             pool.v_blocks(0), cols_a, pool.sidecar(0)},
                            {ctx_b, kBlockTokens, pool.k_blocks(1),
                             pool.v_blocks(1), cols_b, pool.sidecar(1)}};

  TensorH q_batch(Shape{2 * kHeads, 1, kHeadSize});
  for (std::int64_t h = 0; h < kHeads; ++h) {
    for (std::int64_t e = 0; e < kHeadSize; ++e) {
      q_batch.at(h, 0, e) = a.q.at(h, ctx_a - 1, e);
      q_batch.at(kHeads + h, 0, e) = b.q.at(h, ctx_b - 1, e);
    }
  }
  const TensorH batched =
      decode_attention_paged(kHeads, kHeadSize, seqs, q_batch);

  for (int which = 0; which < 2; ++which) {
    TensorH q_one(Shape{kHeads, 1, kHeadSize});
    for (std::int64_t h = 0; h < kHeads; ++h) {
      for (std::int64_t e = 0; e < kHeadSize; ++e) {
        q_one.at(h, 0, e) = q_batch.at(which * kHeads + h, 0, e);
      }
    }
    const TensorH alone = decode_attention_paged(
        kHeads, kHeadSize, {&seqs[which], 1}, q_one);
    for (std::int64_t h = 0; h < kHeads; ++h) {
      ASSERT_EQ(std::memcmp(&alone.at(h, 0, 0),
                            &batched.at(which * kHeads + h, 0, 0),
                            static_cast<std::size_t>(kHeadSize) *
                                sizeof(half)),
                0)
          << "seq=" << which << " h=" << h;
    }
  }
}

TEST(DecodeSession, PagedSeqValidation) {
  const half* none[1] = {nullptr};
  PagedSeq s{16, 16, {none, 1}, {none, 1}, {}, {}};
  s.validate(2, 32);
  PagedSeq bad_block = s;
  bad_block.block_tokens = 12;  // not a power of two
  EXPECT_THROW(bad_block.validate(2, 32), Error);
  const std::int32_t out_of_ctx[] = {16};
  PagedSeq bad_cols = s;
  bad_cols.cols = out_of_ctx;
  EXPECT_THROW(bad_cols.validate(2, 32), Error);
  PagedSeq short_blocks = s;
  short_blocks.context_len = 17;  // needs two blocks, has one
  EXPECT_THROW(short_blocks.validate(2, 32), Error);

  // A sidecar is validated once, against its own precision.
  const float panel[1] = {0.0f};
  const SidecarPage fp32_page{{.f32 = panel}, {.f32 = panel}};
  PagedSeq with_sidecar = s;
  with_sidecar.sidecar = {core::PanelPrecision::kFloat32, {&fp32_page, 1}};
  with_sidecar.validate(2, 32);
  PagedSeq wrong_tier = with_sidecar;
  wrong_tier.sidecar.precision = core::PanelPrecision::kInt8;
  EXPECT_THROW(wrong_tier.validate(2, 32), Error);
  PagedSeq short_sidecar = with_sidecar;
  short_sidecar.context_len = 17;
  const half* two[2] = {nullptr, nullptr};
  short_sidecar.k_blocks = two;
  short_sidecar.v_blocks = two;
  EXPECT_THROW(short_sidecar.validate(2, 32), Error);
}

TEST(DecodeSession, BatchedCostScalesWithContextAndBatch) {
  const auto dev = gpusim::a100();
  const std::int64_t one_ctx[] = {128};
  const std::int64_t many_ctx[] = {128, 128, 128, 128, 128, 128, 128, 128};
  const auto c1 = decode_batched_cost(4, 64, one_ctx, dev);
  const auto c8 = decode_batched_cost(4, 64, many_ctx, dev);
  EXPECT_EQ(c1.launches, 1);
  EXPECT_EQ(c8.launches, 1);
  EXPECT_NEAR(c8.cuda_flops, 8.0 * c1.cuda_flops, 1e-6);
  // Eight sequences in one launch beat eight single-sequence launches on
  // simulated time: launch overhead is paid once, the grid is 8x larger.
  const double t1 = gpusim::estimate_time_us(c1, dev);
  const double t8 = gpusim::estimate_time_us(c8, dev);
  EXPECT_LT(t8, 8.0 * t1);
}

}  // namespace
}  // namespace stof::mha
