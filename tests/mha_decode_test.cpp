// Tests for the single-token paged decode attention extension.
#include <gtest/gtest.h>

#include "paged_kv_fixture.hpp"
#include "stof/core/rng.hpp"
#include "stof/mha/decode.hpp"
#include "stof/mha/reference.hpp"

namespace stof::mha {
namespace {

constexpr std::int64_t kBlockTokens = 16;

/// A decode query per (sequence, head) instance and the cached K/V it
/// attends, contiguous (seqs*heads, ctx, d).
struct Cache {
  TensorH q, k, v;
};

Cache make_cache(std::int64_t seqs, std::int64_t heads, std::int64_t ctx,
                 std::int64_t d, std::uint64_t seed) {
  Rng rng(seed);
  Cache c{TensorH(Shape{seqs * heads, 1, d}),
          TensorH(Shape{seqs * heads, ctx, d}),
          TensorH(Shape{seqs * heads, ctx, d})};
  c.q.fill_random(rng);
  c.k.fill_random(rng);
  c.v.fill_random(rng);
  return c;
}

TensorH decode(const Cache& c, std::int64_t heads,
               std::span<const std::int32_t> cols, bool with_sidecar = true) {
  const testing::PagedKv kv(c.k, c.v, heads, kBlockTokens);
  const auto seqs = kv.seqs(cols, with_sidecar);
  return decode_attention_paged(heads, c.q.shape()[2], seqs, c.q);
}

TEST(DecodeColumns, ExtractsRowOfMask) {
  const auto m = masks::causal(8);
  const auto cols = decode_columns(m, 5, 8);
  EXPECT_EQ(cols, (std::vector<std::int32_t>{0, 1, 2, 3, 4, 5}));
  // Restricting to a shorter context truncates.
  EXPECT_EQ(decode_columns(m, 5, 3), (std::vector<std::int32_t>{0, 1, 2}));
  EXPECT_THROW(decode_columns(m, 8, 8), Error);
  EXPECT_THROW(decode_columns(m, 0, 0), Error);
}

TEST(DecodeAttention, MatchesReferenceLastRow) {
  // Decoding the (n)th token over an n-token cache must equal the last row
  // of full attention with the same mask.  The 24-token context spans a
  // full and a partial KV page.
  const std::int64_t ctx = 24;
  const Cache c = make_cache(2, 3, ctx, 16, 17);

  // Build full-attention inputs: the query sequence is the cache keys with
  // the new token's query as the last row.
  const MhaDims full{2, 3, ctx, 16};
  const auto mask = masks::MaskSpec{.kind = masks::PatternKind::kLongformer,
                                    .seq_len = ctx}
                        .build();
  // Full attention with Q equal to K everywhere except the last row, which
  // is the decode query.
  TensorH q_full = c.k;
  for (std::int64_t bh = 0; bh < full.instances(); ++bh) {
    for (std::int64_t e = 0; e < 16; ++e) {
      q_full.at(bh, ctx - 1, e) = c.q.at(bh, 0, e);
    }
  }
  const TensorH ref = reference_attention(full, q_full, c.k, c.v, mask);

  const auto cols = decode_columns(mask, ctx - 1, ctx);
  const TensorH got = decode(c, 3, cols);
  for (std::int64_t bh = 0; bh < full.instances(); ++bh) {
    for (std::int64_t e = 0; e < 16; ++e) {
      EXPECT_NEAR(float(got.at(bh, 0, e)), float(ref.at(bh, ctx - 1, e)),
                  4e-3)
          << bh << "," << e;
    }
  }
}

TEST(DecodeAttention, EmptyColumnsYieldZeros) {
  const Cache c = make_cache(1, 2, 8, 4, 3);
  const TensorH out = decode(c, 2, {});
  for (const auto v : out.data()) EXPECT_EQ(float(v), 0.0f);
}

TEST(DecodeAttention, SingleColumnCopiesV) {
  const Cache c = make_cache(1, 2, 8, 4, 4);
  const std::int32_t only[] = {5};
  const TensorH out = decode(c, 2, only);
  for (std::int64_t bh = 0; bh < 2; ++bh) {
    for (std::int64_t e = 0; e < 4; ++e) {
      EXPECT_NEAR(float(out.at(bh, 0, e)), float(c.v.at(bh, 5, e)), 4e-3);
    }
  }
}

TEST(DecodeAttention, RejectsBadShapesAndColumns) {
  const Cache c = make_cache(1, 2, 8, 4, 5);
  const testing::PagedKv kv(c.k, c.v, 2, kBlockTokens);
  const std::int32_t first[] = {0};
  TensorH bad_q(Shape{2, 2, 4});
  EXPECT_THROW(decode_attention_paged(2, 4, kv.seqs(first), bad_q), Error);
  const std::int32_t past_context[] = {8};
  EXPECT_THROW(decode_attention_paged(2, 4, kv.seqs(past_context), c.q),
               Error);
  const std::int32_t negative[] = {-1};
  EXPECT_THROW(decode_attention_paged(2, 4, kv.seqs(negative), c.q), Error);
  EXPECT_THROW(decode_attention_paged(2, 4, {}, c.q), Error);
}

TEST(DecodeAttention, PackedDecodeWithoutSidecarThrows) {
  // The packed path reads only the KV sidecar; the scalar reference reads
  // the half pages and needs none.
  const Cache c = make_cache(1, 2, 20, 8, 6);
  const std::int32_t cols[] = {1, 7, 19};
  {
    ScopedPackedExecution packed_mode(true);
    EXPECT_THROW((void)decode(c, 2, cols, /*with_sidecar=*/false), Error);
  }
  ScopedPackedExecution scalar_mode(false);
  const TensorH scalar = decode(c, 2, cols, /*with_sidecar=*/false);
  EXPECT_EQ(scalar.shape(), c.q.shape());
}

TEST(DecodeAttention, SidecarMustCoverContext) {
  const Cache c = make_cache(1, 2, 20, 8, 7);  // two KV pages
  const testing::PagedKv kv(c.k, c.v, 2, kBlockTokens);
  const std::int32_t cols[] = {0, 19};
  auto seqs = kv.seqs(cols);
  seqs[0].sidecar.pages = seqs[0].sidecar.pages.first(1);
  EXPECT_THROW(decode_attention_paged(2, 8, seqs, c.q), Error);
  // An INT8 view of FP32 pages lacks the codes its precision reads.
  seqs = kv.seqs(cols);
  seqs[0].sidecar.precision = core::PanelPrecision::kInt8;
  EXPECT_THROW(decode_attention_paged(2, 8, seqs, c.q), Error);
}

TEST(DecodeBatchedCost, ScalesWithAttendedColumns) {
  const auto dev = gpusim::a100();
  const std::int64_t sparse_cols[] = {64, 64, 64, 64};
  const std::int64_t dense_cols[] = {2048, 2048, 2048, 2048};
  const double sparse = gpusim::estimate_time_us(
      decode_batched_cost(12, 64, sparse_cols, dev), dev);
  const double dense = gpusim::estimate_time_us(
      decode_batched_cost(12, 64, dense_cols, dev), dev);
  EXPECT_GT(dense, sparse * 2.0);
  const std::int64_t negative[] = {-1};
  EXPECT_THROW(decode_batched_cost(12, 64, negative, dev), Error);
  EXPECT_THROW(decode_batched_cost(12, 64, {}, dev), Error);
}

TEST(DecodeBatchedCost, LaunchBoundAtTinyBatch) {
  const auto dev = gpusim::rtx4090();
  const std::int64_t cols[] = {16};
  const double t =
      gpusim::estimate_time_us(decode_batched_cost(12, 64, cols, dev), dev);
  EXPECT_LT(t, 2.0 * dev.launch_overhead_us);
}

}  // namespace
}  // namespace stof::mha
