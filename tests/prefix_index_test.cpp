// Prefix-sharing KV-cache tests: radix-tree publish/match/adopt round
// trips, copy-on-write immutability of shared pages, refcount-aware
// release and LRU reclaim of tree-only pages, speculative rollback via
// truncate, the decode sidecar of shared pages, and the pool's
// conservation audit after every mutation.
#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

#include "paged_kv_fixture.hpp"
#include "stof/core/packed.hpp"
#include "stof/mha/decode.hpp"
#include "stof/serve/kv_pool.hpp"
#include "stof/telemetry/telemetry.hpp"

namespace stof::serve {
namespace {

// 8 blocks of 4 tokens, 1 head x 2 dims: a page is 8 halfs per side.
KvPoolConfig tiny_config() { return KvPoolConfig{8, 4, 1, 2}; }

Request template_request(SessionId id, std::uint64_t session_seed) {
  Request r;
  r.id = id;
  r.prompt_len = 12;
  r.max_new_tokens = 2;
  r.seed = session_seed;
  r.template_seed = 777;
  r.template_len = 10;  // 2 full pages + 2 rows of page 2
  return r;
}

/// Append `n` tokens for `id`, writing a recognisable per-row byte pattern.
void append_rows(KvPool& pool, SessionId id, std::int64_t n,
                 float value_base) {
  for (std::int64_t t = 0; t < n; ++t) {
    auto slot = pool.append_token(id);
    ASSERT_TRUE(slot.has_value());
    const std::int64_t row = pool.config().heads * pool.config().head_size;
    for (std::int64_t e = 0; e < row; ++e) {
      slot->k[e] = half(value_base + static_cast<float>(t));
      slot->v[e] = half(-value_base - static_cast<float>(t));
    }
  }
}

TEST(PrefixIndex, PageKeyIsPureFunctionOfTemplate) {
  const Request a = template_request(0, 1111);
  const Request b = template_request(1, 2222);  // same template, other seed
  EXPECT_EQ(PrefixIndex::page_key(a, 0, 8), PrefixIndex::page_key(b, 0, 8));
  // Keys separate by position range and by template identity.
  EXPECT_NE(PrefixIndex::page_key(a, 0, 8), PrefixIndex::page_key(a, 0, 4));
  EXPECT_NE(PrefixIndex::page_key(a, 0, 4), PrefixIndex::page_key(a, 4, 8));
  Request c = a;
  c.template_seed = 778;
  EXPECT_NE(PrefixIndex::page_key(a, 0, 8), PrefixIndex::page_key(c, 0, 8));
  // Beyond template_len the session seed takes over: different sessions
  // diverge exactly there.
  EXPECT_NE(PrefixIndex::page_key(a, 8, 12), PrefixIndex::page_key(b, 8, 12));
}

TEST(PrefixIndex, PublishMatchAdoptRoundTrip) {
  telemetry::ScopedTelemetry scoped(true);
  telemetry::global_registry().reset();
  KvPool pool(tiny_config());
  const Request donor = template_request(0, 1111);
  append_rows(pool, 0, donor.prompt_len, 10.0f);
  ASSERT_TRUE(pool.check_conservation());

  // Nothing resident yet: match is empty, adopt is a no-op.
  const Request r2 = template_request(1, 2222);
  EXPECT_EQ(pool.match_prefix(r2, r2.template_len).tokens, 0);

  pool.publish_prefix(0, donor, 0);
  ASSERT_TRUE(pool.check_conservation());
  EXPECT_EQ(pool.prefix_blocks(), 3);  // pages 0,1 full + frozen partial
  // Tree refs alone never consume pool capacity.
  EXPECT_EQ(pool.used_blocks(), 3);

  // Match sees the full chain, capped on request.
  const PrefixMatch m = pool.match_prefix(r2, r2.template_len);
  EXPECT_EQ(m.tokens, 10);
  EXPECT_EQ(m.full_pages, 2);
  EXPECT_TRUE(m.partial);
  EXPECT_EQ(m.pages(), 3);
  const PrefixMatch capped = pool.match_prefix(r2, 4);
  EXPECT_EQ(capped.tokens, 4);
  EXPECT_EQ(capped.full_pages, 1);
  EXPECT_FALSE(capped.partial);

  // A different mask kind never matches: prompt outputs depend on the
  // attention pattern, so chains are per-kind.
  Request other_kind = r2;
  other_kind.mask_kind = masks::PatternKind::kSlidingWindow;
  EXPECT_EQ(pool.match_prefix(other_kind, 10).tokens, 0);

  // Adoption maps the shared pages at refcount+1 — same physical blocks.
  const PrefixMatch adopted = pool.adopt_prefix(1, r2, r2.template_len);
  ASSERT_TRUE(pool.check_conservation());
  EXPECT_EQ(adopted.tokens, 10);
  EXPECT_EQ(pool.tokens(1), 10);
  EXPECT_EQ(pool.blocks(1), 3);
  EXPECT_EQ(pool.used_blocks(), 3);  // no new allocation
  EXPECT_EQ(pool.k_blocks(1)[0], pool.k_blocks(0)[0]);
  EXPECT_EQ(pool.v_blocks(1)[2], pool.v_blocks(0)[2]);
  // Every adopted page is shared, and the partial tail is not usable
  // as-is: the first append must CoW it.
  EXPECT_EQ(pool.private_blocks(1), 0);
  EXPECT_EQ(pool.usable_blocks(1), 2);
  EXPECT_EQ(pool.append_reserve_blocks(1, 3), 2);
  EXPECT_EQ(telemetry::global_registry().counter("serve.prefix.hits"), 1);
  EXPECT_EQ(
      telemetry::global_registry().counter("serve.prefix.shared_pages"), 3);
  EXPECT_EQ(
      telemetry::global_registry().counter("serve.prefix.published_pages"),
      3);
}

TEST(PrefixIndex, CopyOnWriteKeepsSharedPagesImmutable) {
  KvPool pool(tiny_config());
  const Request donor = template_request(0, 1111);
  append_rows(pool, 0, donor.prompt_len, 10.0f);
  pool.publish_prefix(0, donor, 0);
  const Request r2 = template_request(1, 2222);
  ASSERT_EQ(pool.adopt_prefix(1, r2, r2.template_len).tokens, 10);

  // The adopter's first append lands mid-page on the shared partial tail:
  // it must copy rows [0, 2) into a private block first.
  const half* donor_tail_k = pool.k_blocks(0)[2];
  auto slot = pool.append_token(1);
  ASSERT_TRUE(slot.has_value());
  ASSERT_TRUE(pool.check_conservation());
  const half* adopter_tail_k = pool.k_blocks(1)[2];
  EXPECT_NE(adopter_tail_k, donor_tail_k);     // remapped to a fresh block
  EXPECT_EQ(pool.k_blocks(1)[0], pool.k_blocks(0)[0]);  // full pages shared
  EXPECT_EQ(pool.used_blocks(), 4);
  // The template rows were carried over; the donor's private rows in the
  // same physical page were not touched and not inherited.
  const std::int64_t row = pool.config().heads * pool.config().head_size;
  for (std::int64_t e = 0; e < 2 * row; ++e) {
    EXPECT_EQ(float(adopter_tail_k[e]), float(donor_tail_k[e]));
  }
  slot->k[0] = half(99.0f);
  EXPECT_EQ(float(donor_tail_k[2 * row]), 20.0f);  // donor token 10 intact
  EXPECT_EQ(pool.private_blocks(1), 1);
  EXPECT_EQ(pool.tokens(1), 11);
}

TEST(PrefixIndex, RefcountedReleaseAndLruReclaim) {
  KvPool pool(tiny_config());
  const Request donor = template_request(0, 1111);
  append_rows(pool, 0, donor.prompt_len, 10.0f);
  pool.publish_prefix(0, donor, 0);
  const Request r2 = template_request(1, 2222);
  ASSERT_EQ(pool.adopt_prefix(1, r2, r2.template_len).tokens, 10);

  // Donor exit drops its references but frees nothing: every donor page is
  // still held by the tree (and by the adopter).
  pool.release(0);
  ASSERT_TRUE(pool.check_conservation());
  EXPECT_EQ(pool.tokens(0), 0);
  EXPECT_EQ(pool.used_blocks(), 3);
  EXPECT_EQ(pool.reclaimable_blocks(), 0);  // adopter still maps them

  // Adopter exit leaves the pages tree-only: reclaimable headroom, not
  // free-list blocks.
  pool.release(1);
  ASSERT_TRUE(pool.check_conservation());
  EXPECT_EQ(pool.used_blocks(), 3);
  EXPECT_EQ(pool.free_blocks(), 5);
  EXPECT_EQ(pool.reclaimable_blocks(), 3);
  EXPECT_EQ(pool.allocatable_blocks(), 8);

  // Allocation pressure reclaims the LRU subtree instead of failing: a
  // session needing 6 blocks finds only 5 free and evicts the chain.
  append_rows(pool, 2, 24, 30.0f);
  ASSERT_TRUE(pool.check_conservation());
  EXPECT_EQ(pool.blocks(2), 6);
  EXPECT_EQ(pool.prefix_blocks(), 0);
  EXPECT_EQ(pool.match_prefix(r2, r2.template_len).tokens, 0);
  // And exhaustion still fails cleanly once nothing is reclaimable.
  append_rows(pool, 2, 8, 40.0f);  // fills the remaining 2 blocks
  EXPECT_FALSE(pool.append_token(3).has_value());
  ASSERT_TRUE(pool.check_conservation());
}

TEST(PrefixIndex, TruncateRollsBackSpeculativeRows) {
  KvPool pool(tiny_config());
  append_rows(pool, 0, 10, 10.0f);  // 3 blocks, tail holds 2 rows
  ASSERT_TRUE(pool.check_conservation());

  // Drop the speculative tail rows: trailing block freed, surviving tail
  // keeps its earlier bytes.
  pool.truncate(0, 5);
  ASSERT_TRUE(pool.check_conservation());
  EXPECT_EQ(pool.tokens(0), 5);
  EXPECT_EQ(pool.blocks(0), 2);
  EXPECT_EQ(pool.free_blocks(), 6);
  const std::int64_t row = pool.config().heads * pool.config().head_size;
  EXPECT_EQ(float(pool.k_blocks(0)[1][0]), 14.0f);  // token 4 survives

  // Re-append after rollback reuses the tail slot exactly.
  auto slot = pool.append_token(0);
  ASSERT_TRUE(slot.has_value());
  slot->k[0] = half(55.0f);
  EXPECT_EQ(pool.tokens(0), 6);
  EXPECT_EQ(float(pool.k_blocks(0)[1][row]), 55.0f);

  // Truncate to a block boundary, then to empty.
  pool.truncate(0, 4);
  ASSERT_TRUE(pool.check_conservation());
  EXPECT_EQ(pool.blocks(0), 1);
  pool.truncate(0, 0);
  ASSERT_TRUE(pool.check_conservation());
  EXPECT_EQ(pool.tokens(0), 0);
  EXPECT_EQ(pool.free_blocks(), 8);
}

TEST(PrefixIndex, TruncateOntoSharedTailForcesCow) {
  KvPool pool(tiny_config());
  const Request donor = template_request(0, 1111);
  append_rows(pool, 0, donor.prompt_len, 10.0f);
  pool.publish_prefix(0, donor, 0);

  // The donor itself rolls back to inside its published partial page (the
  // speculative-decode shape: verify rejected rows 10 and 11).  The page is
  // shared with the tree, so the rollback must leave it as it is — instead
  // the donor's next append copies out.
  pool.truncate(0, 10);
  ASSERT_TRUE(pool.check_conservation());
  EXPECT_EQ(pool.tokens(0), 10);
  EXPECT_EQ(pool.usable_blocks(0), 2);  // tail append will CoW
  const half* shared_tail = pool.k_blocks(0)[2];
  auto slot = pool.append_token(0);
  ASSERT_TRUE(slot.has_value());
  ASSERT_TRUE(pool.check_conservation());
  EXPECT_NE(pool.k_blocks(0)[2], shared_tail);
  // The tree still serves the frozen page to new adopters.
  const Request r2 = template_request(1, 2222);
  EXPECT_EQ(pool.match_prefix(r2, r2.template_len).tokens, 10);
}

TEST(PrefixIndex, PublishStopsAtFirstFoldedPosition) {
  // A session publishes only pages whose last row it computed itself:
  // publishing stops at the first page ending at or before its first
  // folded position.  Page 0 ends at 4, so from = 4 publishes nothing.
  for (const auto& [from, pages] :
       {std::pair<std::int64_t, std::int64_t>{0, 3}, {4, 0}}) {
    KvPool pool(tiny_config());
    const Request donor = template_request(0, 1111);
    append_rows(pool, 0, donor.prompt_len, 10.0f);
    pool.publish_prefix(0, donor, from);
    ASSERT_TRUE(pool.check_conservation());
    EXPECT_EQ(pool.prefix_blocks(), pages) << "from " << from;
  }
}

TEST(PrefixIndex, RepublishIsIdempotent) {
  KvPool pool(tiny_config());
  const Request donor = template_request(0, 1111);
  append_rows(pool, 0, donor.prompt_len, 10.0f);
  pool.publish_prefix(0, donor, 0);
  const std::int64_t before = pool.prefix_blocks();

  // A second session with the same template prefills from scratch (it
  // arrived before the first published, say) and publishes the same chain:
  // the resident pages win, no duplicate nodes appear.
  Request twin = template_request(1, 2222);
  append_rows(pool, 1, twin.prompt_len, 20.0f);
  pool.publish_prefix(1, twin, 0);
  ASSERT_TRUE(pool.check_conservation());
  EXPECT_EQ(pool.prefix_blocks(), before);
  EXPECT_EQ(static_cast<std::int64_t>(pool.prefix_index().size()), before);
}

/// Decodes a fixed query against every cached row of `id` through
/// `sidecar` (ignored when packed execution is off).
TensorH decode_all_rows(const KvPool& pool, SessionId id,
                        const mha::KvSidecar& sidecar) {
  const KvPoolConfig& c = pool.config();
  TensorH q(Shape{c.heads, 1, c.head_size});
  for (std::int64_t e = 0; e < c.heads * c.head_size; ++e) {
    q.data()[static_cast<std::size_t>(e)] = half(0.25f * float(e + 1));
  }
  std::vector<std::int32_t> cols;
  for (std::int64_t j = 0; j < pool.tokens(id); ++j) {
    cols.push_back(static_cast<std::int32_t>(j));
  }
  const mha::PagedSeq seq{pool.tokens(id), c.block_tokens, pool.k_blocks(id),
                          pool.v_blocks(id), cols, sidecar};
  return mha::decode_attention_paged(c.heads, c.head_size, {&seq, 1}, q);
}

/// `id`'s sidecar equals a fresh conversion of its half rows, and decoding
/// through it matches decoding through that conversion (and, on FP32, the
/// scalar path) byte for byte.
void expect_sidecar_exact(const KvPool& pool, SessionId id) {
  const KvPoolConfig& c = pool.config();
  const mha::testing::FreshSidecar fresh(
      pool.k_blocks(id), pool.v_blocks(id), pool.tokens(id), c.block_tokens,
      c.heads * c.head_size, c.sidecar_precision);
  EXPECT_TRUE(fresh.matches(pool.sidecar(id)));
  const TensorH out = decode_all_rows(pool, id, pool.sidecar(id));
  const auto same = [&out](const TensorH& other) {
    return std::memcmp(out.data().data(), other.data().data(),
                       out.size_bytes()) == 0;
  };
  EXPECT_TRUE(same(decode_all_rows(pool, id, fresh.sidecar())));
  if (c.sidecar_precision == core::PanelPrecision::kFloat32) {
    ScopedPackedExecution scalar(false);
    EXPECT_TRUE(same(decode_all_rows(pool, id, {})));
  }
}

/// A donor converts more rows of its published partial page than an
/// adopter holds.  The adopter converts nothing for the pages it adopts,
/// and its sidecar and decode output stay exact before and after the CoW
/// of its first append.
void expect_adopter_sidecar_exact(core::PanelPrecision precision) {
  telemetry::ScopedTelemetry scoped(true);
  telemetry::global_registry().reset();
  const auto sidecar_bytes = [] {
    return telemetry::global_registry().counter(
        "serve.kv.sidecar_bytes_converted");
  };
  KvPoolConfig cfg = tiny_config();
  cfg.sidecar_precision = precision;
  KvPool pool(cfg);
  const Request donor = template_request(0, 1111);
  // Page 2 holds 2 template rows and 2 of the donor's private rows, all
  // converted before the page is published.
  append_rows(pool, 0, donor.prompt_len, 10.0f);
  pool.ensure_sidecar(0);
  pool.publish_prefix(0, donor, 0);
  const Request r2 = template_request(1, 2222);
  ASSERT_EQ(pool.adopt_prefix(1, r2, r2.template_len).tokens, 10);
  ASSERT_TRUE(pool.check_conservation());

  const std::int64_t before = sidecar_bytes();
  pool.ensure_sidecar(1);
  EXPECT_EQ(sidecar_bytes(), before);
  expect_sidecar_exact(pool, 1);

  append_rows(pool, 1, 1, 50.0f);  // CoW of the shared partial page
  ASSERT_TRUE(pool.check_conservation());
  ASSERT_NE(pool.k_blocks(1)[2], pool.k_blocks(0)[2]);
  pool.ensure_sidecar(1);
  // The private copy converts its 2 copied rows and the new one.
  const std::int64_t row = cfg.heads * cfg.head_size;
  const std::int64_t bytes_per_elem =
      precision == core::PanelPrecision::kInt8 ? 1 : 2;
  EXPECT_EQ(sidecar_bytes() - before, bytes_per_elem * 2 * 3 * row);
  expect_sidecar_exact(pool, 1);
  expect_sidecar_exact(pool, 0);  // the donor's page is untouched
}

TEST(PrefixIndex, AdopterSidecarExactAcrossCowFp32) {
  expect_adopter_sidecar_exact(core::PanelPrecision::kFloat32);
}

TEST(PrefixIndex, AdopterSidecarExactAcrossCowInt8) {
  expect_adopter_sidecar_exact(core::PanelPrecision::kInt8);
}

}  // namespace
}  // namespace stof::serve
