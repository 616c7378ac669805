// INT8 quantized panel tier: round-trip error properties of the symmetric
// per-group quantizer (core::quant_params + KernelTable::quantize_i8, the
// path decode's query quantization takes), and the serve KvPool int8
// sidecar's quantize-once extension exactness over filling pages.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "stof/core/kernels.hpp"
#include "stof/core/packed.hpp"
#include "stof/core/rng.hpp"
#include "stof/core/tensor.hpp"
#include "stof/serve/kv_pool.hpp"
#include "stof/telemetry/telemetry.hpp"

namespace stof::core {
namespace {

/// Quantize `src` with one scale per `group` elements the way decode
/// quantizes its query rows: scale from the group's absmax, then codes.
void quantize_groups(const std::vector<float>& src, std::int64_t group,
                     std::vector<std::int8_t>& codes,
                     std::vector<float>& scales) {
  const KernelTable& kt = kernels();
  const auto count = static_cast<std::int64_t>(src.size());
  codes.resize(src.size());
  scales.resize(static_cast<std::size_t>(count / group));
  for (std::int64_t g = 0; g < count / group; ++g) {
    const float* s = src.data() + g * group;
    const auto params = quant_params(kt.abs_max(s, group));
    scales[static_cast<std::size_t>(g)] = params.scale;
    kt.quantize_i8(s, codes.data() + g * group, group, params.inv_scale);
  }
}

/// Per-group round-trip property: every element must land within half a
/// quantization step of its code (plus a denormal-absorbing epsilon).
void expect_round_trip_bound(const std::vector<float>& src,
                             std::int64_t group) {
  ASSERT_EQ(src.size() % static_cast<std::size_t>(group), 0u);
  const auto count = static_cast<std::int64_t>(src.size());
  std::vector<std::int8_t> codes;
  std::vector<float> scales;
  quantize_groups(src, group, codes, scales);
  for (std::int64_t g = 0; g < count / group; ++g) {
    const float scale = scales[static_cast<std::size_t>(g)];
    ASSERT_TRUE(std::isfinite(scale) && scale > 0.0f) << "group " << g;
    for (std::int64_t i = g * group; i < (g + 1) * group; ++i) {
      const auto ui = static_cast<std::size_t>(i);
      const float rebuilt = scale * static_cast<float>(codes[ui]);
      // 0.502 instead of 0.5: one rounding of the scale itself.
      EXPECT_LE(std::abs(src[ui] - rebuilt), scale * 0.502f + 1e-38f)
          << "elem " << i << " src " << src[ui] << " code "
          << int(codes[ui]) << " scale " << scale;
    }
  }
}

TEST(Int8Quantize, RoundTripBoundOnRandomInputs) {
  Rng rng(42);
  for (const std::int64_t group : {1, 4, 16, 64}) {
    std::vector<float> src(static_cast<std::size_t>(group * 13));
    for (auto& x : src) x = rng.uniform(-8.0f, 8.0f);
    expect_round_trip_bound(src, group);
  }
}

TEST(Int8Quantize, RoundTripBoundOnDenormalHeavyInputs) {
  Rng rng(43);
  // Groups straddling kQuantTinyAbsMax: some all-denormal (degenerate
  // zero-code branch), some mixing denormals with one normal value.
  std::vector<float> src;
  for (int g = 0; g < 8; ++g) {
    for (int i = 0; i < 16; ++i) {
      src.push_back(rng.uniform(-1.0f, 1.0f) * 1e-33f);
    }
    if (g % 2 == 1) src.back() = 0.25f;  // normal absmax for odd groups
  }
  expect_round_trip_bound(src, 16);
}

TEST(Int8Quantize, RoundTripBoundOnConstantAndZeroInputs) {
  expect_round_trip_bound(std::vector<float>(64, 3.5f), 16);
  expect_round_trip_bound(std::vector<float>(64, -1e-3f), 8);
  expect_round_trip_bound(std::vector<float>(64, 0.0f), 16);
}

TEST(Int8Quantize, AbsMaxElementGetsFullCode) {
  const std::vector<float> src = {0.1f, -2.0f, 0.5f, 1.0f};
  std::vector<std::int8_t> codes;
  std::vector<float> scales;
  quantize_groups(src, 4, codes, scales);
  EXPECT_FLOAT_EQ(scales[0], 2.0f / 127.0f);
  EXPECT_EQ(codes[1], -127);
}

TEST(Int8Quantize, QuantizeHalfsMatchesDecodeQuantizationOfConvertedSource) {
  Rng rng(44);
  const std::int64_t group = 32, count = group * 7;
  std::vector<half> src_h(static_cast<std::size_t>(count));
  std::vector<float> src_f(static_cast<std::size_t>(count));
  for (std::size_t i = 0; i < src_h.size(); ++i) {
    src_h[i] = half(rng.uniform(-2.0f, 2.0f));
    src_f[i] = float(src_h[i]);
  }
  std::vector<std::int8_t> codes_h(src_h.size()), codes_f;
  std::vector<float> scales_h(7), scales_f;
  packed::quantize_halfs({src_h.data(), src_h.size()}, group, codes_h.data(),
                         scales_h.data());
  quantize_groups(src_f, group, codes_f, scales_f);
  EXPECT_EQ(codes_h, codes_f);
  EXPECT_EQ(0, std::memcmp(scales_h.data(), scales_f.data(),
                           scales_h.size() * sizeof(float)));
}

// ---- Serve KvPool int8 sidecar ----------------------------------------------

TEST(KvPoolInt8, ExtensionOverFillingPageIsExact) {
  telemetry::ScopedTelemetry on(true);
  telemetry::global_registry().reset();
  const auto sidecar_bytes = [] {
    return telemetry::global_registry().counter(
        "serve.kv.sidecar_bytes_converted");
  };
  serve::KvPoolConfig cfg;
  cfg.num_blocks = 4;
  cfg.block_tokens = 4;
  cfg.heads = 2;
  cfg.head_size = 4;
  cfg.sidecar_precision = PanelPrecision::kInt8;
  serve::KvPool pool(cfg);
  const serve::SessionId id = 1;
  const std::int64_t row = cfg.heads * cfg.head_size;
  Rng rng(11);

  std::vector<std::int8_t> first_row_codes;
  std::vector<float> first_row_scale;
  for (std::int64_t t = 0; t < 6; ++t) {  // crosses a page boundary
    const auto slot = pool.append_token(id);
    ASSERT_TRUE(slot.has_value());
    for (std::int64_t e = 0; e < row; ++e) {
      slot->k[e] = half(rng.uniform(-1.0f, 1.0f));
      slot->v[e] = half(rng.uniform(-1.0f, 1.0f));
    }
    pool.ensure_sidecar(id);
    const mha::KvSidecar sidecar = pool.sidecar(id);
    ASSERT_EQ(sidecar.precision, PanelPrecision::kInt8);
    ASSERT_EQ(sidecar.pages.size(), static_cast<std::size_t>(pool.blocks(id)));
    const mha::SidecarPanel& k0 = sidecar.pages[0].k;
    if (t == 0) {
      first_row_codes.assign(k0.i8, k0.i8 + row);
      first_row_scale.assign(k0.scales, k0.scales + 1);
    } else {
      // Quantize-once with per-token-row scales: the first row's codes and
      // scale never change as later rows fill the page (or new pages open).
      EXPECT_EQ(0, std::memcmp(first_row_codes.data(), k0.i8,
                               first_row_codes.size()));
      EXPECT_EQ(first_row_scale[0], k0.scales[0]);
    }
  }

  // One int8 byte per element per side, each row quantized exactly once.
  EXPECT_EQ(sidecar_bytes(), 2 * 6 * row);

  // Release recycles the pages: a new tenant of the same block quantizes
  // fresh codes for its own row instead of reusing the old tenant's.
  pool.release(id);
  const serve::SessionId other = 2;
  const auto slot = pool.append_token(other);
  ASSERT_TRUE(slot.has_value());
  for (std::int64_t e = 0; e < row; ++e) {
    slot->k[e] = half(0.5f);
    slot->v[e] = half(0.5f);
  }
  pool.ensure_sidecar(other);
  EXPECT_EQ(sidecar_bytes(), 2 * 7 * row);
  // A constant row quantizes to the full code.
  EXPECT_EQ(pool.sidecar(other).pages[0].k.i8[0], 127);
}

}  // namespace
}  // namespace stof::core
