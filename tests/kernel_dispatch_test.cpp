// Cross-ISA bit-exactness harness for the runtime-dispatched kernel table.
//
// Every SIMD table must produce outputs byte-identical to the scalar
// reference table — that is the contract that lets the packed engine keep
// its bit-identity guarantee while dispatching to AVX2/AVX-512/NEON at
// runtime.  These tests sweep every ISA available_isas() reports against
// the scalar table: exhaustive half<->float conversion sweeps (including
// NaN payloads, infinities, and denormals), odd-shaped GEMM/dot/axpy
// sweeps, and the INT8 tier (whose int32 arithmetic must agree exactly).
//
// The suite is also registered a second time with STOF_FORCE_SCALAR=1
// (see tests/CMakeLists.txt), which pins best_supported_isa() to scalar
// and exercises the dispatcher's environment override.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#include "stof/core/half.hpp"
#include "stof/core/kernels.hpp"
#include "stof/core/rng.hpp"
#include "stof/telemetry/telemetry.hpp"

namespace stof::core {
namespace {

bool force_scalar_env() {
  const char* force = std::getenv("STOF_FORCE_SCALAR");
  return force != nullptr && force[0] != '\0' &&
         !(force[0] == '0' && force[1] == '\0');
}

/// The non-scalar ISAs to diff against the reference table.
std::vector<Isa> simd_isas() {
  std::vector<Isa> out;
  for (const Isa isa : available_isas()) {
    if (isa != Isa::kScalar) out.push_back(isa);
  }
  return out;
}

bool bytes_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Deterministic "random" floats in [-4, 4], including exact zeros.
std::vector<float> random_floats(std::int64_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> out(static_cast<std::size_t>(n));
  for (auto& x : out) {
    x = rng.bernoulli(0.05) ? 0.0f : rng.uniform(-4.0f, 4.0f);
  }
  return out;
}

TEST(KernelDispatch, AvailableIsasStartScalarAndActiveMatchesBest) {
  const auto isas = available_isas();
  ASSERT_FALSE(isas.empty());
  EXPECT_EQ(isas.front(), Isa::kScalar);
  const Isa best = best_supported_isa();
  EXPECT_TRUE(isa_available(best));
  EXPECT_EQ(active_isa(), best);
  if (force_scalar_env()) {
    EXPECT_EQ(best, Isa::kScalar) << "STOF_FORCE_SCALAR must pin scalar";
  }
  EXPECT_EQ(scalar_kernel_table().isa, Isa::kScalar);
  for (const Isa isa : isas) {
    EXPECT_EQ(kernel_table_for(isa).isa, isa);
  }
}

TEST(KernelDispatch, ScopedIsaSwitchesAndRestores) {
  const Isa before = active_isa();
  {
    ScopedKernelIsa forced(Isa::kScalar);
    EXPECT_EQ(active_isa(), Isa::kScalar);
    EXPECT_EQ(kernels().isa, Isa::kScalar);
  }
  EXPECT_EQ(active_isa(), before);
}

TEST(KernelDispatch, NoteKernelDispatchRecordsGaugeAndCounter) {
  telemetry::ScopedTelemetry on(true);
  telemetry::global_registry().reset();
  note_kernel_dispatch("axpy", 3);
  note_kernel_dispatch("axpy");
  EXPECT_EQ(telemetry::global_registry().gauge("exec.dispatch.isa"),
            static_cast<double>(static_cast<int>(active_isa())));
  EXPECT_EQ(telemetry::global_registry().counter("exec.dispatch.axpy.calls"),
            4);
}

TEST(KernelDispatch, HalfToFloatMatchesScalarForEveryBitPattern) {
  std::vector<half> src;
  src.reserve(1 << 16);
  for (std::uint32_t bits = 0; bits < (1u << 16); ++bits) {
    src.push_back(half::from_bits(static_cast<std::uint16_t>(bits)));
  }
  const auto n = static_cast<std::int64_t>(src.size());
  std::vector<float> ref(src.size());
  scalar_kernel_table().half_to_float(src.data(), ref.data(), n);
  for (const Isa isa : simd_isas()) {
    std::vector<float> got(src.size(), -1.0f);
    kernel_table_for(isa).half_to_float(src.data(), got.data(), n);
    // Byte compare: NaN payloads must survive identically too.
    EXPECT_TRUE(bytes_equal(ref, got)) << isa_name(isa);
  }
}

TEST(KernelDispatch, FloatToHalfMatchesScalarOnRandomBitPatternsAndSpecials) {
  Rng rng(0x5eedULL);
  std::vector<float> src;
  for (int i = 0; i < 200000; ++i) {
    const auto bits = static_cast<std::uint32_t>(rng.next_u64());
    float x;
    std::memcpy(&x, &bits, sizeof(x));
    src.push_back(x);  // any bit pattern: NaNs, infs, denormals included
  }
  const float qnan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  for (const float x : {0.0f, -0.0f, inf, -inf, qnan, -qnan, 65504.0f,
                        65520.0f, -65536.0f, 1e-8f, -5.96e-8f, 6.1e-5f}) {
    src.push_back(x);
  }
  const auto n = static_cast<std::int64_t>(src.size());
  std::vector<half> ref(src.size());
  scalar_kernel_table().float_to_half(src.data(), ref.data(), n);
  for (const Isa isa : simd_isas()) {
    std::vector<half> got(src.size());
    kernel_table_for(isa).float_to_half(src.data(), got.data(), n);
    EXPECT_EQ(0, std::memcmp(ref.data(), got.data(), ref.size() * sizeof(half)))
        << isa_name(isa);
  }
}

TEST(KernelDispatch, SgemmAccumulateMatchesScalarOnOddShapes) {
  const std::int64_t shapes[][3] = {{1, 1, 1},  {1, 7, 3},   {2, 8, 16},
                                    {3, 13, 17}, {5, 64, 33}, {8, 31, 64},
                                    {17, 96, 48}, {64, 64, 64}};
  for (const auto& shape : shapes) {
    const std::int64_t rows = shape[0], k = shape[1], n = shape[2];
    const auto a = random_floats(rows * k, 11 + rows);
    const auto b = random_floats(k * n, 23 + n);
    auto ref = random_floats(rows * n, 37);  // nonzero initial accumulators
    auto got0 = ref;
    scalar_kernel_table().sgemm_accumulate(a.data(), b.data(), ref.data(),
                                           rows, k, n);
    for (const Isa isa : simd_isas()) {
      auto got = got0;
      kernel_table_for(isa).sgemm_accumulate(a.data(), b.data(), got.data(),
                                             rows, k, n);
      EXPECT_TRUE(bytes_equal(ref, got))
          << isa_name(isa) << " " << rows << "x" << k << "x" << n;
    }
  }
}

TEST(KernelDispatch, SgemmAccumulateLdMatchesScalarWithLooseLeadingDims) {
  const std::int64_t rows = 7, depth = 19, cols = 29;
  const std::int64_t lda = depth + 3, ldb = cols + 5, ldc = cols + 2;
  const auto a = random_floats(rows * lda, 101);
  const auto b = random_floats(depth * ldb, 103);
  auto ref = random_floats(rows * ldc, 107);
  const auto init = ref;
  scalar_kernel_table().sgemm_accumulate_ld(a.data(), lda, b.data(), ldb,
                                            ref.data(), ldc, rows, depth,
                                            cols);
  for (const Isa isa : simd_isas()) {
    auto got = init;
    kernel_table_for(isa).sgemm_accumulate_ld(a.data(), lda, b.data(), ldb,
                                              got.data(), ldc, rows, depth,
                                              cols);
    EXPECT_TRUE(bytes_equal(ref, got)) << isa_name(isa);
  }
}

TEST(KernelDispatch, DecodePrimitivesMatchScalar) {
  for (const std::int64_t n : {1, 2, 3, 4, 7, 8, 15, 16, 17, 64, 100, 257}) {
    const auto x = random_floats(n, 1000 + n);
    const auto y0 = random_floats(n, 2000 + n);
    const KernelTable& ref = scalar_kernel_table();

    auto ya = y0;
    ref.axpy(ya.data(), x.data(), 1.7f, n);
    auto yb = y0;
    ref.axpby(yb.data(), x.data(), 0.4f, 1.0f, n);
    auto ys = y0;
    ref.scale_inplace(ys.data(), -2.5f, n);
    const float rmax = ref.reduce_max(x.data(), n);
    const float amax = ref.abs_max(x.data(), n);

    for (const Isa isa : simd_isas()) {
      const KernelTable& kt = kernel_table_for(isa);
      auto g = y0;
      kt.axpy(g.data(), x.data(), 1.7f, n);
      EXPECT_TRUE(bytes_equal(ya, g)) << isa_name(isa) << " axpy n=" << n;
      g = y0;
      kt.axpby(g.data(), x.data(), 0.4f, 1.0f, n);
      EXPECT_TRUE(bytes_equal(yb, g)) << isa_name(isa) << " axpby n=" << n;
      g = y0;
      kt.scale_inplace(g.data(), -2.5f, n);
      EXPECT_TRUE(bytes_equal(ys, g)) << isa_name(isa) << " scale n=" << n;
      EXPECT_EQ(rmax, kt.reduce_max(x.data(), n))
          << isa_name(isa) << " reduce_max n=" << n;
      EXPECT_EQ(amax, kt.abs_max(x.data(), n))
          << isa_name(isa) << " abs_max n=" << n;
    }
  }
}

TEST(KernelDispatch, DotRowsMatchesScalarContiguousAndGathered) {
  const std::int64_t d = 48, stride = 57, count = 23;
  const auto q = random_floats(d, 301);
  const auto base = random_floats(64 * stride, 303);
  // Gather indices stored exactly in floats, shuffled, with repeats.
  std::vector<float> idx;
  Rng rng(404);
  for (std::int64_t i = 0; i < count; ++i) {
    idx.push_back(static_cast<float>(rng.next_below(64)));
  }
  const KernelTable& ref = scalar_kernel_table();
  std::vector<float> out_ref(static_cast<std::size_t>(count));
  const float* index_modes[] = {nullptr, idx.data()};
  for (const float* ip : index_modes) {
    ref.dot_rows(q.data(), base.data(), stride, ip, out_ref.data(), count, d);
    for (const Isa isa : simd_isas()) {
      std::vector<float> got(static_cast<std::size_t>(count), -1.0f);
      kernel_table_for(isa).dot_rows(q.data(), base.data(), stride, ip,
                                     got.data(), count, d);
      EXPECT_TRUE(bytes_equal(out_ref, got))
          << isa_name(isa) << (ip == nullptr ? " contiguous" : " gathered");
    }
  }
}

TEST(KernelDispatch, Int8TierAgreesExactlyAcrossIsas) {
  for (const std::int64_t n : {1, 3, 8, 16, 31, 64, 129}) {
    const auto src = random_floats(n, 7000 + n);
    const KernelTable& ref = scalar_kernel_table();
    const auto qp = quant_params(ref.abs_max(src.data(), n));

    std::vector<std::int8_t> codes_ref(static_cast<std::size_t>(n));
    ref.quantize_i8(src.data(), codes_ref.data(), n, qp.inv_scale);
    const auto other = random_floats(n, 9000 + n);
    std::vector<std::int8_t> codes_b(static_cast<std::size_t>(n));
    ref.quantize_i8(other.data(), codes_b.data(), n, qp.inv_scale);
    const std::int32_t dot_ref = ref.dot_i8(codes_ref.data(), codes_b.data(),
                                            n);
    auto y_ref = random_floats(n, 11000 + n);
    const auto y0 = y_ref;
    ref.axpy_i8(y_ref.data(), codes_ref.data(), 0.37f, n);

    for (const Isa isa : simd_isas()) {
      const KernelTable& kt = kernel_table_for(isa);
      std::vector<std::int8_t> codes(static_cast<std::size_t>(n), 99);
      kt.quantize_i8(src.data(), codes.data(), n, qp.inv_scale);
      EXPECT_EQ(codes_ref, codes) << isa_name(isa) << " n=" << n;
      EXPECT_EQ(dot_ref, kt.dot_i8(codes_ref.data(), codes_b.data(), n))
          << isa_name(isa) << " n=" << n;
      auto y = y0;
      kt.axpy_i8(y.data(), codes_ref.data(), 0.37f, n);
      EXPECT_TRUE(bytes_equal(y_ref, y)) << isa_name(isa) << " n=" << n;
    }
  }
}

}  // namespace
}  // namespace stof::core
