// AVX-512 GEMM tiles (compiled with -mavx512f -mavx512bw -ffp-contract=off).
//
// Only the GEMM accumulators are overridden here — conversions and the
// element-wise primitives stay on the AVX2 entries, which already saturate
// memory for those shapes.  The same bit-identity rules apply: separate
// multiply and add per ascending depth step, vector lanes only across
// independent output columns, accumulators resident in zmm registers for
// the whole depth loop.
#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <algorithm>
#include <cstdint>

#include "stof/core/kernels.hpp"

namespace stof::core::detail {
namespace {

inline void tile512_4x32(const float* a0, const float* a1, const float* a2,
                         const float* a3, const float* b, std::int64_t ldb,
                         float* c0, float* c1, float* c2, float* c3,
                         std::int64_t depth) {
  __m512 acc00 = _mm512_loadu_ps(c0), acc01 = _mm512_loadu_ps(c0 + 16);
  __m512 acc10 = _mm512_loadu_ps(c1), acc11 = _mm512_loadu_ps(c1 + 16);
  __m512 acc20 = _mm512_loadu_ps(c2), acc21 = _mm512_loadu_ps(c2 + 16);
  __m512 acc30 = _mm512_loadu_ps(c3), acc31 = _mm512_loadu_ps(c3 + 16);
  for (std::int64_t e = 0; e < depth; ++e) {
    const float* br = b + e * ldb;
    const __m512 b0 = _mm512_loadu_ps(br);
    const __m512 b1 = _mm512_loadu_ps(br + 16);
    __m512 av = _mm512_set1_ps(a0[e]);
    acc00 = _mm512_add_ps(acc00, _mm512_mul_ps(av, b0));
    acc01 = _mm512_add_ps(acc01, _mm512_mul_ps(av, b1));
    av = _mm512_set1_ps(a1[e]);
    acc10 = _mm512_add_ps(acc10, _mm512_mul_ps(av, b0));
    acc11 = _mm512_add_ps(acc11, _mm512_mul_ps(av, b1));
    av = _mm512_set1_ps(a2[e]);
    acc20 = _mm512_add_ps(acc20, _mm512_mul_ps(av, b0));
    acc21 = _mm512_add_ps(acc21, _mm512_mul_ps(av, b1));
    av = _mm512_set1_ps(a3[e]);
    acc30 = _mm512_add_ps(acc30, _mm512_mul_ps(av, b0));
    acc31 = _mm512_add_ps(acc31, _mm512_mul_ps(av, b1));
  }
  _mm512_storeu_ps(c0, acc00);
  _mm512_storeu_ps(c0 + 16, acc01);
  _mm512_storeu_ps(c1, acc10);
  _mm512_storeu_ps(c1 + 16, acc11);
  _mm512_storeu_ps(c2, acc20);
  _mm512_storeu_ps(c2 + 16, acc21);
  _mm512_storeu_ps(c3, acc30);
  _mm512_storeu_ps(c3 + 16, acc31);
}

inline void tile512_4x16(const float* a0, const float* a1, const float* a2,
                         const float* a3, const float* b, std::int64_t ldb,
                         float* c0, float* c1, float* c2, float* c3,
                         std::int64_t depth) {
  __m512 acc0 = _mm512_loadu_ps(c0);
  __m512 acc1 = _mm512_loadu_ps(c1);
  __m512 acc2 = _mm512_loadu_ps(c2);
  __m512 acc3 = _mm512_loadu_ps(c3);
  for (std::int64_t e = 0; e < depth; ++e) {
    const __m512 bv = _mm512_loadu_ps(b + e * ldb);
    acc0 = _mm512_add_ps(acc0, _mm512_mul_ps(_mm512_set1_ps(a0[e]), bv));
    acc1 = _mm512_add_ps(acc1, _mm512_mul_ps(_mm512_set1_ps(a1[e]), bv));
    acc2 = _mm512_add_ps(acc2, _mm512_mul_ps(_mm512_set1_ps(a2[e]), bv));
    acc3 = _mm512_add_ps(acc3, _mm512_mul_ps(_mm512_set1_ps(a3[e]), bv));
  }
  _mm512_storeu_ps(c0, acc0);
  _mm512_storeu_ps(c1, acc1);
  _mm512_storeu_ps(c2, acc2);
  _mm512_storeu_ps(c3, acc3);
}

inline void tile256_4x8(const float* a0, const float* a1, const float* a2,
                        const float* a3, const float* b, std::int64_t ldb,
                        float* c0, float* c1, float* c2, float* c3,
                        std::int64_t depth) {
  __m256 acc0 = _mm256_loadu_ps(c0);
  __m256 acc1 = _mm256_loadu_ps(c1);
  __m256 acc2 = _mm256_loadu_ps(c2);
  __m256 acc3 = _mm256_loadu_ps(c3);
  for (std::int64_t e = 0; e < depth; ++e) {
    const __m256 bv = _mm256_loadu_ps(b + e * ldb);
    acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(_mm256_set1_ps(a0[e]), bv));
    acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(_mm256_set1_ps(a1[e]), bv));
    acc2 = _mm256_add_ps(acc2, _mm256_mul_ps(_mm256_set1_ps(a2[e]), bv));
    acc3 = _mm256_add_ps(acc3, _mm256_mul_ps(_mm256_set1_ps(a3[e]), bv));
  }
  _mm256_storeu_ps(c0, acc0);
  _mm256_storeu_ps(c1, acc1);
  _mm256_storeu_ps(c2, acc2);
  _mm256_storeu_ps(c3, acc3);
}

inline void tile512_1xw(const float* ar, const float* b, std::int64_t ldb,
                        float* cr, std::int64_t depth, int vecs) {
  __m512 acc0 = _mm512_loadu_ps(cr);
  __m512 acc1 = vecs > 1 ? _mm512_loadu_ps(cr + 16) : _mm512_setzero_ps();
  for (std::int64_t e = 0; e < depth; ++e) {
    const float* br = b + e * ldb;
    const __m512 av = _mm512_set1_ps(ar[e]);
    acc0 = _mm512_add_ps(acc0, _mm512_mul_ps(av, _mm512_loadu_ps(br)));
    if (vecs > 1) {
      acc1 = _mm512_add_ps(acc1, _mm512_mul_ps(av, _mm512_loadu_ps(br + 16)));
    }
  }
  _mm512_storeu_ps(cr, acc0);
  if (vecs > 1) _mm512_storeu_ps(cr + 16, acc1);
}

inline void tile_cols_scalar(const float* a, std::int64_t lda, const float* b,
                             std::int64_t ldb, float* c, std::int64_t ldc,
                             std::int64_t rows, std::int64_t depth,
                             std::int64_t j_lo, std::int64_t j_hi) {
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* ar = a + r * lda;
    float* cr = c + r * ldc;
    for (std::int64_t j = j_lo; j < j_hi; ++j) {
      float s = cr[j];
      for (std::int64_t e = 0; e < depth; ++e) s += ar[e] * b[e * ldb + j];
      cr[j] = s;
    }
  }
}

void sgemm_accumulate_ld_avx512(const float* a, std::int64_t lda,
                                const float* b, std::int64_t ldb, float* c,
                                std::int64_t ldc, std::int64_t rows,
                                std::int64_t depth, std::int64_t cols) {
  std::int64_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    const float* a0 = a + (r + 0) * lda;
    const float* a1 = a + (r + 1) * lda;
    const float* a2 = a + (r + 2) * lda;
    const float* a3 = a + (r + 3) * lda;
    float* c0 = c + (r + 0) * ldc;
    float* c1 = c + (r + 1) * ldc;
    float* c2 = c + (r + 2) * ldc;
    float* c3 = c + (r + 3) * ldc;
    std::int64_t j = 0;
    for (; j + 32 <= cols; j += 32) {
      tile512_4x32(a0, a1, a2, a3, b + j, ldb, c0 + j, c1 + j, c2 + j, c3 + j,
                   depth);
    }
    for (; j + 16 <= cols; j += 16) {
      tile512_4x16(a0, a1, a2, a3, b + j, ldb, c0 + j, c1 + j, c2 + j, c3 + j,
                   depth);
    }
    for (; j + 8 <= cols; j += 8) {
      tile256_4x8(a0, a1, a2, a3, b + j, ldb, c0 + j, c1 + j, c2 + j, c3 + j,
                  depth);
    }
    if (j < cols) {
      tile_cols_scalar(a + r * lda, lda, b, ldb, c + r * ldc, ldc, 4, depth, j,
                       cols);
    }
  }
  for (; r < rows; ++r) {
    const float* ar = a + r * lda;
    float* cr = c + r * ldc;
    std::int64_t j = 0;
    for (; j + 32 <= cols; j += 32) {
      tile512_1xw(ar, b + j, ldb, cr + j, depth, 2);
    }
    for (; j + 16 <= cols; j += 16) {
      tile512_1xw(ar, b + j, ldb, cr + j, depth, 1);
    }
    if (j < cols) {
      tile_cols_scalar(ar, lda, b, ldb, cr, ldc, 1, depth, j, cols);
    }
  }
}

void sgemm_accumulate_avx512(const float* a, const float* b, float* c,
                             std::int64_t rows, std::int64_t k,
                             std::int64_t n) {
  // Same cache blocking as the scalar reference (k0 then ki ascending per
  // output element).
  constexpr std::int64_t kNB = 256;
  constexpr std::int64_t kKB = 128;
  for (std::int64_t n0 = 0; n0 < n; n0 += kNB) {
    const std::int64_t nw = std::min(kNB, n - n0);
    for (std::int64_t k0 = 0; k0 < k; k0 += kKB) {
      const std::int64_t kw = std::min(kKB, k - k0);
      sgemm_accumulate_ld_avx512(a + k0, k, b + k0 * n + n0, n, c + n0, n,
                                 rows, kw, nw);
    }
  }
}

}  // namespace

void fill_avx512(KernelTable& table) {
  table.sgemm_accumulate = sgemm_accumulate_avx512;
  table.sgemm_accumulate_ld = sgemm_accumulate_ld_avx512;
}

}  // namespace stof::core::detail

#endif  // x86_64
