// Order statistics for the serving benchmark.
//
// Percentiles use the nearest-rank definition: the p-th percentile of N
// samples is the ceil(p/100 * N)-th smallest (rank 1 for p == 0), so every
// reported value is a sample that was actually observed.  A percentile is
// only trustworthy with enough samples beyond it; tail_samples() gives that
// count so each record can print it beside the value.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

/// 1-based nearest rank of percentile `p` (0..100) among `n` samples.
[[nodiscard]] inline std::int64_t nearest_rank(double p, std::int64_t n) {
  // p * n is exact for the integer percentiles used, so an exact rank
  // never rounds up past itself.
  const auto rank =
      static_cast<std::int64_t>(std::ceil(p * static_cast<double>(n) / 100.0));
  return std::clamp<std::int64_t>(rank, 1, n);
}

/// Nearest-rank percentile of an unsorted sample; 0 when it is empty.
[[nodiscard]] inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<std::int64_t>(v.size());
  return v[static_cast<std::size_t>(nearest_rank(p, n) - 1)];
}

/// Samples strictly above the nearest rank of `p` among `n` samples.
[[nodiscard]] inline std::int64_t tail_samples(double p, std::int64_t n) {
  return n == 0 ? 0 : n - nearest_rank(p, n);
}

[[nodiscard]] inline double median(const std::vector<double>& v) {
  return percentile(v, 50);
}

}  // namespace perfbench
