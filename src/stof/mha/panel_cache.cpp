#include "stof/mha/panel_cache.hpp"

#include <vector>

#include "stof/core/packed.hpp"
#include "stof/parallel/parallel_for.hpp"
#include "stof/telemetry/telemetry.hpp"

namespace stof::mha {
namespace {

/// Full convert-and-transpose of every instance panel: (seq x d) half in,
/// kv_instances contiguous (d x seq) float panels out.  Tiled so both the
/// strided reads and the contiguous writes stay cache-resident.
void convert_transposed(const TensorH& k, std::int64_t kv_instances,
                        std::int64_t seq, std::int64_t d, float* out) {
  const float* table = packed::h2f_table();
  const std::int64_t panel = seq * d;
  parallel_for(0, kv_instances, [&](std::int64_t kv) {
    const half* src = k.data().data() + kv * panel;
    float* dst = out + kv * panel;
    constexpr std::int64_t kT = 32;
    for (std::int64_t j0 = 0; j0 < seq; j0 += kT) {
      const std::int64_t j1 = std::min(seq, j0 + kT);
      for (std::int64_t e0 = 0; e0 < d; e0 += kT) {
        const std::int64_t e1 = std::min(d, e0 + kT);
        for (std::int64_t j = j0; j < j1; ++j) {
          for (std::int64_t e = e0; e < e1; ++e) {
            dst[e * seq + j] = table[src[j * d + e].bits()];
          }
        }
      }
    }
  });
}

/// Parallel row-major conversion of all instance panels.
void convert_row_major(const TensorH& t, std::int64_t kv_instances,
                       std::int64_t panel, float* out) {
  const auto n = static_cast<std::size_t>(panel);
  parallel_for(0, kv_instances, [&](std::int64_t kv) {
    const auto at = static_cast<std::size_t>(kv) * n;
    packed::half_to_float(t.data().subspan(at, n), {out + at, n});
  });
}

}  // namespace

KvPanelCache::KvPanelCache(const TensorH& k, const TensorH& v,
                           std::int64_t kv_instances, std::int64_t seq,
                           std::int64_t head_size, bool transpose_k)
    : instances_(kv_instances),
      seq_(seq),
      d_(head_size),
      transposed_k_(transpose_k) {
  const std::int64_t panel = seq_ * d_;
  const std::int64_t total = kv_instances * panel;
  STOF_EXPECTS(static_cast<std::int64_t>(k.data().size()) == total &&
                   k.data().size() == v.data().size(),
               "K/V storage must be kv_instances contiguous (seq x d) panels");
  const auto n = static_cast<std::size_t>(total);
  k_.resize(n);
  v_.resize(n);
  if (transpose_k) {
    convert_transposed(k, kv_instances, seq_, d_, k_.data());
  } else {
    convert_row_major(k, kv_instances, panel, k_.data());
  }
  convert_row_major(v, kv_instances, panel, v_.data());
  telemetry::count("exec.mha.panels_converted", 2 * kv_instances);
  telemetry::count("exec.panelcache.bytes_converted", 4 * total);
}

std::size_t KvPanelCache::panel_offset(std::int64_t kv) const {
  STOF_EXPECTS(kv >= 0 && kv < instances_, "kv instance out of range");
  return static_cast<std::size_t>(kv * seq_ * d_);
}

const float* KvPanelCache::k_panel(std::int64_t kv) const {
  STOF_EXPECTS(!transposed_k_, "cache holds transposed K panels");
  return k_.data() + panel_offset(kv);
}

const float* KvPanelCache::kt_panel(std::int64_t kv) const {
  STOF_EXPECTS(transposed_k_, "cache holds row-major K panels");
  return k_.data() + panel_offset(kv);
}

const float* KvPanelCache::v_panel(std::int64_t kv) const {
  return v_.data() + panel_offset(kv);
}

}  // namespace stof::mha
